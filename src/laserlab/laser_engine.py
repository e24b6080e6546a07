"""The refined laser bound and the recursive value analysis of CW powers.

The value of a graded power CW_q^t is bounded from below by choosing a
distribution alpha on the nonzero outer block triples, which yields

    V_tau >= alpha_V * alpha_B * sqrt(alpha_N / max_{beta in D_alpha} beta_N),

where D_alpha is the set of distributions sharing alpha's marginals.  The
prior-work bound carries the full ratio alpha_N / max beta_N instead of its
square root.  Per-class values come from a recursion that halves t, with
classes touching a zero index merged into a single matrix multiplication
tensor.  The engine collects the classes reachable from the ones asked
for and fills them bottom-up, one level at a time: a class at level s
needs only classes at level s/2, so the classes of a level are
independent.  From level 8 up, with more than one usable CPU, a level's
classes run on a fork pool with one worker per CPU, which ends with the
level; below that every class ascent takes milliseconds and the classes
run in turn.  The search is deterministic, so the tables are the same
bits either way.  The top of CW_q^t is valued last, by the same pipeline
job as a recursion class, into the same bound record (with key None), and
is certified by the same rule.  Its per-class values are symmetric under
permuting roles, so the pipeline also tries the S3-symmetrized best class
there.  Feasibility of V_tau >= (q+2)^t at a given tau implies omega <=
3 tau; the threshold is located by regula falsi and re-verified in
extended precision.

The classes are the same at every tau and their optima move little, so
each tau probe starts every heuristic ascent, per class and at the top,
from where the previous probe's ascent ended, mixed with a WARM_MIX share
of the uniform distribution so that coordinates the last ascent drove to
the 1e-300 floor can grow again.  A single-tau analysis starts cold.

The numpy search (``solver``) is imported only where a class is searched
and where ``EngineConfig`` checks its heuristics, and mpmath only where a
table is certified, so loading and certifying a cache file never loads
numpy.  ``EngineConfig`` is built before any level pool forks, so the
workers inherit ``solver`` loaded.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from decimal import Decimal
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

from .distributions import (
    Marginals, SupportDistribution, bound_terms, entropy, entropy_dual_bound, marginal_sums,
    marginals, refined_combination,
)
from .tensor_core import ClassKey, Triple, class_is_realizable, split_subtensor, top_support

if TYPE_CHECKING:
    import mpmath as mp

    from .solver import BoundCandidate

SCHEMA_VERSION = 1
CODE_VERSION = "0.1.0"
CERT_DPS = 60
CERT_SLACK = 1e-9
ALLOWED_T = (1, 2, 4, 8, 16, 32)


def decimal_str(x: float) -> str:
    """Serialize a float as a 35-significant-digit decimal string.

    The conversion Decimal(float) is exact, so round-tripping through this
    representation preserves the double-precision value; the certification
    pass parses these strings directly into extended-precision numbers.
    """
    if x == 0.0:
        # Decimal's zero formatting leaks a precision-derived exponent;
        # pin a canonical form instead.
        return "0." + "0" * 34 + "e+0"
    return format(Decimal(float(x)), ".34e")


def merged_count(q: int, t: int, I: int, J: int) -> int:
    """Size N of the matrix multiplication tensor <N,1,1> merged from T^t_{IJ0}.

    Columns with z-label 0 everywhere pair an x-variable with a unique
    y-variable; counting the pairs gives N as a sum over the number b of
    coordinates where the factor contributes a (1,1,0)-type triple.
    """
    if I < 0 or J < 0 or I + J != 2 * t:
        raise ValueError(f"merged class needs I+J = 2t, got I={I} J={J} t={t}")
    total = 0
    # I + J = 2t, so I - b and J - b are even together.
    for b in range(I % 2, min(I, J, t) + 1, 2):
        i2, j2 = (I - b) // 2, (J - b) // 2
        total += (
            math.factorial(t)
            // (math.factorial(b) * math.factorial(i2) * math.factorial(j2))
            * q ** b
        )
    return total


def refined_bound(
    support: Iterable[Triple],
    log_values: Mapping[Triple, float],
    alpha: SupportDistribution,
    max_log_beta_N: float,
) -> float:
    """Theorem bound: log alpha_V + log alpha_B + (1/2)(log alpha_N - max log beta_N)."""
    allowed = set(support)
    for t in alpha.weights:
        if t not in allowed:
            raise ValueError(f"alpha triple {t} outside support")
    log_v, log_b, log_n = bound_terms(alpha.weights, marginals(alpha), log_values)
    if max_log_beta_N < log_n - 1e-9:
        raise ValueError(
            f"max log beta_N {max_log_beta_N} below alpha's own entropy {log_n}"
        )
    return refined_combination(log_v, log_b, log_n, max_log_beta_N)


def classic_bound(
    support: Iterable[Triple],
    log_values: Mapping[Triple, float],
    alpha: SupportDistribution,
    max_log_beta_N: float,
) -> float:
    """Prior-work bound with the full entropy ratio instead of its square root."""
    half = refined_bound(support, log_values, alpha, max_log_beta_N)
    marg_entropy = entropy(alpha.weights.values())
    return half - 0.5 * (max(max_log_beta_N, marg_entropy) - marg_entropy)


def merged_value(q: int, t: int, I: int, J: int, tau, num=math):
    """log V_tau of the merged class T^t_{IJ0} = <N,1,1>, i.e. tau * ln N."""
    n = merged_count(q, t, I, J)
    if n == 0:
        raise ValueError(f"class T^{t}_({I},{J},0) is the zero tensor at q={q}")
    return tau * num.log(n)


def _class_method(key: ClassKey) -> str:
    """How a class is valued: merged if it touches index 0, else by recursion."""
    if key.ijk[0] == 0:
        return "matmul-leaf" if key.t == 1 else "merge"
    return "recursion"


def _realizable_splits(key: ClassKey):
    """Each split of a class into two nonzero half-level classes, as
    (inner triple, child key, complement key).  A nonzero class at even t
    has one: the first and last t/2 of its t block triples."""
    half = key.t // 2
    for child, comp in split_subtensor(key):
        if class_is_realizable(key.q, half, *child) and class_is_realizable(key.q, half, *comp):
            yield child, ClassKey.make(key.q, half, *child), ClassKey.make(key.q, half, *comp)


@dataclass(frozen=True)
class ValueBound:
    """A certified-style lower bound on ln V_tau of one class, or, with key
    None, of CW_q^t itself, which is valued like a recursed class."""

    key: ClassKey | None
    log_value: float
    method: str
    heuristic: str | None = None
    alpha: SupportDistribution | None = None
    gamma: SupportDistribution | None = None
    dual_multipliers: tuple[Mapping[int, float], Mapping[int, float], Mapping[int, float]] | None = None
    penalty_log: float = 0.0

    def __post_init__(self) -> None:
        if self.penalty_log > 1e-12:
            raise ValueError("penalty term must be <= 0 in log domain")
        if not math.isfinite(self.log_value):
            raise ValueError("log_value must be finite")


@dataclass
class ValueTable:
    """All per-class bounds of one analysis plus run metadata."""

    q: int
    t: int
    tau: float
    entries: dict[ClassKey, ValueBound]
    top: ValueBound
    metadata: dict

    def __post_init__(self) -> None:
        for key in self.entries:
            if tuple(key.ijk) != tuple(sorted(key.ijk)):
                raise ValueError(f"non-canonical key {key}")


@dataclass(frozen=True)
class OmegaResult:
    q: int
    t: int
    tau_star: float
    omega: float
    tol: float
    certified: bool
    probes: int

    def __post_init__(self) -> None:
        if not (2.0 - 1e-9 <= self.omega <= 3.0 + 1e-9):
            raise ValueError(f"omega bound {self.omega} outside [2, 3]")


@dataclass(frozen=True)
class EngineConfig:
    """Search budget and heuristic selection for the recursive analysis.

    The search is deterministic; ``seed`` is only recorded in the metadata.
    """

    seed: int = 0
    heuristics_small: tuple[int, ...] = (2,)
    heuristic_iter_cap: int = 20_000

    def __post_init__(self) -> None:
        from .solver import HEURISTICS

        if not self.heuristics_small or not set(self.heuristics_small) <= HEURISTICS.keys():
            raise ValueError(
                f"heuristics must be a non-empty subset of {sorted(HEURISTICS)}, "
                f"got {list(self.heuristics_small)}"
            )
        if self.heuristic_iter_cap < 1:
            raise ValueError(
                f"heuristic iteration cap must be at least 1, got {self.heuristic_iter_cap}"
            )


# The warm starts of one analysis: each heuristic's ascent start (or, after
# the analysis, its end point), per recursion class and with None for the top.
Starts = Mapping[ClassKey | None, Mapping[int, SupportDistribution]]


def _pipeline_job(
    job: tuple[dict[Triple, float], tuple[int, ...], int, Mapping[int, SupportDistribution] | None],
) -> tuple[BoundCandidate, dict[int, SupportDistribution]]:
    """The pipeline on one recursion class or on the top: its best
    candidate and its heuristics' end points.  Module-level, so that a fork
    pool can run it."""
    from .solver import full_pipeline_gamma

    inner, heuristics, max_iter, starts = job
    outcome = full_pipeline_gamma(
        sorted(inner), inner, heuristics=heuristics, max_iter=max_iter, starts=starts
    )
    return outcome.best, outcome.ascents


def _recursion_bound(key: ClassKey | None, best: BoundCandidate) -> ValueBound:
    return ValueBound(
        key=key,
        log_value=best.bound_log,
        method="recursion",
        heuristic=best.heuristic,
        alpha=best.alpha,
        gamma=best.gamma,
        dual_multipliers=best.dual_multipliers,
        penalty_log=min(0.0, 0.5 * (best.log_alpha_N - best.max_log_beta_N)),
    )


def _level_map(fn, jobs: list, level: int) -> list:
    """map(fn, jobs) for the classes of one recursion level.

    From level 8 up, with more than one usable CPU, the jobs run on a fork
    pool, largest support first; below that a class ascent takes
    milliseconds and a fork costs more than it saves.  The pipeline is
    deterministic, so the results are the same bits either way.
    """
    workers = len(os.sched_getaffinity(0))
    if level < 8 or workers < 2 or len(jobs) < 2:
        return list(map(fn, jobs))
    # Imported here only: the serial path never pays for them.  Fork, not
    # spawn: workers inherit the loaded modules, and callers need no
    # `if __name__ == "__main__"` guard.  The only other threads at fork
    # time are OpenBLAS's, which registers fork handlers for them.
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    order = sorted(range(len(jobs)), key=lambda n: -len(jobs[n][0]))
    results: list = [None] * len(jobs)
    with ProcessPoolExecutor(
        max_workers=min(workers, len(jobs)), mp_context=multiprocessing.get_context("fork")
    ) as pool:
        for n, out in zip(order, pool.map(fn, [jobs[n] for n in order])):
            results[n] = out
    return results


class LaserEngine:
    """Memoized recursive analysis of CW_q^t at a fixed tau.

    Classes are filled level by level: a class at level s depends only on
    classes at level s/2, so all classes of one level are independent once
    the level below is in the memo.  ``starts`` warm-starts the heuristic
    ascents, keyed by class and with None for the top; ``ascents`` holds
    their end points in the same shape.
    """

    def __init__(
        self, q: int, tau: float, config: EngineConfig | None = None, starts: Starts | None = None,
    ):
        if q < 0:
            raise ValueError(f"q must be non-negative, got q={q}")
        if not (2.0 / 3.0 - 1e-12 <= tau <= 1.0 + 1e-12):
            raise ValueError(f"tau {tau} outside [2/3, 1]")
        self.q = q
        self.tau = tau
        self.config = config or EngineConfig()
        self._memo: dict[ClassKey, ValueBound] = {}
        self._starts = starts or {}
        self.ascents: dict[ClassKey | None, dict[int, SupportDistribution]] = {}

    def analyze_class(self, key: ClassKey) -> ValueBound:
        key = ClassKey.make(key.q, key.t, *key.ijk)
        if key.q != self.q:
            raise ValueError("class q does not match engine q")
        self._fill([key])
        return self._memo[key]

    def _fill(self, keys: Iterable[ClassKey]) -> None:
        """Value every class reachable from keys, bottom-up one level at a time."""
        levels: dict[int, list[ClassKey]] = {}
        inners: dict[ClassKey, list[tuple[Triple, ClassKey, ClassKey]]] = {}
        seen = set(keys)
        pending = list(seen)
        while pending:
            key = pending.pop()
            if key in self._memo:
                continue
            if not class_is_realizable(self.q, key.t, *key.ijk):
                raise ValueError(f"class {key} is the zero tensor")
            method = _class_method(key)
            if method != "recursion":
                self._memo[key] = ValueBound(
                    key=key,
                    log_value=merged_value(self.q, key.t, *key.ijk[1:], self.tau),
                    method=method,
                )
                continue
            if key.t % 2:
                raise ValueError(f"cannot split odd t in {key}")
            inners[key] = splits = list(_realizable_splits(key))
            levels.setdefault(key.t, []).append(key)
            for _, k1, k2 in splits:
                for child in (k1, k2):
                    if child not in seen:
                        seen.add(child)
                        pending.append(child)
        for level in sorted(levels):
            batch = sorted(levels[level])
            jobs = [
                self._job(
                    key,
                    {
                        child: self._memo[k1].log_value + self._memo[k2].log_value
                        for child, k1, k2 in inners[key]
                    },
                )
                for key in batch
            ]
            for key, (best, ascents) in zip(batch, _level_map(_pipeline_job, jobs, level)):
                self._memo[key] = _recursion_bound(key, best)
                self.ascents[key] = ascents

    def _job(self, key: ClassKey | None, inner: dict[Triple, float]) -> tuple:
        """The pipeline job of one recursion class, or of the top for key None."""
        cfg = self.config
        return (inner, cfg.heuristics_small, cfg.heuristic_iter_cap, self._starts.get(key))

    def analyze_cw(self, t: int) -> ValueTable:
        """Outer analysis of CW_q^t: per-class values, then the top valued
        by the same pipeline job as a recursion class."""
        if t not in ALLOWED_T:
            raise ValueError(f"t must be one of {ALLOWED_T}")
        support = top_support(self.q, t)
        keys = [ClassKey.make(self.q, t, *trip) for trip in support]
        self._fill(keys)
        log_values = {trip: self._memo[key].log_value for trip, key in zip(support, keys)}
        best, self.ascents[None] = _pipeline_job(self._job(None, log_values))
        top = _recursion_bound(None, best)
        metadata = {
            "schema_version": SCHEMA_VERSION,
            "code_version": CODE_VERSION,
            "q": self.q,
            "t": t,
            "tau": decimal_str(self.tau),
            "heuristics": list(self.config.heuristics_small),
            "seed": self.config.seed,
        }
        return ValueTable(self.q, t, self.tau, dict(self._memo), top, metadata)


def analyze_cw(q: int, t: int, tau: float, config: EngineConfig | None = None) -> ValueTable:
    return LaserEngine(q, tau, config).analyze_cw(t)


def schonhage_tau(shapes: Sequence[tuple[int, int, int]], r: float) -> float:
    """The tau in [2/3, 1] with sum of (abc)^tau = r, by monotone bisection."""
    if not shapes:
        raise ValueError("need at least one shape")
    if r <= len(shapes):
        raise ValueError(f"rank bound {r} must exceed the number of shapes")
    prods = [a * b * c for (a, b, c) in shapes]
    if any(p < 1 for p in prods):
        raise ValueError("shapes must have positive dimensions")

    def f(tau: float) -> float:
        return math.fsum(p ** tau for p in prods) - r

    lo, hi = 2.0 / 3.0, 1.0
    if f(lo) > 1e-12:
        raise ValueError("no solution: sum exceeds r already at tau = 2/3")
    if f(hi) < -1e-12:
        raise ValueError("no solution: sum below r even at tau = 1")
    while hi - lo > 1e-13:
        mid = 0.5 * (lo + hi)
        if f(mid) >= 0.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def omega_bound(
    q: int,
    t: int,
    tol: float = 1e-9,
    config: EngineConfig | None = None,
) -> tuple[OmegaResult, ValueTable]:
    """Regula falsi on tau for V_tau(CW_q^t) >= (q+2)^t, reported one-sided safe.

    The margin m(tau) = log V_tau - (t ln(q+2) + 1e-9) is close to linear
    near its root, so the Illinois variant of regula falsi brackets the
    root from [2/3, 1] in a handful of probes.  Each probe lies at least
    tol/2 inside the bracket, so once a probe lands near the root the
    next one closes the bracket on the other side.  The search stops when
    the bracket is at most tol wide.  The returned tau* is the smallest tau
    observed feasible (never an untested point).  The table of that probe
    is returned and re-verified in extended precision; `certified`
    reflects that recheck.

    The first probe (tau = 1) starts every ascent cold.  Each later probe
    starts them from the previous probe's end points, mixed with WARM_MIX
    of the uniform distribution (see ``solver.heuristic_gamma``); without
    the mix, a coordinate left near 1e-300 stalls the ascent before it can
    grow back, and at t = 8 that raised tau* by 1.2e-5.
    """
    if tol < 1e-9:
        raise ValueError("tolerance below 1e-9 is not supported")
    config = config or EngineConfig()
    probes = 0
    starts: Starts | None = None

    def margin(tau: float) -> tuple[float, ValueTable]:
        nonlocal probes, starts
        probes += 1
        engine = LaserEngine(q, tau, config, starts)
        table = engine.analyze_cw(t)
        starts = engine.ascents
        # After the engine, which rejects q < 0, so that log(q + 2) is defined.
        return table.top.log_value - (t * math.log(q + 2) + 1e-9), table

    hi = 1.0
    m_hi, table_hi = margin(hi)
    if m_hi < 0:
        raise ValueError(f"infeasible even at tau = 1 for q={q}, t={t}")
    lo = 2.0 / 3.0
    m_lo, table_lo = margin(lo)
    if m_lo >= 0:
        hi, table_hi = lo, table_lo
    # Illinois: when one end is kept twice in a row, halve its margin so
    # the next point moves toward it and the bracket closes from both sides.
    kept = None
    while hi - lo > tol:
        tau = hi - m_hi * (hi - lo) / (m_hi - m_lo)
        tau = min(max(tau, lo + 0.5 * tol), hi - 0.5 * tol)
        m, table = margin(tau)
        if m >= 0:
            hi, m_hi, table_hi = tau, m, table
            if kept == "lo":
                m_lo *= 0.5
            kept = "lo"
        else:
            lo, m_lo = tau, m
            if kept == "hi":
                m_hi *= 0.5
            kept = "hi"
    certified = certify_table(table_hi).clears_threshold
    result = OmegaResult(
        q=q, t=t, tau_star=hi, omega=3.0 * hi, tol=tol, certified=certified, probes=probes
    )
    return result, table_hi


@dataclass(frozen=True)
class CertEntryReport:
    key: tuple[int, int, int] | None
    claimed: float
    certified_value: float
    passed: bool


@dataclass(frozen=True)
class CertReport:
    """``clears_threshold``: every entry passed and the certified top value
    is at least t ln(q+2), which proves omega <= 3 tau."""

    entries: tuple[CertEntryReport, ...]
    top_certified_value: object
    all_passed: bool
    clears_threshold: bool


def _certify_bound(bound: ValueBound | None, log_values: Mapping[Triple, mp.mpf]) -> mp.mpf:
    """Re-evaluate a recursed class's or the top's refined bound in extended
    precision, on the support of ``log_values``.

    The stored alpha defines the feasible point; its exact marginals define
    the class, and the stored multipliers give a sound dual upper bound on
    the class's maximum entropy whatever their quality.  A missing bound,
    alpha or multipliers, or an alpha keyed on a triple outside the
    support, whatever its weight, certifies nothing: -inf.
    """
    import mpmath as mp

    if bound is None or bound.alpha is None or bound.dual_multipliers is None:
        return mp.ninf
    support = sorted(log_values)
    if not set(support).issuperset(bound.alpha.weights):
        return mp.ninf
    w = {t: mp.mpf(v) for t, v in bound.alpha.weights.items()}
    total = mp.fsum(w.values())
    w = {t: v / total for t, v in w.items()}
    mults = tuple({k: mp.mpf(v) for k, v in side.items()} for side in bound.dual_multipliers)
    marg = Marginals(*marginal_sums(w))
    log_v, log_b, log_n = bound_terms(w, marg, log_values, num=mp)
    dual = entropy_dual_bound(support, marg, mults, num=mp)
    return refined_combination(log_v, log_b, log_n, dual)


def certify_table(table: ValueTable) -> CertReport:
    """Extended-precision recheck of every entry and the top-level bound.

    Values compose bottom-up: a parent's value term is evaluated from the
    already-certified child values, so each report line is a sound claim
    about the actual tensor, not merely a float reproduction.
    """
    import mpmath as mp

    with mp.workdps(CERT_DPS):
        tau = mp.mpf(table.metadata["tau"]) if isinstance(table.metadata.get("tau"), str) \
            else mp.mpf(table.tau)
        q = table.q
        certified: dict[ClassKey, mp.mpf] = {}
        reports: list[CertEntryReport] = []

        def report(bound: ValueBound, value: mp.mpf, method_ok: bool = True) -> None:
            reports.append(
                CertEntryReport(
                    key=None if bound.key is None else tuple(bound.key.ijk),
                    claimed=bound.log_value,
                    certified_value=float(value),
                    passed=method_ok and bool(value >= mp.mpf(bound.log_value) - CERT_SLACK),
                )
            )

        def cert_class(key: ClassKey) -> mp.mpf:
            # The class structure, not the stored method, picks the path: a
            # class touching index 0 is merged, any other is recursed, and an
            # entry labelled otherwise fails.
            if key in certified:
                return certified[key]
            entry = table.entries.get(key)
            method = _class_method(key)
            if method != "recursion":
                value = merged_value(q, key.t, *key.ijk[1:], tau, num=mp)
            else:
                # Children sort before their parent, so they are already
                # certified and reported unless their entry is missing.
                value = _certify_bound(entry, {
                    child: cert_class(k1) + cert_class(k2)
                    for child, k1, k2 in _realizable_splits(key)
                })
            certified[key] = value
            if entry is not None:
                report(entry, value, entry.method == method)
            return value

        for key in sorted(table.entries):
            cert_class(key)

        top_value = _certify_bound(table.top, {
            trip: cert_class(ClassKey.make(q, table.t, *trip))
            for trip in top_support(q, table.t)
        })
        report(table.top, top_value)
        all_passed = all(r.passed for r in reports)
        return CertReport(
            entries=tuple(reports),
            top_certified_value=top_value,
            all_passed=all_passed,
            clears_threshold=all_passed and bool(top_value >= table.t * mp.log(q + 2)),
        )


def _dist_to_json(dist: SupportDistribution | None) -> list | None:
    if dist is None:
        return None
    return [
        {"i": i, "j": j, "k": k, "w": decimal_str(p)}
        for (i, j, k), p in sorted(dist.weights.items())
    ]


def _dist_from_json(data: list | None) -> SupportDistribution | None:
    if data is None:
        return None
    return SupportDistribution(
        {(e["i"], e["j"], e["k"]): float(e["w"]) for e in data}
    )


def _mults_to_json(mults) -> dict | None:
    if mults is None:
        return None
    return {
        side: {str(k): decimal_str(v) for k, v in m.items()}
        for side, m in zip(("x", "y", "z"), mults)
    }


def _mults_from_json(data: dict | None):
    if data is None:
        return None
    return tuple(
        {int(k): float(v) for k, v in data.get(side, {}).items()} for side in ("x", "y", "z")
    )


def _bound_to_json(b: ValueBound) -> dict:
    """The fields an entry and the top share; an entry adds I, J, K and method."""
    return {
        "log_value": decimal_str(b.log_value),
        "heuristic": b.heuristic,
        "gamma": _dist_to_json(b.gamma),
        "alpha": _dist_to_json(b.alpha),
        "dual_multipliers": _mults_to_json(b.dual_multipliers),
        "penalty_log": decimal_str(b.penalty_log),
    }


def _bound_from_json(d: dict, key: ClassKey | None, method: str) -> ValueBound:
    return ValueBound(
        key=key,
        log_value=float(d["log_value"]),
        method=method,
        heuristic=d.get("heuristic"),
        alpha=_dist_from_json(d.get("alpha")),
        gamma=_dist_from_json(d.get("gamma")),
        dual_multipliers=_mults_from_json(d.get("dual_multipliers")),
        penalty_log=min(0.0, float(d["penalty_log"])),
    )


def table_to_json(table: ValueTable) -> str:
    doc = dict(table.metadata)
    doc["entries"] = [
        {"I": key.ijk[0], "J": key.ijk[1], "K": key.ijk[2], "method": e.method,
         **_bound_to_json(e)}
        for key, e in sorted(table.entries.items())
    ]
    doc["top"] = _bound_to_json(table.top)
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


class SchemaVersionError(ValueError):
    pass


def table_from_json(text: str) -> ValueTable:
    """Load a cache file.  A missing key, a value of the wrong type (such
    as a null weight), a q or t the engine would not run, or an entry for a
    zero class raises ValueError with the reason."""
    doc = json.loads(text)
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise SchemaVersionError(
            f"schema_version {doc.get('schema_version')} != {SCHEMA_VERSION}"
        )
    try:
        return _table_from_doc(doc)
    except KeyError as exc:
        raise ValueError(f"missing key {exc}") from exc
    except TypeError as exc:
        raise ValueError(f"null or mistyped value: {exc}") from exc


def _table_from_doc(doc: dict) -> ValueTable:
    q, t = doc["q"], doc["t"]
    if type(q) is not int or q < 0:
        raise ValueError(f"q must be a non-negative integer, got {q!r}")
    if type(t) is not int or t not in ALLOWED_T:
        raise ValueError(f"t must be one of {ALLOWED_T}, got {t!r}")
    tau = float(doc["tau"])
    entries: dict[ClassKey, ValueBound] = {}
    for e in doc["entries"]:
        # Keys at level s have index sum 2s.
        key = ClassKey.make(q, (e["I"] + e["J"] + e["K"]) // 2, e["I"], e["J"], e["K"])
        if not class_is_realizable(q, key.t, *key.ijk):
            raise ValueError(f"entry {key.ijk} at t={key.t} is the zero tensor at q={q}")
        entries[key] = _bound_from_json(e, key, e["method"])
    top = _bound_from_json(doc["top"], None, "recursion")
    metadata = {k: v for k, v in doc.items() if k not in {"entries", "top"}}
    return ValueTable(q, t, tau, entries, top, metadata)

