"""The refined laser bound and the recursive value analysis of CW powers.

The value of a graded power CW_q^t is bounded from below by choosing a
distribution alpha on the nonzero outer block triples, which yields

    V_tau >= alpha_V * alpha_B * sqrt(alpha_N / max_{beta in D_alpha} beta_N),

where D_alpha is the set of distributions sharing alpha's marginals.  The
prior-work bound carries the full ratio alpha_N / max beta_N instead of its
square root.  Per-class values come from a recursion that halves t, with
classes touching a zero index merged into a single matrix multiplication
tensor.  Feasibility of V_tau >= (q+2)^t at a given tau implies
omega <= 3 tau; the threshold is located by bisection and re-verified in
extended precision.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from decimal import Decimal
from typing import Iterable, Mapping, Sequence

import mpmath as mp

from .distributions import (
    FULL_S3, Marginals, SupportDistribution, bound_terms, entropy, marginal_sums, marginals,
    refined_combination, symmetrize,
)
from .solver import (
    HEURISTICS, InfeasibleMarginalsError, entropy_dual_bound, evaluate_gamma, full_pipeline_gamma,
)
from .tensor_core import ClassKey, Triple, split_subtensor

SCHEMA_VERSION = 1
CODE_VERSION = "0.1.0"
CERT_DPS = 60
CERT_SLACK = 1e-9


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


def class_is_realizable(q: int, t: int, I: int, J: int, K: int) -> bool:
    """Whether the class T^t_{IJK} of CW_q^t is a nonzero tensor.

    Each factor contributes one of the six CW block triples (permutations
    of (0,0,2) and, for q >= 1, of (0,1,1)); the class is nonzero iff the
    index triple is a sum of t such contributions.
    """
    if I < 0 or J < 0 or K < 0 or I + J + K != 2 * t:
        return False
    for a in range(t + 1):
        if 2 * a > I:
            break
        for b in range(t + 1 - a):
            if 2 * b > J:
                continue
            for c in range(t + 1 - a - b):
                if 2 * c > K:
                    continue
                rest = t - a - b - c
                # Middle-type counts d, e, f solve e+f = I-2a, d+f = J-2b, d+e = K-2c.
                se, sf, sd = I - 2 * a, J - 2 * b, K - 2 * c
                if q == 0:
                    if rest == 0 and se == 0 and sf == 0 and sd == 0:
                        return True
                    continue
                total2 = se + sf + sd
                if total2 != 2 * rest or total2 % 2:
                    continue
                f = (se + sf - sd) // 2
                e = se - f
                d = sf - f
                if f >= 0 and e >= 0 and d >= 0:
                    return True
    return False


def top_support(q: int, t: int) -> list[Triple]:
    """The realizable outer block triples (I, J, K) of CW_q^t, sorted."""
    return sorted(
        (I, J, 2 * t - I - J)
        for I in range(2 * t + 1)
        for J in range(2 * t + 1 - I)
        if class_is_realizable(q, t, I, J, 2 * t - I - J)
    )


def merged_count(q: int, t: int, I: int, J: int) -> int:
    """Size N of the matrix multiplication tensor <N,1,1> merged from T^t_{IJ0}.

    Columns with z-label 0 everywhere pair an x-variable with a unique
    y-variable; counting the pairs gives N as a sum over the number b of
    coordinates where the factor contributes a (1,1,0)-type triple.
    """
    if I < 0 or J < 0 or I + J != 2 * t:
        raise ValueError(f"merged class needs I+J = 2t, got I={I} J={J} t={t}")
    total = 0
    for b in range(min(I, J, t) + 1):
        if (I - b) % 2 or (J - b) % 2:
            continue
        i2, j2 = (I - b) // 2, (J - b) // 2
        if b + i2 + j2 != t:
            continue
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
    (inner triple, child key, complement key)."""
    half = key.t // 2
    for child, comp in split_subtensor(key):
        if class_is_realizable(key.q, half, *child) and class_is_realizable(key.q, half, *comp):
            yield child, ClassKey.make(key.q, half, *child), ClassKey.make(key.q, half, *comp)


@dataclass(frozen=True)
class ValueBound:
    """A certified-style lower bound on ln V_tau of one class."""

    key: ClassKey
    tau: float
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


@dataclass(frozen=True)
class TopBound:
    """The top-level outer analysis of CW_q^t."""

    log_value: float
    heuristic: str | None
    alpha: SupportDistribution | None
    gamma: SupportDistribution | None
    dual_multipliers: tuple[Mapping[int, float], Mapping[int, float], Mapping[int, float]] | None
    penalty_log: float


@dataclass
class ValueTable:
    """All per-class bounds of one analysis plus run metadata."""

    q: int
    t: int
    tau: float
    entries: dict[ClassKey, ValueBound]
    top: TopBound
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
        if not self.heuristics_small or not set(self.heuristics_small) <= HEURISTICS.keys():
            raise ValueError(
                f"heuristics must be a non-empty subset of {sorted(HEURISTICS)}, "
                f"got {list(self.heuristics_small)}"
            )


class LaserEngine:
    """Memoized recursive analysis of CW_q^t at a fixed tau."""

    def __init__(self, q: int, tau: float, config: EngineConfig | None = None):
        if not (2.0 / 3.0 - 1e-12 <= tau <= 1.0 + 1e-12):
            raise ValueError(f"tau {tau} outside [2/3, 1]")
        self.q = q
        self.tau = tau
        self.config = config or EngineConfig()
        self._memo: dict[ClassKey, ValueBound] = {}

    def analyze_class(self, key: ClassKey) -> ValueBound:
        key = ClassKey.make(key.q, key.t, *key.ijk)
        if key.q != self.q:
            raise ValueError("class q does not match engine q")
        cached = self._memo.get(key)
        if cached is not None:
            return cached
        I, J, K = key.ijk
        if not class_is_realizable(self.q, key.t, I, J, K):
            raise ValueError(f"class {key} is the zero tensor")
        method = _class_method(key)
        if method != "recursion":
            bound = ValueBound(
                key=key,
                tau=self.tau,
                log_value=merged_value(self.q, key.t, J, K, self.tau),
                method=method,
            )
        else:
            bound = self._analyze_by_recursion(key)
        self._memo[key] = bound
        return bound

    def _analyze_by_recursion(self, key: ClassKey) -> ValueBound:
        if key.t % 2:
            raise ValueError(f"cannot split odd t in {key}")
        inner: dict[Triple, float] = {}
        for child, k1, k2 in _realizable_splits(key):
            inner[child] = self.analyze_class(k1).log_value + self.analyze_class(k2).log_value
        if not inner:
            raise ValueError(f"class {key} has no realizable split")
        outcome = full_pipeline_gamma(
            sorted(inner),
            inner,
            self.tau,
            heuristics=self.config.heuristics_small,
            max_iter=self.config.heuristic_iter_cap,
        )
        best = outcome.best
        return ValueBound(
            key=key,
            tau=self.tau,
            log_value=best.bound_log,
            method="recursion",
            heuristic=best.heuristic,
            alpha=best.alpha,
            gamma=best.gamma,
            dual_multipliers=best.dual_multipliers,
            penalty_log=min(0.0, 0.5 * (best.log_alpha_N - best.max_log_beta_N)),
        )

    def analyze_cw(self, t: int) -> ValueTable:
        """Outer analysis of CW_q^t: per-class values plus the top pipeline."""
        support = top_support(self.q, t)
        log_values: dict[Triple, float] = {}
        for trip in support:
            vb = self.analyze_class(ClassKey.make(self.q, t, *trip))
            log_values[trip] = vb.log_value

        outcome = full_pipeline_gamma(
            support,
            log_values,
            self.tau,
            heuristics=self.config.heuristics_small,
            max_iter=self.config.heuristic_iter_cap,
        )
        best = outcome.best
        # The per-class values are symmetric under permuting roles, so the
        # symmetrized best class is also feasible and sometimes better.
        sym = symmetrize(best.gamma, FULL_S3, support)
        try:
            cand = evaluate_gamma(support, log_values, self.tau, sym, best.heuristic + "+sym")
            if cand.bound_log > best.bound_log:
                best = cand
        except InfeasibleMarginalsError:
            pass
        top = TopBound(
            log_value=best.bound_log,
            heuristic=best.heuristic,
            alpha=best.alpha,
            gamma=best.gamma,
            dual_multipliers=best.dual_multipliers,
            penalty_log=min(0.0, 0.5 * (best.log_alpha_N - best.max_log_beta_N)),
        )
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
    if t not in {1, 2, 4, 8, 16, 32}:
        raise ValueError(f"t must be a power of two in 1..32, got {t}")
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
    tol: float = 1e-6,
    config: EngineConfig | None = None,
) -> tuple[OmegaResult, ValueTable]:
    """Bisection on tau for V_tau(CW_q^t) >= (q+2)^t, reported one-sided safe.

    The returned tau* is the smallest tau observed feasible (never an
    untested midpoint).  The table of that probe is returned and re-verified
    in extended precision; `certified` reflects that recheck.
    """
    if tol < 1e-9:
        raise ValueError("tolerance below 1e-9 is not supported")
    threshold = t * math.log(q + 2)
    config = config or EngineConfig()

    def feasible(tau: float) -> ValueTable | None:
        table = LaserEngine(q, tau, config).analyze_cw(t)
        return table if table.top.log_value >= threshold + 1e-9 else None

    hi = 1.0
    table_hi = feasible(hi)
    if table_hi is None:
        raise ValueError(f"infeasible even at tau = 1 for q={q}, t={t}")
    lo = 2.0 / 3.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        table = feasible(mid)
        if table is None:
            lo = mid
        else:
            hi, table_hi = mid, table
    cert = certify_table(table_hi)
    certified = cert.all_passed and cert.top_certified_value >= mp.mpf(t) * mp.log(q + 2)
    result = OmegaResult(q=q, t=t, tau_star=hi, omega=3.0 * hi, tol=tol, certified=bool(certified))
    return result, table_hi


@dataclass(frozen=True)
class CertEntryReport:
    key: tuple[int, int, int] | None
    claimed: float
    certified_value: float
    passed: bool


@dataclass(frozen=True)
class CertReport:
    entries: tuple[CertEntryReport, ...]
    top_certified_value: object
    all_passed: bool


def _certify_distribution_bound(
    support: Sequence[Triple],
    log_values: Mapping[Triple, mp.mpf],
    alpha_weights: Mapping[Triple, float | str],
    mults: tuple[Mapping[int, float], Mapping[int, float], Mapping[int, float]],
) -> mp.mpf:
    """Re-evaluate the refined bound in extended precision.

    The stored alpha defines the feasible point; its exact marginals define
    the class, and the stored multipliers give a sound dual upper bound on
    the class's maximum entropy whatever their quality.  An alpha with
    positive weight outside the support certifies nothing: -inf.
    """
    allowed = set(support)
    if any(float(v) > 0 and t not in allowed for t, v in alpha_weights.items()):
        return mp.ninf
    w = {t: mp.mpf(v) for t, v in alpha_weights.items()}
    total = mp.fsum(w.values())
    w = {t: v / total for t, v in w.items()}
    mults = tuple({k: mp.mpf(v) for k, v in side.items()} for side in mults)
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
    with mp.workdps(CERT_DPS):
        tau = mp.mpf(table.metadata["tau"]) if isinstance(table.metadata.get("tau"), str) \
            else mp.mpf(table.tau)
        q = table.q
        certified: dict[ClassKey, mp.mpf] = {}
        reports: list[CertEntryReport] = []

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
            elif entry is None or entry.alpha is None or entry.dual_multipliers is None:
                value = mp.ninf
            else:
                inner: dict[Triple, mp.mpf] = {}
                for child, k1, k2 in _realizable_splits(key):
                    inner[child] = cert_class(k1) + cert_class(k2)
                value = _certify_distribution_bound(
                    sorted(inner), inner, entry.alpha.weights, entry.dual_multipliers
                )
            certified[key] = value
            if entry is not None:
                reports.append(
                    CertEntryReport(
                        key=tuple(key.ijk),
                        claimed=entry.log_value,
                        certified_value=float(value),
                        passed=entry.method == method
                        and bool(value >= mp.mpf(entry.log_value) - CERT_SLACK),
                    )
                )
            return value

        for key in sorted(table.entries):
            cert_class(key)

        top = table.top
        support = top_support(q, table.t)
        log_values = {
            trip: cert_class(ClassKey.make(q, table.t, *trip)) for trip in support
        }
        if top.alpha is not None and top.dual_multipliers is not None:
            top_value = _certify_distribution_bound(
                support, log_values, top.alpha.weights, top.dual_multipliers
            )
        else:
            top_value = max(log_values.values())
        reports.append(
            CertEntryReport(
                key=None,
                claimed=top.log_value,
                certified_value=float(top_value),
                passed=bool(top_value >= mp.mpf(top.log_value) - CERT_SLACK),
            )
        )
        return CertReport(
            entries=tuple(reports),
            top_certified_value=top_value,
            all_passed=all(r.passed for r in reports),
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


def table_to_json(table: ValueTable) -> str:
    entries = []
    for key in sorted(table.entries):
        e = table.entries[key]
        entries.append({
            "I": key.ijk[0], "J": key.ijk[1], "K": key.ijk[2],
            "log_value": decimal_str(e.log_value),
            "method": e.method,
            "heuristic": e.heuristic,
            "gamma": _dist_to_json(e.gamma),
            "alpha": _dist_to_json(e.alpha),
            "dual_multipliers": _mults_to_json(e.dual_multipliers),
            "penalty_log": decimal_str(e.penalty_log),
        })
    top = {
        "log_value": decimal_str(table.top.log_value),
        "heuristic": table.top.heuristic,
        "gamma": _dist_to_json(table.top.gamma),
        "alpha": _dist_to_json(table.top.alpha),
        "dual_multipliers": _mults_to_json(table.top.dual_multipliers),
        "penalty_log": decimal_str(table.top.penalty_log),
    }
    doc = dict(table.metadata)
    doc["entries"] = entries
    doc["top"] = top
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


class SchemaVersionError(ValueError):
    pass


def table_from_json(text: str) -> ValueTable:
    doc = json.loads(text)
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise SchemaVersionError(
            f"schema_version {doc.get('schema_version')} != {SCHEMA_VERSION}"
        )
    q, t = doc["q"], doc["t"]
    tau = float(doc["tau"])
    entries: dict[ClassKey, ValueBound] = {}
    for e in doc["entries"]:
        # Keys at level s have index sum 2s.
        key = ClassKey.make(q, (e["I"] + e["J"] + e["K"]) // 2, e["I"], e["J"], e["K"])
        entries[key] = ValueBound(
            key=key,
            tau=tau,
            log_value=float(e["log_value"]),
            method=e["method"],
            heuristic=e.get("heuristic"),
            alpha=_dist_from_json(e.get("alpha")),
            gamma=_dist_from_json(e.get("gamma")),
            dual_multipliers=_mults_from_json(e.get("dual_multipliers")),
            penalty_log=min(0.0, float(e["penalty_log"])),
        )
    topd = doc["top"]
    top = TopBound(
        log_value=float(topd["log_value"]),
        heuristic=topd.get("heuristic"),
        alpha=_dist_from_json(topd.get("alpha")),
        gamma=_dist_from_json(topd.get("gamma")),
        dual_multipliers=_mults_from_json(topd.get("dual_multipliers")),
        penalty_log=min(0.0, float(topd["penalty_log"])),
    )
    metadata = {k: v for k, v in doc.items() if k not in {"entries", "top"}}
    return ValueTable(q, t, tau, entries, top, metadata)

