"""Optimization over distributions on a block support.

Two exact programs and two heuristics drive the value bound.  On a fixed
marginal class D_gamma, Problem 2 maximizes entropy and Problem 1 maximizes
the linear-plus-half-entropy trade-off; both optima have Gibbs product form
and are found by iterative proportional fitting in log domain.  The
heuristics search the full simplex for a good marginal class to hand to the
exact programs.

Every quantity that feeds a certified claim is either a feasible point
(valid regardless of optimality) or a dual certificate
(``distributions.entropy_dual_bound``, valid for arbitrary multipliers), so
solver convergence affects quality, never soundness.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .distributions import (
    FULL_S3, InfeasibleMarginalsError, Marginals, SupportDistribution, bound_terms,
    entropy_dual_bound, marginals, refined_combination, symmetrize,
)
from .tensor_core import Triple

INNER_ITER_CAP = 100_000
KKT_TARGET = 1e-9
# Accepted ascent steps in a row that leave the objective no higher before
# the ascent counts as stalled.  In ascents that reach the KKT target such
# flat runs are at most about 20 steps long.
STALL_STEPS = 100
# Weight of the uniform distribution in a warm ascent start.  A warm end
# point carries coordinates floored near 1e-300; one that has to grow again
# would climb about 690 nats and stall first.  From 1e-9 the climb is about
# 20 nats.
WARM_MIX = 1e-9
IPF_TOL = 1e-12


@dataclass(frozen=True)
class SolverResult:
    """A solved instance: the point found plus convergence diagnostics."""

    distribution: SupportDistribution
    objective: float
    kkt_residual: float
    iterations: int
    converged: bool
    multipliers: tuple[Mapping[int, float], Mapping[int, float], Mapping[int, float]] | None = None

    def __post_init__(self) -> None:
        if self.kkt_residual < 0:
            raise ValueError("negative kkt residual")


class _Arrays:
    """Numpy view of a support: compact per-side label indices."""

    def __init__(self, support: Sequence[Triple], log_values: Sequence[float] | None = None):
        self.triples = sorted(support)
        if not self.triples:
            raise ValueError("empty support")
        self.x_labels = sorted({i for (i, _, _) in self.triples})
        self.y_labels = sorted({j for (_, j, _) in self.triples})
        self.z_labels = sorted({k for (_, _, k) in self.triples})
        xi = {v: n for n, v in enumerate(self.x_labels)}
        yi = {v: n for n, v in enumerate(self.y_labels)}
        zi = {v: n for n, v in enumerate(self.z_labels)}
        self.ix = np.array([xi[i] for (i, _, _) in self.triples])
        self.iy = np.array([yi[j] for (_, j, _) in self.triples])
        self.iz = np.array([zi[k] for (_, _, k) in self.triples])
        nx, ny, n = len(self.x_labels), len(self.y_labels), len(self.triples)
        # Every (side, label) pair gets one offset label: x, then y, then z.
        self.labels = np.concatenate((self.ix, self.iy + nx, self.iz + nx + ny))
        self.iy_off, self.iz_off = self.labels[n:2 * n], self.labels[2 * n:]
        self.splits = (nx, nx + ny)
        self.n_labels = nx + ny + len(self.z_labels)
        if log_values is not None:
            order = sorted(range(len(support)), key=lambda n: support[n])
            self.L = np.array([log_values[n] for n in order], dtype=float)
        else:
            self.L = np.zeros(len(self.triples))

    def label_sums(self, w: np.ndarray) -> np.ndarray:
        """The side sums of w for all three sides, x then y then z.

        bincount adds in index order from zero, as np.add.at does, so every
        sum has the same bits as a per-side np.add.at.
        """
        return np.bincount(self.labels, weights=np.concatenate((w, w, w)), minlength=self.n_labels)

    def split(self, sums: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        a, b = self.splits
        return sums[:a], sums[a:b], sums[b:]

    def side_sums(self, w: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return self.split(self.label_sums(w))

    def to_distribution(self, w: np.ndarray) -> SupportDistribution:
        return SupportDistribution(
            {t: float(p) for t, p in zip(self.triples, w) if p > 0.0}
        )


def _log_side_sum(idx: np.ndarray, n: int, logits: np.ndarray) -> np.ndarray:
    """Per-label logsumexp of logits on one side, labels given by idx."""
    peak = np.full(n, -np.inf)
    np.maximum.at(peak, idx, logits)
    safe_peak = np.where(np.isfinite(peak), peak, 0.0)
    acc = np.zeros(n)
    np.add.at(acc, idx, np.exp(logits - safe_peak[idx]))
    with np.errstate(divide="ignore"):
        return np.where(acc > 0, safe_peak + np.log(np.maximum(acc, 1e-300)), -np.inf)


def _marginal_targets(arr: _Arrays, marg: Marginals) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    tx = np.array([marg.x_marg.get(v, 0.0) for v in arr.x_labels])
    ty = np.array([marg.y_marg.get(v, 0.0) for v in arr.y_labels])
    tz = np.array([marg.z_marg.get(v, 0.0) for v in arr.z_labels])
    for name, side, labels in (
        ("x", marg.x_marg, arr.x_labels),
        ("y", marg.y_marg, arr.y_labels),
        ("z", marg.z_marg, arr.z_labels),
    ):
        extra = [v for v, p in side.items() if p > IPF_TOL and v not in set(labels)]
        if extra:
            raise InfeasibleMarginalsError(
                f"{name} marginal puts mass on labels {extra} absent from the support", 1.0
            )
    return tx, ty, tz


def _ipf(
    arr: _Arrays,
    log_base: np.ndarray,
    marg: Marginals,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, float, int]:
    """Iterative proportional fitting of side factors in log domain.

    Fits beta proportional to exp(log_base + mx[i] + my[j] + mz[k]) to the
    target marginals, for at most INNER_ITER_CAP sweeps or until the
    residual reaches IPF_TOL.  Returns (log_beta, mx, my, mz, residual,
    iterations); residual is the max-norm marginal mismatch of the final
    normalized beta.
    Labels with zero target mass get multiplier -inf, zeroing their triples.
    """
    tx, ty, tz = _marginal_targets(arr, marg)
    with np.errstate(divide="ignore"):
        ltx, lty, ltz = np.log(tx), np.log(ty), np.log(tz)
    mx = np.zeros_like(tx)
    my = np.zeros_like(ty)
    mz = np.zeros_like(tz)
    mx[tx == 0.0] = -np.inf
    my[ty == 0.0] = -np.inf
    mz[tz == 0.0] = -np.inf

    def logits() -> np.ndarray:
        with np.errstate(invalid="ignore"):
            raw = log_base + mx[arr.ix] + my[arr.iy] + mz[arr.iz]
        return np.where(np.isnan(raw), -np.inf, raw)

    residual = math.inf
    it = 0
    for it in range(1, INNER_ITER_CAP + 1):
        lg = logits()
        if not np.any(np.isfinite(lg)):
            raise InfeasibleMarginalsError("all support triples forced to zero", 1.0)
        sx = _log_side_sum(arr.ix, tx.size, lg)
        with np.errstate(invalid="ignore"):
            mx = np.where(tx > 0, mx + ltx - sx, -np.inf)
        sy = _log_side_sum(arr.iy, ty.size, logits())
        with np.errstate(invalid="ignore"):
            my = np.where(ty > 0, my + lty - sy, -np.inf)
        sz = _log_side_sum(arr.iz, tz.size, logits())
        with np.errstate(invalid="ignore"):
            mz = np.where(tz > 0, mz + ltz - sz, -np.inf)

        lg = logits()
        total = _logsumexp(lg)
        w = np.exp(lg - total)
        cx, cy, cz = arr.side_sums(w)
        residual = max(
            float(np.max(np.abs(cx - tx))),
            float(np.max(np.abs(cy - ty))),
            float(np.max(np.abs(cz - tz))),
        )
        if residual <= IPF_TOL:
            break
    lg = logits()
    lg = lg - _logsumexp(lg)
    return lg, mx, my, mz, residual, it


def _logsumexp(v: np.ndarray) -> float:
    finite = v[np.isfinite(v)]
    if finite.size == 0:
        return -math.inf
    peak = float(np.max(finite))
    return peak + math.log(float(np.sum(np.exp(finite - peak))))


def _fit(
    arr: _Arrays,
    log_base: np.ndarray,
    marg: Marginals,
    tol: float,
    objective: Callable[[np.ndarray], float],
) -> SolverResult:
    """IPF on base weights exp(log_base), accepted at residual 1e-8; the
    point, ``objective`` at it and the side multipliers."""
    log_w, mx, my, mz, residual, it = _ipf(arr, log_base, marg)
    if not residual <= 1e-8:
        raise InfeasibleMarginalsError("IPF failed to match marginals", residual)
    w = np.exp(log_w)
    mults = tuple(
        dict(zip(labels, (float(v) for v in m)))
        for labels, m in ((arr.x_labels, mx), (arr.y_labels, my), (arr.z_labels, mz))
    )
    return SolverResult(
        distribution=arr.to_distribution(w),
        objective=objective(w),
        kkt_residual=residual,
        iterations=it,
        converged=residual <= tol,
        multipliers=mults,
    )


def max_entropy_with_marginals(
    support: Iterable[Triple],
    marg: Marginals,
    tol: float = 1e-11,
) -> SolverResult:
    """Problem 2: the entropy maximizer over D_gamma, in product form."""
    arr = _Arrays(list(support))
    return _fit(arr, np.zeros(len(arr.triples)), marg, tol, _np_entropy)


def solve_problem1(
    support: Iterable[Triple],
    log_values: Mapping[Triple, float],
    tau: float | None,
    marg: Marginals,
    tol: float = 1e-11,
) -> SolverResult:
    """Problem 1: maximize log alpha_V + (1/2) entropy(alpha) over D_gamma.

    alpha_B is constant on the class, so it is dropped from the internal
    objective and the caller adds it back from the marginals.  ``tau`` is
    not read: the class values already carry it.  The optimum
    is alpha proportional to exp(2 L) x_i y_j z_k, fitted by IPF on base
    weights exp(2 L).
    """
    trips = sorted(support)
    arr = _Arrays(trips, [log_values[t] for t in trips])
    return _fit(
        arr, 2.0 * arr.L, marg, tol, lambda w: float(np.dot(w, arr.L)) + 0.5 * _np_entropy(w)
    )


def _np_entropy(w: np.ndarray) -> float:
    w = w[w > 0.0]
    return float(-np.dot(w, np.log(w)))


def _h2_gradient(arr: _Arrays, w: np.ndarray, sums: np.ndarray, log_sums: np.ndarray) -> np.ndarray:
    """Gradient of sum(gamma L) + (1/3) sum of marginal entropies.

    ``sums`` are w's label sums and ``log_sums`` their floored logs (see
    ``_floored_log``).
    """
    return arr.L - (log_sums[arr.ix] + log_sums[arr.iy_off] + log_sums[arr.iz_off]) / 3.0 - 1.0


def _h2_objective(arr: _Arrays, w: np.ndarray, sums: np.ndarray, log_sums: np.ndarray) -> float:
    sx, sy, sz = arr.split(sums)
    if sums.min() >= 1e-300:
        # The floor is inactive, so log_sums are the logs _np_entropy takes.
        lx, ly, lz = arr.split(log_sums)
        entropies = -float(np.dot(sx, lx)) - float(np.dot(sy, ly)) - float(np.dot(sz, lz))
    else:
        entropies = _np_entropy(sx) + _np_entropy(sy) + _np_entropy(sz)
    return float(np.dot(w, arr.L)) + entropies / 3.0


def _h4_gradient(arr: _Arrays, w: np.ndarray, sums: np.ndarray, log_sums: np.ndarray) -> np.ndarray:
    lw = np.log(np.maximum(w, 1e-300))
    return _h2_gradient(arr, w, sums, log_sums) - 0.5 * (lw + 1.0)


def _h4_objective(arr: _Arrays, w: np.ndarray, sums: np.ndarray, log_sums: np.ndarray) -> float:
    return _h2_objective(arr, w, sums, log_sums) + 0.5 * _np_entropy(w)


def _floored_log(sums: np.ndarray) -> np.ndarray:
    """log of the label sums; the 1e-300 floor keeps every log finite."""
    return np.log(np.maximum(sums, 1e-300))


def _eg_ascent(
    arr: _Arrays,
    w0: np.ndarray,
    objective: Callable[[_Arrays, np.ndarray, np.ndarray, np.ndarray], float],
    gradient: Callable[[_Arrays, np.ndarray, np.ndarray, np.ndarray], np.ndarray],
    max_iter: int = INNER_ITER_CAP,
    target: float = KKT_TARGET,
) -> tuple[np.ndarray, float, int]:
    """Exponentiated-gradient ascent on the probability simplex.

    Returns (point, kkt gap, iterations).  The gap is max_S g - <w, g>,
    which for a concave objective upper-bounds the remaining improvement.
    Label sums and their logs are computed once per point and shared by
    the objective and the gradient.

    The line search accepts a step that lowers f by up to 1e-15.  Once
    STALL_STEPS accepted steps in a row leave f no higher (a strict gain
    resets the count), f has reached its rounding floor short of the KKT
    target: the ascent stops there and returns the current point and the
    last gap computed, which is above the target.
    """
    w = w0 / w0.sum()
    step = 0.5
    sums = arr.label_sums(w)
    logs = _floored_log(sums)
    f = objective(arr, w, sums, logs)
    gap = math.inf
    it = 0
    flat = 0
    for it in range(1, max_iter + 1):
        g = gradient(arr, w, sums, logs)
        g_max = g.max()
        gap = max(float(g_max - np.dot(w, g)), 0.0)
        if gap <= target:
            break
        shifted = g - g_max
        log_w = np.log(np.maximum(w, 1e-300))
        trial_step = step
        for _ in range(60):
            logw = log_w + trial_step * shifted
            logw -= logw.max()
            cand = np.exp(logw)
            cand /= cand.sum()
            cand_sums = arr.label_sums(cand)
            cand_logs = _floored_log(cand_sums)
            fc = objective(arr, cand, cand_sums, cand_logs)
            if fc >= f - 1e-15:
                break
            trial_step *= 0.5
        else:
            break
        if fc > f:
            step = min(trial_step * 1.3, 50.0)
            flat = 0
        else:
            step = trial_step
            flat += 1
        w, f, sums, logs = cand, fc, cand_sums, cand_logs
        if flat >= STALL_STEPS:
            break
    return w, gap, it


HEURISTICS = {2: (_h2_objective, _h2_gradient), 4: (_h4_objective, _h4_gradient)}


def heuristic_gamma(
    kind: int,
    support: Iterable[Triple],
    log_values: Mapping[Triple, float],
    max_iter: int = INNER_ITER_CAP,
    start: SupportDistribution | None = None,
) -> SolverResult:
    """One of the two marginal-class search heuristics.

    2: concave ascent of gamma_V * gamma_B over the simplex.
    4: concave ascent of gamma_V * gamma_B * sqrt(gamma_N).

    The ascent starts from the uniform distribution, or, given a ``start``
    on the support, from (1 - WARM_MIX) start + WARM_MIX uniform.
    """
    if kind not in HEURISTICS:
        raise ValueError(f"unknown heuristic kind {kind}")
    objective, gradient = HEURISTICS[kind]
    trips = sorted(support)
    arr = _Arrays(trips, [log_values[t] for t in trips])
    w0 = np.full(len(trips), 1.0 / len(trips))
    if start is not None:
        w0 = (1.0 - WARM_MIX) * np.array([start[t] for t in trips]) + WARM_MIX * w0
    w, gap, it = _eg_ascent(arr, w0, objective, gradient, max_iter=max_iter)
    sums = arr.label_sums(w)
    return SolverResult(
        arr.to_distribution(w), objective(arr, w, sums, _floored_log(sums)), gap, it,
        gap <= KKT_TARGET,
    )


@dataclass(frozen=True)
class BoundCandidate:
    """One marginal class pushed through Problems 1 and 2, with its bound."""

    heuristic: str
    gamma: SupportDistribution
    alpha: SupportDistribution
    log_alpha_V: float
    log_alpha_B: float
    log_alpha_N: float
    max_log_beta_N: float
    bound_log: float
    dual_multipliers: tuple[Mapping[int, float], Mapping[int, float], Mapping[int, float]] | None
    kkt_residual: float


@dataclass(frozen=True)
class PipelineOutcome:
    """The best candidate, all candidates, and each heuristic's end point."""

    best: BoundCandidate
    candidates: tuple[BoundCandidate, ...]
    failures: tuple[str, ...] = ()
    ascents: dict[int, SupportDistribution] = field(default_factory=dict)


def evaluate_gamma(
    support: Sequence[Triple],
    log_values: Mapping[Triple, float],
    gamma: SupportDistribution,
    heuristic: str,
) -> BoundCandidate:
    """Run Problems 1 and 2 on D_gamma and assemble the refined bound.

    The entropy of the Problem 2 optimum enters only through the dual
    certificate, so the bound is a valid lower bound even if either solve
    stopped short of convergence.
    """
    marg = marginals(gamma)
    p1 = solve_problem1(support, log_values, None, marg)
    p2 = max_entropy_with_marginals(support, marg)
    dual = entropy_dual_bound(support, marg, p2.multipliers)
    alpha = p1.distribution
    log_v, log_b, log_n = bound_terms(alpha.weights, marg, log_values)
    max_log_bn = max(dual, log_n)
    bound = refined_combination(log_v, log_b, log_n, dual)
    return BoundCandidate(
        heuristic=heuristic,
        gamma=gamma,
        alpha=alpha,
        log_alpha_V=log_v,
        log_alpha_B=log_b,
        log_alpha_N=log_n,
        max_log_beta_N=max_log_bn,
        bound_log=bound,
        dual_multipliers=p2.multipliers,
        kkt_residual=max(p1.kkt_residual, p2.kkt_residual),
    )


def full_pipeline_gamma(
    support: Iterable[Triple],
    log_values: Mapping[Triple, float],
    heuristics: Sequence[int] = (2,),
    max_iter: int = INNER_ITER_CAP,
    starts: Mapping[int, SupportDistribution] | None = None,
) -> PipelineOutcome:
    """Search for the best refined bound over candidate marginal classes.

    Candidates are the classes found by the requested heuristics and
    always a point mass on the best single triple (a valid zeroing-out
    bound that keeps the pipeline total even when every heuristic fails).
    When the support and its values are unchanged by the six role
    permutations, the S3-symmetrized best class is feasible too and is
    tried last, so it wins only with a strictly higher bound.  That holds
    at the top of CW_q^t and for no recursion class: it would need
    I = J = K with I + J + K = 2t, and 3 does not divide 2t for t a power
    of two (no class of CW_q^t with q <= 7, t <= 32 has an S3-stable
    inner support).
    ``starts`` maps a heuristic kind to its warm start; the outcome's
    ``ascents`` holds each heuristic's end point, keyed the same way.
    """
    trips = sorted(support)
    candidates: list[BoundCandidate] = []
    failures: list[str] = []
    ascents: dict[int, SupportDistribution] = {}
    starts = starts or {}

    def evaluate(name: str, gamma: SupportDistribution) -> None:
        try:
            candidates.append(evaluate_gamma(trips, log_values, gamma, name))
        except Exception as exc:  # noqa: BLE001
            failures.append(f"{name}: {exc}")

    best_triple = max(trips, key=lambda t: (log_values[t], t))
    gammas: list[tuple[str, SupportDistribution]] = [
        ("point-mass", SupportDistribution.point_mass(best_triple))
    ]
    for kind in heuristics:
        try:
            res = heuristic_gamma(
                kind, trips, log_values, max_iter=max_iter, start=starts.get(kind)
            )
            gammas.append((f"h{kind}", res.distribution))
            ascents[kind] = res.distribution
        except Exception as exc:  # noqa: BLE001
            failures.append(f"h{kind}: {exc}")

    for name, gamma in gammas:
        evaluate(name, gamma)
    if not candidates:
        raise RuntimeError("all pipeline candidates failed: " + "; ".join(failures))
    best = max(candidates, key=lambda c: c.bound_log)
    allowed = set(trips)
    if all(
        p in allowed and log_values[p] == log_values[t]
        for t in trips for p in itertools.permutations(t)
    ):
        evaluate(best.heuristic + "+sym", symmetrize(best.gamma, FULL_S3, trips))
        best = max(candidates, key=lambda c: c.bound_log)
    return PipelineOutcome(
        best=best, candidates=tuple(candidates), failures=tuple(failures), ascents=ascents
    )


def kernel_basis(support: Sequence[Triple]) -> np.ndarray:
    """Orthonormal basis of the kernel of the marginal map on the support.

    Rows of the constraint matrix are the per-label indicator sums on each
    side plus the total-mass constraint; the kernel is the set of mass-
    preserving perturbations that leave all marginals fixed.  Used by the
    brute-force oracles in the tests.
    """
    arr = _Arrays(list(support))
    n = len(arr.triples)
    rows = []
    for idx, count in ((arr.ix, len(arr.x_labels)), (arr.iy, len(arr.y_labels)), (arr.iz, len(arr.z_labels))):
        for lab in range(count):
            rows.append((idx == lab).astype(float))
    rows.append(np.ones(n))
    a = np.array(rows)
    _, s, vt = np.linalg.svd(a)
    rank = int(np.sum(s > 1e-10))
    return vt[rank:]
