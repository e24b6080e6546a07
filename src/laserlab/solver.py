"""Optimization over distributions on a block support.

Two exact programs and two heuristics drive the value bound.  On a fixed
marginal class D_gamma, Problem 2 maximizes entropy and Problem 1 maximizes
the linear-plus-half-entropy trade-off; both optima have Gibbs product form
and are found by iterative proportional fitting in log domain.  The
heuristics search the full simplex for a good marginal class to hand to the
exact programs.

Every quantity that feeds a certified claim is either a feasible point
(valid regardless of optimality) or a dual certificate (valid for arbitrary
multipliers), so solver convergence affects quality, never soundness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .distributions import Marginals, SupportDistribution, bound_terms, marginals, refined_combination
from .tensor_core import Triple

INNER_ITER_CAP = 100_000
KKT_TARGET = 1e-9
IPF_TOL = 1e-12


class InfeasibleMarginalsError(ValueError):
    """No distribution on the support attains the requested marginals."""

    def __init__(self, message: str, best_residual: float = math.inf):
        super().__init__(f"{message} (best residual {best_residual:.3e})")
        self.best_residual = best_residual


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
        if log_values is not None:
            order = sorted(range(len(support)), key=lambda n: support[n])
            self.L = np.array([log_values[n] for n in order], dtype=float)
        else:
            self.L = np.zeros(len(self.triples))

    def side_sums(self, w: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        mx = np.zeros(len(self.x_labels))
        my = np.zeros(len(self.y_labels))
        mz = np.zeros(len(self.z_labels))
        np.add.at(mx, self.ix, w)
        np.add.at(my, self.iy, w)
        np.add.at(mz, self.iz, w)
        return mx, my, mz

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
    tol: float = IPF_TOL,
    max_iter: int = INNER_ITER_CAP,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, float, int]:
    """Iterative proportional fitting of side factors in log domain.

    Fits beta proportional to exp(log_base + mx[i] + my[j] + mz[k]) to the
    target marginals.  Returns (log_beta, mx, my, mz, residual, iterations);
    residual is the max-norm marginal mismatch of the final normalized beta.
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
    for it in range(1, max_iter + 1):
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
        if residual <= tol:
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


def max_entropy_with_marginals(
    support: Iterable[Triple],
    marg: Marginals,
    tol: float = 1e-11,
) -> SolverResult:
    """Problem 2: the entropy maximizer over D_gamma, in product form."""
    arr = _Arrays(list(support))
    log_beta, mx, my, mz, residual, it = _ipf(arr, np.zeros(len(arr.triples)), marg)
    if not residual <= 1e-8:
        raise InfeasibleMarginalsError("IPF failed to match marginals", residual)
    w = np.exp(log_beta)
    obj = _np_entropy(w)
    mults = (
        dict(zip(arr.x_labels, (float(v) for v in mx))),
        dict(zip(arr.y_labels, (float(v) for v in my))),
        dict(zip(arr.z_labels, (float(v) for v in mz))),
    )
    return SolverResult(
        distribution=arr.to_distribution(w),
        objective=obj,
        kkt_residual=residual,
        iterations=it,
        converged=residual <= tol,
        multipliers=mults,
    )


def solve_problem1(
    support: Iterable[Triple],
    log_values: Mapping[Triple, float],
    tau: float,
    marg: Marginals,
    tol: float = 1e-11,
) -> SolverResult:
    """Problem 1: maximize log alpha_V + (1/2) entropy(alpha) over D_gamma.

    alpha_B is constant on the class, so it is dropped from the internal
    objective and the caller adds it back from the marginals.  The optimum
    is alpha proportional to exp(2 L) x_i y_j z_k, fitted by IPF on base
    weights exp(2 L).
    """
    trips = sorted(support)
    arr = _Arrays(trips, [log_values[t] for t in trips])
    log_alpha, mx, my, mz, residual, it = _ipf(arr, 2.0 * arr.L, marg)
    if not residual <= 1e-8:
        raise InfeasibleMarginalsError("IPF failed to match marginals", residual)
    w = np.exp(log_alpha)
    obj = float(np.dot(w, arr.L)) + 0.5 * _np_entropy(w)
    mults = (
        dict(zip(arr.x_labels, (float(v) for v in mx))),
        dict(zip(arr.y_labels, (float(v) for v in my))),
        dict(zip(arr.z_labels, (float(v) for v in mz))),
    )
    return SolverResult(
        distribution=arr.to_distribution(w),
        objective=obj,
        kkt_residual=residual,
        iterations=it,
        converged=residual <= tol,
        multipliers=mults,
    )


def entropy_dual_bound(
    support: Iterable[Triple],
    marg: Marginals,
    multipliers: tuple[Mapping[int, object], Mapping[int, object], Mapping[int, object]],
    num=math,
):
    """Certified upper bound on max entropy over D_gamma.

    For any side multipliers m, every beta with the given marginals
    satisfies H(beta) <= ln sum_S exp(m_i + m_j + m_k) - sum gamma·m
    (Gibbs variational inequality).  Soundness does not require the
    multipliers to be optimal, so unconverged IPF output is acceptable.
    Triples touching a zero-mass label carry no feasible mass and are
    dropped from the partition sum.  A label of positive mass without a
    multiplier leaves only the bound ``num.inf``.  ``num`` is the
    arithmetic: ``math`` for the search, ``mpmath`` for certification.
    """
    gx, gy, gz = marg.as_tuple()
    mx, my, mz = multipliers
    for g, m in ((gx, mx), (gy, my), (gz, mz)):
        if any(p > 0 and lab not in m for lab, p in g.items()):
            return num.inf
    terms = [
        mx[i] + my[j] + mz[k]
        for (i, j, k) in support
        if gx.get(i, 0) > 0 and gy.get(j, 0) > 0 and gz.get(k, 0) > 0
    ]
    if not terms:
        raise InfeasibleMarginalsError("no feasible triple for the marginals", 1.0)
    peak = max(terms)
    log_z = peak + num.log(num.fsum(num.exp(v - peak) for v in terms))
    dot = (
        num.fsum(p * mx[i] for i, p in gx.items() if p > 0)
        + num.fsum(p * my[j] for j, p in gy.items() if p > 0)
        + num.fsum(p * mz[k] for k, p in gz.items() if p > 0)
    )
    return log_z - dot


def _np_entropy(w: np.ndarray) -> float:
    w = w[w > 0.0]
    return float(-np.dot(w, np.log(w)))


def _h2_gradient(arr: _Arrays, w: np.ndarray) -> np.ndarray:
    """Gradient of sum(gamma L) + (1/3) sum of marginal entropies."""
    sx, sy, sz = arr.side_sums(w)
    with np.errstate(divide="ignore"):
        lx, ly, lz = np.log(np.maximum(sx, 1e-300)), np.log(np.maximum(sy, 1e-300)), np.log(np.maximum(sz, 1e-300))
    return arr.L - (lx[arr.ix] + ly[arr.iy] + lz[arr.iz]) / 3.0 - 1.0


def _h2_objective(arr: _Arrays, w: np.ndarray) -> float:
    sx, sy, sz = arr.side_sums(w)
    return float(np.dot(w, arr.L)) + (
        _np_entropy(sx) + _np_entropy(sy) + _np_entropy(sz)
    ) / 3.0


def _h4_gradient(arr: _Arrays, w: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore"):
        lw = np.log(np.maximum(w, 1e-300))
    return _h2_gradient(arr, w) - 0.5 * (lw + 1.0)


def _h4_objective(arr: _Arrays, w: np.ndarray) -> float:
    return _h2_objective(arr, w) + 0.5 * _np_entropy(w)


def _eg_ascent(
    arr: _Arrays,
    w0: np.ndarray,
    objective: Callable[[np.ndarray], float],
    gradient: Callable[[np.ndarray], np.ndarray],
    max_iter: int = INNER_ITER_CAP,
    target: float = KKT_TARGET,
) -> tuple[np.ndarray, float, int]:
    """Exponentiated-gradient ascent on the probability simplex.

    Returns (point, kkt gap, iterations).  The gap is max_S g - <w, g>,
    which for a concave objective upper-bounds the remaining improvement.
    """
    w = w0 / w0.sum()
    step = 0.5
    f = objective(w)
    gap = math.inf
    it = 0
    for it in range(1, max_iter + 1):
        g = gradient(w)
        gap = max(float(np.max(g) - np.dot(w, g)), 0.0)
        if gap <= target:
            break
        shifted = g - np.max(g)
        trial_step = step
        for _ in range(60):
            logw = np.log(np.maximum(w, 1e-300)) + trial_step * shifted
            logw -= logw.max()
            cand = np.exp(logw)
            cand /= cand.sum()
            fc = objective(cand)
            if fc >= f - 1e-15:
                break
            trial_step *= 0.5
        else:
            break
        if fc > f:
            step = min(trial_step * 1.3, 50.0)
        else:
            step = trial_step
        w, f = cand, fc
    return w, gap, it


HEURISTICS = {2: (_h2_objective, _h2_gradient), 4: (_h4_objective, _h4_gradient)}


def heuristic_gamma(
    kind: int,
    support: Iterable[Triple],
    log_values: Mapping[Triple, float],
    tau: float,
    max_iter: int = INNER_ITER_CAP,
) -> SolverResult:
    """One of the two marginal-class search heuristics, from the uniform start.

    2: concave ascent of gamma_V * gamma_B over the simplex.
    4: concave ascent of gamma_V * gamma_B * sqrt(gamma_N).
    """
    if kind not in HEURISTICS:
        raise ValueError(f"unknown heuristic kind {kind}")
    objective, gradient = HEURISTICS[kind]
    trips = sorted(support)
    arr = _Arrays(trips, [log_values[t] for t in trips])
    w, gap, it = _eg_ascent(
        arr, np.full(len(trips), 1.0 / len(trips)),
        lambda v: objective(arr, v), lambda v: gradient(arr, v), max_iter=max_iter,
    )
    return SolverResult(arr.to_distribution(w), objective(arr, w), gap, it, gap <= KKT_TARGET)


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
    best: BoundCandidate
    candidates: tuple[BoundCandidate, ...]
    failures: tuple[str, ...] = ()


def evaluate_gamma(
    support: Sequence[Triple],
    log_values: Mapping[Triple, float],
    tau: float,
    gamma: SupportDistribution,
    heuristic: str,
) -> BoundCandidate:
    """Run Problems 1 and 2 on D_gamma and assemble the refined bound.

    The entropy of the Problem 2 optimum enters only through the dual
    certificate, so the bound is a valid lower bound even if either solve
    stopped short of convergence.
    """
    marg = marginals(gamma)
    p1 = solve_problem1(support, log_values, tau, marg)
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
    tau: float,
    heuristics: Sequence[int] = (2,),
    max_iter: int = INNER_ITER_CAP,
) -> PipelineOutcome:
    """Search for the best refined bound over candidate marginal classes.

    Candidates are the classes found by the requested heuristics and
    always a point mass on the best single triple (a valid zeroing-out
    bound that keeps the pipeline total even when every heuristic fails).
    """
    trips = sorted(support)
    candidates: list[BoundCandidate] = []
    failures: list[str] = []

    best_triple = max(trips, key=lambda t: (log_values[t], t))
    gammas: list[tuple[str, SupportDistribution]] = [
        ("point-mass", SupportDistribution.point_mass(best_triple))
    ]
    for kind in heuristics:
        try:
            res = heuristic_gamma(kind, trips, log_values, tau, max_iter=max_iter)
            gammas.append((f"h{kind}", res.distribution))
        except Exception as exc:  # noqa: BLE001
            failures.append(f"h{kind}: {exc}")

    for name, gamma in gammas:
        try:
            candidates.append(evaluate_gamma(trips, log_values, tau, gamma, name))
        except Exception as exc:  # noqa: BLE001
            failures.append(f"{name}: {exc}")
    if not candidates:
        raise RuntimeError("all pipeline candidates failed: " + "; ".join(failures))
    best = max(candidates, key=lambda c: c.bound_log)
    return PipelineOutcome(best=best, candidates=tuple(candidates), failures=tuple(failures))


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


def grid_scan_problem1(
    support: Sequence[Triple],
    log_values: Mapping[Triple, float],
    base: SupportDistribution,
    steps: int = 2001,
    span: float = 1.0,
) -> tuple[float, np.ndarray]:
    """Brute-force oracle: scan Problem 1's objective along the marginal kernel.

    Only supports kernels of dimension <= 2 (a grid over the coefficients).
    Returns (best objective, best weight vector).
    """
    arr = _Arrays(sorted(support), [log_values[t] for t in sorted(support)])
    basis = kernel_basis(arr.triples)
    if basis.shape[0] > 2:
        raise ValueError(f"kernel dimension {basis.shape[0]} too large for grid scan")
    w0 = np.array([base[t] for t in arr.triples])

    def objective(w: np.ndarray) -> float:
        if np.any(w < -1e-12):
            return -math.inf
        w = np.maximum(w, 0.0)
        return float(np.dot(w, arr.L)) + 0.5 * _np_entropy(w)

    best_f, best_w = objective(w0), w0
    coeffs = np.linspace(-span, span, steps)
    if basis.shape[0] == 0:
        return best_f, best_w
    if basis.shape[0] == 1:
        points = (w0 + c * basis[0] for c in coeffs)
    else:
        points = (w0 + c1 * basis[0] + c2 * basis[1] for c1 in coeffs for c2 in coeffs)
    for w in points:
        f = objective(w)
        if f > best_f:
            best_f, best_w = f, w.copy()
    return best_f, np.maximum(best_w, 0.0)
