import itertools
import math

import numpy as np
import pytest

from laserlab.distributions import Marginals, SupportDistribution, entropy, marginals
from laserlab import solver
from laserlab.solver import (
    InfeasibleMarginalsError,
    _Arrays,
    _np_entropy,
    entropy_dual_bound,
    evaluate_gamma,
    full_pipeline_gamma,
    heuristic_gamma,
    kernel_basis,
    max_entropy_with_marginals,
    solve_problem1,
)

TOY = tuple(sorted(itertools.permutations((0, 1, 2))))
TOY_UNIFORM_MARG = marginals(SupportDistribution.uniform(TOY))


def grid_scan_problem1(support, log_values, base, steps, span):
    """Brute-force oracle: scan Problem 1's objective along a one-dimensional
    marginal kernel around ``base``.  Returns the best objective."""
    arr = _Arrays(sorted(support), [log_values[t] for t in sorted(support)])
    (direction,) = kernel_basis(arr.triples)
    w0 = np.array([base[t] for t in arr.triples])
    best = -math.inf
    for c in np.linspace(-span, span, steps):
        w = w0 + c * direction
        if np.all(w >= -1e-12):
            w = np.maximum(w, 0.0)
            best = max(best, float(np.dot(w, arr.L)) + 0.5 * _np_entropy(w))
    return best


def test_problem2_toy_uniform():
    res = max_entropy_with_marginals(TOY, TOY_UNIFORM_MARG)
    assert res.converged
    assert math.isclose(res.objective, math.log(6), rel_tol=1e-12)
    for t in TOY:
        assert math.isclose(res.distribution[t], 1 / 6, rel_tol=1e-9)


def test_problem2_product_form():
    rng = np.random.default_rng(3)
    support = TOY
    alpha = SupportDistribution(dict(zip(support, rng.dirichlet(np.ones(6)))))
    res = max_entropy_with_marginals(support, marginals(alpha))
    mx, my, mz = res.multipliers
    for (i, j, k) in support:
        p = res.distribution[(i, j, k)]
        if p > 1e-12:
            assert math.isclose(p, math.exp(mx[i] + my[j] + mz[k]), rel_tol=1e-7)


def test_problem2_point_mass_marginals():
    pm = SupportDistribution.point_mass((0, 1, 2))
    res = max_entropy_with_marginals(TOY, marginals(pm))
    assert math.isclose(res.objective, 0.0, abs_tol=1e-10)
    assert math.isclose(res.distribution[(0, 1, 2)], 1.0, rel_tol=1e-10)


def test_infeasible_marginals_raise():
    bad = Marginals({0: 1.0}, {0: 1.0}, {0: 0.5, 5: 0.5})
    with pytest.raises((InfeasibleMarginalsError, KeyError)):
        max_entropy_with_marginals(TOY, bad)


def test_dual_bound_tight_at_optimum():
    res = max_entropy_with_marginals(TOY, TOY_UNIFORM_MARG)
    dual = entropy_dual_bound(TOY, TOY_UNIFORM_MARG, res.multipliers)
    assert dual >= res.objective - 1e-12
    assert math.isclose(dual, res.objective, abs_tol=1e-9)


def test_dual_bound_sound_for_arbitrary_multipliers():
    rng = np.random.default_rng(11)
    for _ in range(200):
        alpha = SupportDistribution(dict(zip(TOY, rng.dirichlet(np.ones(6) * 0.7))))
        marg = marginals(alpha)
        mults = tuple(
            {lab: float(rng.normal(scale=2.0)) for lab in side}
            for side in (marg.x_marg, marg.y_marg, marg.z_marg)
        )
        dual = entropy_dual_bound(TOY, marg, mults)
        # Any feasible distribution's entropy is below the dual value;
        # alpha itself is feasible.
        assert dual >= entropy(alpha.weights.values()) - 1e-12


def test_problem1_matches_grid_oracle_on_toy():
    rng = np.random.default_rng(7)
    lv = {t: float(rng.normal(scale=0.5)) for t in TOY}
    alpha = SupportDistribution(dict(zip(TOY, rng.dirichlet(np.ones(6)))))
    res = solve_problem1(TOY, lv, 0.8, marginals(alpha))
    assert res.converged
    oracle = grid_scan_problem1(TOY, lv, res.distribution, steps=4001, span=0.5)
    assert res.objective >= oracle - 1e-9
    assert math.isclose(res.objective, oracle, abs_tol=1e-7)


def test_kernel_dimension_on_toy():
    assert kernel_basis(TOY).shape[0] == 1


@pytest.mark.parametrize("kind", [2, 4])
def test_heuristics_return_feasible_gamma(kind):
    rng = np.random.default_rng(1)
    lv = {t: float(rng.normal(scale=0.3)) for t in TOY}
    res = heuristic_gamma(kind, TOY, lv, max_iter=3000)
    w = [res.distribution[t] for t in TOY]
    assert math.isclose(sum(w), 1.0, abs_tol=1e-9)
    assert all(p >= -1e-15 for p in w)
    assert res.kkt_residual >= 0.0


def test_h2_converges_on_toy():
    lv = {t: 0.0 for t in TOY}
    res = heuristic_gamma(2, TOY, lv)
    assert res.kkt_residual <= 1e-9


def test_evaluate_gamma_uniform_toy():
    lv = {t: 0.0 for t in TOY}
    cand = evaluate_gamma(TOY, lv, SupportDistribution.uniform(TOY), "uniform")
    # Problem 1 keeps alpha uniform (alpha_N = 6), the dual confirms
    # max beta_N = 6, so the penalty vanishes and the bound is alpha_B = 3.
    assert math.isclose(cand.bound_log, math.log(3), abs_tol=1e-9)


def test_full_pipeline_includes_point_mass_and_orders():
    rng = np.random.default_rng(2)
    lv = {t: float(rng.normal(scale=0.2)) for t in TOY}
    out = full_pipeline_gamma(TOY, lv, heuristics=(2, 4), max_iter=2000)
    names = {c.heuristic for c in out.candidates}
    assert "point-mass" in names
    point = next(c for c in out.candidates if c.heuristic == "point-mass")
    assert out.best.bound_log >= point.bound_log - 1e-12
    # The point-mass bound is the best single log-value (zeroing out).
    assert math.isclose(point.bound_log, max(lv.values()), abs_tol=1e-9)


def test_full_pipeline_symmetrizes_only_role_symmetric_values():
    equal = full_pipeline_gamma(TOY, {t: 0.0 for t in TOY}, max_iter=2000)
    assert [c.heuristic for c in equal.candidates] == ["point-mass", "h2", "h2+sym"]
    rng = np.random.default_rng(2)
    lv = {t: float(rng.normal(scale=0.2)) for t in TOY}
    rand = full_pipeline_gamma(TOY, lv, max_iter=2000)
    assert not any(c.heuristic.endswith("+sym") for c in rand.candidates)


def test_failed_symmetrized_candidate_is_a_failure(monkeypatch):
    real = solver.evaluate_gamma

    def evaluate(support, log_values, gamma, heuristic):
        if heuristic.endswith("+sym"):
            raise InfeasibleMarginalsError("boom", 1.0)
        return real(support, log_values, gamma, heuristic)

    monkeypatch.setattr(solver, "evaluate_gamma", evaluate)
    out = full_pipeline_gamma(TOY, {t: 0.0 for t in TOY}, max_iter=2000)
    assert [f.split(":")[0] for f in out.failures] == ["h2+sym"]
    assert out.best.heuristic == "h2"
