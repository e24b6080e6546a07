import itertools
import math

import numpy as np
import pytest

from laserlab.distributions import (
    CYCLIC_GROUP,
    FULL_S3,
    SupportDistribution,
    derived,
    entropy,
    marginals,
    ratio_drift_check,
    round_to_grid,
    symmetrize,
)

TOY = tuple(sorted(itertools.permutations((0, 1, 2))))


def test_entropy_basics():
    assert entropy([1.0]) == 0.0
    assert math.isclose(entropy([0.5, 0.5]), math.log(2), rel_tol=1e-15)
    assert math.isclose(entropy([1 / 6] * 6), math.log(6), rel_tol=1e-14)
    assert entropy([1.0, 0.0]) == 0.0  # 0 log 0 = 0


def test_distribution_normalizes_and_validates():
    d = SupportDistribution({(0, 0, 0): 0.5 + 1e-10, (1, 1, 1): 0.5})
    assert math.isclose(sum(d.weights.values()), 1.0, abs_tol=1e-15)
    with pytest.raises(ValueError):
        SupportDistribution({(0, 0, 0): 0.7, (1, 1, 1): 0.2})
    with pytest.raises(ValueError):
        SupportDistribution({(0, 0, 0): -0.1, (1, 1, 1): 1.1})


def test_point_mass_and_uniform():
    pm = SupportDistribution.point_mass((1, 2, 3))
    assert pm[(1, 2, 3)] == 1.0
    u = SupportDistribution.uniform(TOY)
    assert all(math.isclose(u[t], 1 / 6) for t in TOY)


def test_marginals_sum_to_one():
    u = SupportDistribution.uniform(TOY)
    m = marginals(u)
    for side in (m.x_marg, m.y_marg, m.z_marg):
        assert math.isclose(sum(side.values()), 1.0, abs_tol=1e-14)
        assert all(math.isclose(p, 1 / 3) for p in side.values())


def test_derived_on_toy():
    u = SupportDistribution.uniform(TOY)
    d = derived(u, {t: 0.0 for t in TOY}, tau=0.8)
    assert math.isclose(d.log_alpha_V, 0.0, abs_tol=1e-15)
    assert math.isclose(d.log_alpha_N, math.log(6), rel_tol=1e-14)
    assert math.isclose(d.log_alpha_B, math.log(3), rel_tol=1e-14)


def test_round_to_grid_postconditions_small():
    d = SupportDistribution({(0, 0, 0): 0.26, (1, 1, 1): 0.33, (2, 2, 2): 0.41})
    r = round_to_grid(d, 10)
    scaled = [r[t] * 10 for t in r.support]
    assert all(abs(s - round(s)) < 1e-9 for s in scaled)
    assert math.isclose(sum(r.weights.values()), 1.0, abs_tol=1e-12)
    assert all(abs(r[t] - d[t]) <= 1 / 10 + 1e-12 for t in d.support)


def test_round_to_grid_deterministic_tiebreak():
    d = SupportDistribution({(0, 0, 0): 0.25, (0, 0, 1): 0.25,
                             (0, 1, 0): 0.25, (1, 0, 0): 0.25})
    r1 = round_to_grid(d, 6)
    r2 = round_to_grid(d, 6)
    assert r1.weights == r2.weights


def test_round_to_grid_rejects_tiny_grid():
    d = SupportDistribution.uniform(TOY)
    with pytest.raises(ValueError):
        round_to_grid(d, 3)


def test_ratio_drift_within_threshold():
    rng = np.random.default_rng(5)
    lv = {t: float(rng.normal()) for t in TOY}
    for _ in range(50):
        w = rng.dirichlet(np.ones(6))
        d = SupportDistribution(dict(zip(TOY, w)))
        n = int(rng.integers(6, 500))
        rep = ratio_drift_check(d, round_to_grid(d, n), lv, 0.8, n)
        assert rep.within_threshold, rep


def test_symmetrize_cyclic_orbit():
    pm = SupportDistribution.point_mass((0, 1, 2))
    sym = symmetrize(pm, group=CYCLIC_GROUP, support=TOY)
    assert set(sym.support) == {(0, 1, 2), (1, 2, 0), (2, 0, 1)}
    assert all(math.isclose(p, 1 / 3) for p in sym.weights.values())


def test_symmetrize_full_s3_uniformizes_toy():
    pm = SupportDistribution.point_mass((0, 1, 2))
    sym = symmetrize(pm, group=FULL_S3, support=TOY)
    assert all(math.isclose(sym[t], 1 / 6) for t in TOY)


def test_symmetrize_rejects_unstable_support():
    pm = SupportDistribution.point_mass((0, 1, 2))
    with pytest.raises(ValueError):
        symmetrize(pm, group=FULL_S3, support=((0, 1, 2), (1, 2, 0)))


def test_symmetrize_fixes_invariant_distribution():
    u = SupportDistribution.uniform(TOY)
    sym = symmetrize(u, group=FULL_S3, support=TOY)
    for t in TOY:
        assert math.isclose(sym[t], u[t], rel_tol=1e-14)
