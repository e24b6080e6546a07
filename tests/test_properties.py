"""Property tests for the shared dual certificate, the refined-bound terms
and the solver's side sums.

The float (``math``) and extended-precision (``mpmath``) evaluations run
the same code, so they must agree; the dual must bound the entropy of the
max-entropy point of its class for any finite multipliers.  The ascent's
shared-log objective must give the bits of the masked entropies, and its
stall stop must change nothing but where a flat ascent ends.  A warm
ascent start must reach the objective of the cold one.  Symmetrizing must
give an S3-invariant distribution with each orbit's mass kept, and the
closed-form realizability test of a class must agree with the explicit
tensor power and with its definition as a sum of block triples.  Rounding
to the 1/n grid must keep each weight within 1/n and the total at 1.
"""

import itertools
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from laserlab.distributions import (
    FULL_S3, SupportDistribution, _permute, bound_terms, entropy, marginals, round_to_grid,
    symmetrize,
)
from laserlab.laser_engine import CERT_DPS, EngineConfig, _certify_bound, _recursion_bound
from laserlab.solver import (
    HEURISTICS, KKT_TARGET, STALL_STEPS, _Arrays, _eg_ascent, _floored_log, _h2_objective,
    _h4_objective, _np_entropy, entropy_dual_bound, evaluate_gamma, heuristic_gamma,
    max_entropy_with_marginals,
)
from laserlab.tensor_core import (
    build_cw, class_is_realizable, enumerate_class_supports, grade_power, support_block_triples,
    top_support,
)

CUBE = list(itertools.product(range(3), repeat=3))


@st.composite
def weighted_supports(draw):
    """A small support with positive integer weights, normalised."""
    support = sorted(draw(st.sets(st.sampled_from(CUBE), min_size=1, max_size=6)))
    counts = draw(st.lists(st.integers(1, 20), min_size=len(support), max_size=len(support)))
    total = sum(counts)
    return support, SupportDistribution({t: c / total for t, c in zip(support, counts)})


finite = st.floats(-5.0, 5.0, allow_nan=False, allow_infinity=False)


def _multipliers(draw, marg):
    return tuple(
        {lab: draw(finite) for lab in side} for side in marg.as_tuple()
    )


def _to_mp(mults):
    return tuple({k: mp.mpf(v) for k, v in side.items()} for side in mults)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_dual_bounds_max_entropy_point_for_any_multipliers(data):
    support, gamma = data.draw(weighted_supports())
    marg = marginals(gamma)
    beta = max_entropy_with_marginals(support, marg).distribution
    mults = _multipliers(data.draw, marg)
    dual = entropy_dual_bound(support, marg, mults)
    assert dual >= entropy(beta.weights.values()) - 1e-9


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_math_and_mpmath_backends_agree(data):
    support, gamma = data.draw(weighted_supports())
    marg = marginals(gamma)
    mults = _multipliers(data.draw, marg)
    log_values = {t: data.draw(finite) for t in support}
    with mp.workdps(CERT_DPS):
        dual_mp = entropy_dual_bound(support, marg, _to_mp(mults), num=mp)
        terms_mp = bound_terms(gamma.weights, marg, log_values, num=mp)
    assert abs(entropy_dual_bound(support, marg, mults) - float(dual_mp)) <= 1e-12
    for a, b in zip(bound_terms(gamma.weights, marg, log_values), terms_mp):
        assert abs(a - float(b)) <= 1e-12


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_search_bound_matches_certified_bound(data):
    support, gamma = data.draw(weighted_supports())
    log_values = {t: data.draw(finite) for t in support}
    cand = evaluate_gamma(support, log_values, gamma, "h2")
    with mp.workdps(CERT_DPS):
        certified = _certify_bound(
            _recursion_bound(None, cand), {t: mp.mpf(v) for t, v in log_values.items()}
        )
    # The search takes ln alpha_B and the dual's class from gamma's
    # marginals, the certifier from alpha's; they differ by the IPF
    # residual, which moves each marginal term to first order.
    marg = marginals(gamma)
    scale = sum(
        (abs(math.log(p)) + 1) / 3 + abs(m[lab])
        for side, m in zip(marg.as_tuple(), cand.dual_multipliers)
        for lab, p in side.items()
        if p > 0
    )
    tol = 1e-12 + scale * cand.kkt_residual
    assert abs(cand.bound_log - float(certified)) <= tol


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_side_sums_match_add_at_bit_for_bit(data):
    support = sorted(data.draw(st.sets(
        st.tuples(st.integers(0, 8), st.integers(0, 8), st.integers(0, 8)),
        min_size=1, max_size=45,
    )))
    w = np.array(data.draw(st.lists(
        st.floats(0.0, 1.0, allow_nan=False, allow_subnormal=True),
        min_size=len(support), max_size=len(support),
    )))
    arr = _Arrays(support)
    for idx, labels, got in zip((arr.ix, arr.iy, arr.iz),
                                (arr.x_labels, arr.y_labels, arr.z_labels),
                                arr.side_sums(w)):
        want = np.zeros(len(labels))
        np.add.at(want, idx, w)
        assert got.tobytes() == want.tobytes()


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_shared_log_objective_matches_masked_entropy_bit_for_bit(data):
    support = sorted(data.draw(st.sets(
        st.tuples(st.integers(0, 8), st.integers(0, 8), st.integers(0, 8)),
        min_size=1, max_size=45,
    )))
    # Exact zeros and weights below the 1e-300 floor give label sums where
    # the objective falls back to the masked entropies.
    weight = st.one_of(
        st.sampled_from([0.0, 5e-324, 1e-310, 1e-301]),
        st.floats(0.0, 1.0, allow_nan=False, allow_subnormal=True),
    )
    w = np.array(data.draw(st.lists(weight, min_size=len(support), max_size=len(support))))
    arr = _Arrays(support, data.draw(st.lists(finite, min_size=len(support),
                                              max_size=len(support))))
    sums = arr.label_sums(w)
    sx, sy, sz = arr.split(sums)
    masked = float(np.dot(w, arr.L)) + (_np_entropy(sx) + _np_entropy(sy) + _np_entropy(sz)) / 3.0
    got = _h2_objective(arr, w, sums, _floored_log(sums))
    assert np.float64(got).tobytes() == np.float64(masked).tobytes()
    got4 = _h4_objective(arr, w, sums, _floored_log(sums))
    assert np.float64(got4).tobytes() == np.float64(masked + 0.5 * _np_entropy(w)).tobytes()


def _eg_ascent_without_stall_stop(arr, w0, objective, gradient, max_iter):
    """_eg_ascent with no stall stop, which also returns its longest run of
    accepted steps that left the objective no higher."""
    w = w0 / w0.sum()
    step = 0.5
    sums = arr.label_sums(w)
    logs = _floored_log(sums)
    f = objective(arr, w, sums, logs)
    gap = math.inf
    it = flat = longest = 0
    for it in range(1, max_iter + 1):
        g = gradient(arr, w, sums, logs)
        g_max = g.max()
        gap = max(float(g_max - np.dot(w, g)), 0.0)
        if gap <= KKT_TARGET:
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
            longest = max(longest, flat)
        w, f, sums, logs = cand, fc, cand_sums, cand_logs
    return w, gap, it, longest


def _check_stall_stop(support, log_values, kind):
    """Compare _eg_ascent with the copy without the stall stop; return the
    copy's longest flat run."""
    arr = _Arrays(support, log_values)
    objective, gradient = HEURISTICS[kind]
    w0 = np.full(len(support), 1.0 / len(support))
    w, gap, it = _eg_ascent(arr, w0, objective, gradient, max_iter=2000)
    ref_w, ref_gap, ref_it, longest = _eg_ascent_without_stall_stop(
        arr, w0, objective, gradient, max_iter=2000)
    if longest < STALL_STEPS:
        assert (w.tobytes(), gap, it) == (ref_w.tobytes(), ref_gap, ref_it)
    # Either way the stop ends the same path, no later than without it.
    cut_w, cut_gap, cut_it, _ = _eg_ascent_without_stall_stop(
        arr, w0, objective, gradient, max_iter=it)
    assert (w.tobytes(), gap, it) == (cut_w.tobytes(), cut_gap, cut_it)
    return longest


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_stall_stop_changes_only_where_a_flat_ascent_ends(data):
    support = sorted(data.draw(st.sets(
        st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4)),
        min_size=2, max_size=30,
    )))
    log_values = data.draw(st.lists(finite, min_size=len(support), max_size=len(support)))
    _check_stall_stop(support, log_values, data.draw(st.sampled_from(sorted(HEURISTICS))))


def test_stall_stop_on_seeded_supports_with_and_without_a_stall():
    # Few small hypothesis examples stall, so these seeded draws make sure
    # both sides of the rule are checked.
    rng = np.random.default_rng(0)
    cube = list(itertools.product(range(5), repeat=3))
    longest = []
    for n in range(120):
        size = int(rng.integers(2, 31))
        support = sorted(cube[i] for i in rng.choice(len(cube), size, replace=False))
        log_values = list(rng.uniform(-5.0, 5.0, size))
        longest.append(_check_stall_stop(support, log_values, (2, 4)[n % 2]))
    assert any(run >= STALL_STEPS for run in longest)
    assert any(0 < run < STALL_STEPS for run in longest)


@st.composite
def valued_supports(draw):
    """A small support with a log value per triple."""
    support = sorted(draw(st.sets(st.sampled_from(CUBE), min_size=1, max_size=8)))
    values = draw(st.lists(finite, min_size=len(support), max_size=len(support)))
    return support, dict(zip(support, values))


# Two draws where a point-mass start without the uniform mix stalls short
# of the cold objective, by 1.7e-6 and by 5.8e-4.
@settings(max_examples=80, deadline=None)
@given(valued=valued_supports(), kind=st.sampled_from(sorted(HEURISTICS)), pick=st.integers(0, 7))
@example(valued=([(0, 0, 1), (0, 1, 2), (0, 2, 1), (1, 2, 0), (1, 2, 2)],
                 {(0, 0, 1): 5.0, (0, 1, 2): 5.0, (0, 2, 1): 1.9, (1, 2, 0): -5.0,
                  (1, 2, 2): -5.0}), kind=2, pick=1)
@example(valued=([(0, 1, 1), (1, 0, 0), (1, 0, 1), (1, 1, 0), (2, 0, 1), (2, 0, 2)],
                 {(0, 1, 1): 5.0, (1, 0, 0): 3.41, (1, 0, 1): 0.0, (1, 1, 0): 5.0,
                  (2, 0, 1): -5.0, (2, 0, 2): 0.0}), kind=2, pick=2)
def test_warm_starts_reach_the_cold_objective(valued, kind, pick):
    support, log_values = valued
    cap = EngineConfig().heuristic_iter_cap
    cold = heuristic_gamma(kind, support, log_values, max_iter=cap)
    point = SupportDistribution.point_mass(support[pick % len(support)])
    for start in (point, cold.distribution):
        warm = heuristic_gamma(kind, support, log_values, max_iter=cap, start=start)
        # A converged ascent is within its KKT gap of the concave optimum.
        # A warm one may also stop at the rounding floor of the objective
        # with a gap above the target, so its objective is what is checked.
        if cold.converged:
            assert abs(warm.objective - cold.objective) <= 2 * KKT_TARGET


def _orbit(triple):
    return frozenset(_permute(triple, perm) for perm in FULL_S3)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_symmetrize_is_s3_invariant_and_keeps_orbit_mass(data):
    # An S3-stable support: a union of orbits of the cube.
    seeds = data.draw(st.sets(st.sampled_from(CUBE), min_size=1, max_size=4))
    support = sorted(set().union(*map(_orbit, seeds)))
    keyed = sorted(data.draw(st.sets(st.sampled_from(support), min_size=1)))
    counts = data.draw(st.lists(st.integers(1, 20), min_size=len(keyed), max_size=len(keyed)))
    alpha = SupportDistribution({t: c / sum(counts) for t, c in zip(keyed, counts)})
    sym = symmetrize(alpha, FULL_S3, support)
    assert set(sym.weights) <= set(support)
    assert abs(math.fsum(sym.weights.values()) - 1.0) <= 1e-12
    for trip in support:
        for perm in FULL_S3:
            assert abs(sym[_permute(trip, perm)] - sym[trip]) <= 1e-15
    for orbit in {_orbit(t) for t in support}:
        assert abs(math.fsum(sym[t] for t in orbit) - math.fsum(alpha[t] for t in orbit)) <= 1e-12


def _block_triple_sums(q, t):
    """The definition of a nonzero class: the t-fold sums of CW_q's block
    triples, built one factor at a time."""
    one = support_block_triples(build_cw(q))
    sums = {(0, 0, 0)}
    for _ in range(t):
        sums = {(a + i, b + j, c + k) for (a, b, c) in sums for (i, j, k) in one}
    return sums


def _explicit_power(q, t):
    return set(enumerate_class_supports(q, t))


# The index domain is finite, so it is checked exhaustively, with one step
# past each end so that negative and oversized indices are covered too.
# The explicit power reaches t <= 2; the sums of block triples go further.
@pytest.mark.parametrize("q, t, reference", [
    *(pytest.param(q, t, _explicit_power, id=f"{q}-{t}")
      for q, t in itertools.product(range(4), (1, 2))),
    *(pytest.param(q, t, _block_triple_sums, id=f"{q}-{t}-sums")
      for q, t in itertools.product((0, 1, 5), (1, 2, 4, 8))),
])
def test_class_is_realizable_matches_the_explicit_power(q, t, reference):
    nonzero = reference(q, t)
    for ijk in itertools.product(range(-1, 2 * t + 2), repeat=3):
        assert class_is_realizable(q, t, *ijk) == (ijk in nonzero), ijk
    assert set(top_support(q, t)) == set(grade_power(q, t).support) == nonzero


@settings(max_examples=100, deadline=None)
@given(alpha=weighted_supports(), extra=st.integers(0, 200))
def test_round_to_grid_keeps_the_grid_and_the_total(alpha, extra):
    _, alpha = alpha
    size = len(alpha.weights)
    n = size + extra
    grid = round_to_grid(alpha, n)
    counts = {t: round(w * n) for t, w in grid.weights.items()}
    assert sum(counts.values()) == n
    for trip, w in grid.weights.items():
        assert w == counts[trip] / n
        assert abs(w - alpha[trip]) <= 1 / n + 1e-12
    with pytest.raises(ValueError):
        round_to_grid(alpha, size - 1)
