import itertools
import math
import warnings

import pytest

from laserlab.construction_sim import (
    BlockSupport,
    SalemSpencerSet,
    _is_prime,
    _multiset_permutations,
    behrend_set,
    coverage_statistics,
    free_hard_instance,
    greedy_hard_instance,
    max_progression_free_size,
    power_mean_select,
    random_zero_out,
    simulate_laser_pipeline,
)


def test_multiset_permutations_are_sorted_distinct_permutations():
    bags = ([], [1], [2, 1, 1], list("abacab"),
            [(1, 0, 1), (0, 0, 2), (1, 0, 1), (0, 1, 1), (1, 0, 1)])
    for bag in bags:
        assert list(_multiset_permutations(bag)) == sorted(set(itertools.permutations(bag)))


def test_is_prime_matches_naive_division():
    naive = [n for n in range(2, 500) if all(n % d for d in range(2, n))]
    assert [n for n in range(-3, 500) if _is_prime(n)] == naive


def _slow_is_free(elements, M):
    s = set(elements)
    for a in s:
        for b in s:
            for c in s:
                if (a + b) % M == (2 * c) % M and not (a == b == c):
                    return False
    return True


def test_validator_agrees_with_slow_check():
    for M in range(1, 30):
        A = behrend_set(M)
        assert A.is_valid() == _slow_is_free(A.elements, M)
        assert A.is_valid()
    # A deliberately bad set must be rejected.
    bad = SalemSpencerSet(9, frozenset({1, 2, 3}))
    assert not bad.is_valid()
    assert not _slow_is_free({1, 2, 3}, 9)


def test_even_modulus_pair_rule():
    # x and x + M/2 satisfy x + x = 2(x + M/2) mod M.
    assert not _slow_is_free({1, 5}, 8)
    assert not SalemSpencerSet(8, frozenset({1, 5})).is_valid()


def test_brute_force_matches_exhaustive_small():
    for M in range(1, 15):
        best = 0
        for r in range(M, 0, -1):
            if any(_slow_is_free(c, M) for c in itertools.combinations(range(M), r)):
                best = r
                break
        assert max_progression_free_size(M) == best


def test_behrend_respects_floor_and_cache():
    A = behrend_set(257)
    assert A.size >= 257 ** 0.6
    assert behrend_set(257) is A
    # Criterion 9 stops at M = 500; the escalation bound is sized for
    # every M <= 600.
    for M in range(501, 601):
        B = behrend_set(M)
        assert B.is_valid(), M
        assert B.size >= M ** 0.6, (M, B.size)


def test_zero_out_toy_exact():
    bs = BlockSupport(3, frozenset({(0, 1, 2)}))
    res = random_zero_out(bs, trials=64, seed=1)
    assert len(res.kept) == 2  # best possible: drop one coordinate
    assert math.isclose(res.bound, 2 * 3 / (3 * math.sqrt(3)), rel_tol=1e-12)


def test_zero_out_empty_off_diag_keeps_everything():
    bs = BlockSupport(5, frozenset())
    res = random_zero_out(bs, seed=0)
    assert res.kept == frozenset(range(5))


def test_block_support_invariants():
    with pytest.raises(ValueError):
        BlockSupport(4, frozenset({(0, 0, 1)}))
    with pytest.raises(ValueError):
        BlockSupport(3, frozenset({(0, 1, 3)}))


def test_greedy_hard_instance_budget_and_coverage():
    inst = greedy_hard_instance(96, 2, seed=3)
    assert len(inst.support.off_diag) <= 2 * 96
    cov = coverage_statistics(inst.support, samples=60, seed=1)
    assert cov["effective_threshold"] is not None
    assert cov["effective_threshold"] <= 96


def test_greedy_hard_instance_requires_min_n():
    with pytest.raises(ValueError):
        greedy_hard_instance(32, 2)


def test_free_hard_instance_is_free():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        inst = free_hard_instance(128, 3, seed=2)
    off = sorted(inst.support.off_diag)
    for t1, t2 in itertools.combinations(off, 2):
        assert len(set(t1) & set(t2)) <= 1
    assert len(off) <= 2 * 3 * 128


def test_free_hard_instance_warns_outside_regime():
    with pytest.warns(UserWarning):
        free_hard_instance(128, 2, seed=0)


def test_power_mean_select_beats_ratio_of_means():
    import numpy as np

    rng = np.random.default_rng(9)
    for _ in range(200):
        k = int(rng.integers(1, 8))
        a = rng.uniform(0.1, 5.0, size=k).tolist()
        b = rng.uniform(0.1, 5.0, size=k).tolist()
        i = power_mean_select(a, b)
        lhs = a[i] ** 1.5 / b[i] ** 0.5
        rhs = (sum(a) / k) ** 1.5 / (sum(b) / k) ** 0.5
        assert lhs >= rhs * (1 - 1e-12)


def test_pipeline_default_counters():
    st = simulate_laser_pipeline(2, 12, seed=0)
    assert st.N_B == 9504
    assert st.N_alpha == 132 ** 3
    assert st.N_T == st.N_alpha  # trivial marginal kernel on the CW block support
    assert st.R == 242
    assert st.M == 24203
    assert st.hash_linearity_ok
    assert st.block_disjoint_ok
    assert 0 <= st.C1_prime <= st.C1 <= st.C3
    assert st.L <= st.C1


def test_pipeline_ratio_at_least_one():
    # R = (joint multinomial)^3 / (product of per-side marginal
    # multinomials) >= 1 for every count vector.
    st = simulate_laser_pipeline(2, 12, seed=1)
    assert st.R >= 1


def test_pipeline_lower_bound_inequality():
    # L >= (2/(3*sqrt(3))) * C1'^{3/2} / sqrt(C3) - 1 whenever C3 >= C1' >= 1.
    for seed in range(12):
        st = simulate_laser_pipeline(2, 12, seed=seed)
        if st.C3 >= st.C1_prime >= 1:
            floor = (2 / (3 * math.sqrt(3))) * st.C1_prime ** 1.5 / math.sqrt(st.C3)
            assert st.L >= floor - 1


def test_pipeline_rejects_bad_alpha():
    with pytest.raises(ValueError):
        simulate_laser_pipeline(2, 10, alpha={(0, 0, 2): 1, (1, 0, 1): 10})
    with pytest.raises(ValueError):
        simulate_laser_pipeline(2, 12, alpha={(0, 0, 3): 12})


def test_pipeline_cap_guard():
    with pytest.raises(ValueError, match="too large"):
        simulate_laser_pipeline(2, 12, seed=0, cap=10)
