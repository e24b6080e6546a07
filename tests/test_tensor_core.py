import math

import pytest

from laserlab.tensor_core import (
    ClassKey,
    TensorSizeError,
    build_cw,
    class_subtensor,
    cw_power,
    enumerate_class_supports,
    grade_power,
    kronecker,
    kronecker_power,
    matmul_shape,
    matmul_tensor,
    split_subtensor,
    support_block_triples,
    top_support,
    unit_tensor,
    zero_out,
)

CW_BLOCK_TRIPLES = {
    (0, 0, 2), (0, 2, 0), (2, 0, 0),
    (0, 1, 1), (1, 0, 1), (1, 1, 0),
}


def test_build_cw_shape_and_support():
    for q in (1, 2, 5):
        cw = build_cw(q)
        assert cw.x_dims == cw.y_dims == cw.z_dims == q + 2
        assert cw.nnz == 3 * q + 3
        assert support_block_triples(cw) == CW_BLOCK_TRIPLES


def test_build_cw_grading():
    cw = build_cw(3)
    assert cw.x_block[0] == 0
    assert all(cw.x_block[i] == 1 for i in range(1, 4))
    assert cw.x_block[4] == 2
    for trip in cw.support:
        assert sum(cw.block_triple_of(trip)) == 2


def test_matmul_tensor_and_shape_roundtrip():
    for shape in ((1, 1, 1), (2, 3, 4), (7, 1, 2)):
        assert matmul_shape(matmul_tensor(*shape)) == shape
    assert matmul_shape(unit_tensor()) == (1, 1, 1)
    assert matmul_shape(build_cw(2)) is None


def test_kronecker_multiplies_matmul_shapes():
    t = kronecker(matmul_tensor(2, 1, 3), matmul_tensor(1, 4, 1))
    assert matmul_shape(t) == (2, 4, 3)
    assert t.nnz == 2 * 3 * 4


def test_kronecker_adds_block_labels():
    cw = build_cw(1)
    sq = kronecker(cw, cw)
    assert support_block_triples(sq) == {
        (a[0] + b[0], a[1] + b[1], a[2] + b[2])
        for a in CW_BLOCK_TRIPLES
        for b in CW_BLOCK_TRIPLES
    }


def test_kronecker_power_counts():
    cw = build_cw(2)
    p2 = kronecker_power(cw, 2)
    assert p2.x_dims == 16
    assert p2.nnz == cw.nnz ** 2
    assert kronecker_power(cw, 1).support == cw.support


def test_kronecker_power_cap():
    with pytest.raises(TensorSizeError):
        kronecker_power(build_cw(2), 20)
    with pytest.raises(TensorSizeError):
        cw_power(5, 10, max_vars=1000)


def test_zero_out_restricts_labels():
    cw = build_cw(2)
    t = zero_out(cw, {0}, {1}, {1})
    assert all(cw.block_triple_of(trip) == (0, 1, 1) for trip in t.support)
    assert matmul_shape(t) == (1, 1, 2)


def test_class_key_canonicalizes():
    key = ClassKey.make(2, 2, 3, 1, 0)
    assert key.ijk == (0, 1, 3)
    with pytest.raises(ValueError):
        ClassKey.make(2, 2, 1, 1, 1)
    with pytest.raises(ValueError):
        ClassKey.make(2, 1, 3, 0, -1)


def test_grade_power_support_t2():
    graded = grade_power(2, 2)
    assert all(sum(t) == 4 for t in graded.support)
    assert len(graded.support) == 15
    # Matches the materialized tensor's block triples.
    assert graded.support == frozenset(support_block_triples(cw_power(2, 2)))


def test_grade_power_q0_drops_odd_classes():
    graded = grade_power(0, 1)
    # q=0 has no middle variables, so only the corner triples survive.
    assert graded.support == frozenset({(0, 0, 2), (0, 2, 0), (2, 0, 0)})


@pytest.mark.parametrize("t, size", [(4, 45), (8, 153), (16, 561)])
def test_top_support_has_every_triple_for_q_at_least_one(t, size):
    # Every (I, J, K) >= 0 with I + J + K = 2t: C(2t+2, 2) of them.
    assert len(top_support(5, t)) == math.comb(2 * t + 2, 2) == size


def test_split_subtensor_children_sum():
    key = ClassKey.make(2, 2, 1, 1, 2)
    pairs = split_subtensor(key)
    assert pairs
    for child, comp in pairs:
        assert sum(child) == 2
        assert sum(comp) == 2
        assert tuple(a + b for a, b in zip(child, comp)) == (1, 1, 2)


def test_class_subtensor_matches_enumeration():
    q, t = 2, 1
    by_class = enumerate_class_supports(q, t)
    for trip, sub in by_class.items():
        direct = class_subtensor(q, t, *trip)
        assert sub.support == direct.support


def test_class_subtensor_values_at_t1():
    # The (0,1,1) class of CW_q is <1,1,q>; the (0,0,2) class is <1,1,1>.
    assert matmul_shape(class_subtensor(3, 1, 0, 1, 1)) == (1, 1, 3)
    assert matmul_shape(class_subtensor(3, 1, 0, 0, 2)) == (1, 1, 1)
