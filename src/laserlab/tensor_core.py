"""Sparse 0/1 trilinear forms with block-partitioned variable sides.

Tensors are stored as sets of index triples with coefficient 1, together
with a block label for every variable on each side.  The CW tensor family
carries the grading label 0 for the first variable, 1 for the middle q
variables and 2 for the last one; Kronecker products add labels, so the
labels of an explicit CW power are exactly the graded sums used to carve
it into classes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Mapping, NamedTuple, Union

Triple = tuple[int, int, int]

DEFAULT_VARIABLE_CAP = 10**6


class TensorSizeError(ValueError):
    """Raised when a Kronecker product would exceed the variable cap."""


class CapExceededError(ValueError):
    """An instance is too large to enumerate under the caller's cap."""


@dataclass(frozen=True)
class BlockTensor:
    """A trilinear form with 0/1 coefficients and labeled variable blocks."""

    x_dims: int
    y_dims: int
    z_dims: int
    support: frozenset[Triple]
    x_block: tuple[int, ...]
    y_block: tuple[int, ...]
    z_block: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.x_block) != self.x_dims or len(self.y_block) != self.y_dims \
                or len(self.z_block) != self.z_dims:
            raise ValueError("block label vectors must match variable counts")
        for (i, j, k) in self.support:
            if not (0 <= i < self.x_dims and 0 <= j < self.y_dims and 0 <= k < self.z_dims):
                raise ValueError(f"support triple {(i, j, k)} out of range")

    @property
    def nnz(self) -> int:
        return len(self.support)

    def x_labels(self) -> set[int]:
        return set(self.x_block)

    def y_labels(self) -> set[int]:
        return set(self.y_block)

    def z_labels(self) -> set[int]:
        return set(self.z_block)

    def block_triple_of(self, triple: Triple) -> Triple:
        i, j, k = triple
        return (self.x_block[i], self.y_block[j], self.z_block[k])


class ClassKey(NamedTuple):
    """Canonical (sorted) identifier of a graded subtensor class of CW_q^t."""

    q: int
    t: int
    ijk: Triple

    @staticmethod
    def make(q: int, t: int, I: int, J: int, K: int) -> "ClassKey":
        if I + J + K != 2 * t:
            raise ValueError(f"class indices {(I, J, K)} must sum to {2 * t}")
        if not all(0 <= v <= 2 * t for v in (I, J, K)):
            raise ValueError(f"class indices {(I, J, K)} out of range for t={t}")
        lo, mid, hi = sorted((I, J, K))
        return ClassKey(q, t, (lo, mid, hi))


SubtensorRef = Union[BlockTensor, ClassKey]


def class_is_realizable(q: int, t: int, I: int, J: int, K: int) -> bool:
    """Whether the class T^t_{IJK} of CW_q^t (q >= 0) is a nonzero tensor:
    iff I, J, K >= 0, I + J + K = 2t, and q >= 1 or I, J, K are all even.

    By definition, iff (I, J, K) is a sum of t CW block triples: permutations
    of (0,0,2) and, for q >= 1, of (0,1,1).  Proof: list I x's, J y's and K
    z's in order and pair them off.  An equal pair is a (0,0,2)-type triple
    and a mixed pair a (0,1,1)-type one, which covers q >= 1.  For even I,
    J, K every pair is equal, and (0,0,2)-type triples give only even indices.
    """
    if I < 0 or J < 0 or K < 0 or I + J + K != 2 * t:
        return False
    return q >= 1 or I % 2 == J % 2 == K % 2 == 0


def top_support(q: int, t: int) -> list[Triple]:
    """The nonzero outer block triples (I, J, K) of CW_q^t, sorted."""
    return [
        (I, J, 2 * t - I - J)
        for I in range(2 * t + 1)
        for J in range(2 * t + 1 - I)
        if class_is_realizable(q, t, I, J, 2 * t - I - J)
    ]


@dataclass(frozen=True)
class PartitionedTensor:
    """Block-triple view of a tensor whose nonzero block triples share a sum."""

    x_labels: tuple[int, ...]
    y_labels: tuple[int, ...]
    z_labels: tuple[int, ...]
    P: int
    support: frozenset[Triple]
    subtensor_ref: Mapping[Triple, SubtensorRef] = field(hash=False, default_factory=dict)

    def __post_init__(self) -> None:
        for (i, j, k) in self.support:
            if i + j + k != self.P:
                raise ValueError(f"block triple {(i, j, k)} violates constant sum {self.P}")


def build_cw(q: int) -> BlockTensor:
    """The Coppersmith-Winograd tensor on q+2 variables per side.

    Support: the three corner terms plus, for each middle index i, the
    three matrix-multiplication terms x0*yi*zi, xi*y0*zi, xi*yi*z0.
    """
    if q < 0:
        raise ValueError("q must be nonnegative")
    n = q + 2
    support: set[Triple] = {(0, 0, q + 1), (0, q + 1, 0), (q + 1, 0, 0)}
    for i in range(1, q + 1):
        support.add((0, i, i))
        support.add((i, 0, i))
        support.add((i, i, 0))
    labels = tuple([0] + [1] * q + [2])
    return BlockTensor(n, n, n, frozenset(support), labels, labels, labels)


def matmul_tensor(a: int, b: int, c: int) -> BlockTensor:
    """The a x b x c matrix multiplication tensor (all labels 0)."""
    if min(a, b, c) < 1:
        raise ValueError("matmul dimensions must be positive")
    support = set()
    for i in range(a):
        for j in range(b):
            for k in range(c):
                support.add((i * b + j, j * c + k, k * a + i))
    return BlockTensor(
        a * b, b * c, c * a, frozenset(support),
        (0,) * (a * b), (0,) * (b * c), (0,) * (c * a),
    )


def unit_tensor() -> BlockTensor:
    return matmul_tensor(1, 1, 1)


def kronecker(t1: BlockTensor, t2: BlockTensor,
              max_vars: int = DEFAULT_VARIABLE_CAP) -> BlockTensor:
    """Kronecker product; variable pairs merge and block labels add."""
    dims = (t1.x_dims * t2.x_dims, t1.y_dims * t2.y_dims, t1.z_dims * t2.z_dims)
    if max(dims) > max_vars:
        raise TensorSizeError(
            f"product would have {max(dims)} variables on one side (cap {max_vars})")
    if t1.nnz * t2.nnz > max_vars:
        raise TensorSizeError(
            f"product would have {t1.nnz * t2.nnz} support triples (cap {max_vars})")
    support = frozenset(
        (i1 * t2.x_dims + i2, j1 * t2.y_dims + j2, k1 * t2.z_dims + k2)
        for (i1, j1, k1) in t1.support for (i2, j2, k2) in t2.support
    )

    def _merge(b1: tuple[int, ...], b2: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(l1 + l2 for l1 in b1 for l2 in b2)

    return BlockTensor(
        dims[0], dims[1], dims[2], support,
        _merge(t1.x_block, t2.x_block),
        _merge(t1.y_block, t2.y_block),
        _merge(t1.z_block, t2.z_block),
    )


def kronecker_power(t: BlockTensor, n: int, max_vars: int = DEFAULT_VARIABLE_CAP) -> BlockTensor:
    if n < 1:
        raise ValueError("power must be >= 1")
    out = t
    for _ in range(n - 1):
        out = kronecker(out, t, max_vars=max_vars)
    return out


def zero_out(t: BlockTensor, keep_x: Iterable[int], keep_y: Iterable[int],
             keep_z: Iterable[int]) -> BlockTensor:
    """Restrict the support to the given block labels on each side."""
    kx, ky, kz = set(keep_x), set(keep_y), set(keep_z)
    for labels, kept, side in ((t.x_labels(), kx, "x"), (t.y_labels(), ky, "y"),
                               (t.z_labels(), kz, "z")):
        unknown = kept - labels
        if unknown:
            raise ValueError(f"unknown {side} block labels {sorted(unknown)}")
    support = frozenset(
        (i, j, k) for (i, j, k) in t.support
        if t.x_block[i] in kx and t.y_block[j] in ky and t.z_block[k] in kz
    )
    return BlockTensor(t.x_dims, t.y_dims, t.z_dims, support,
                       t.x_block, t.y_block, t.z_block)


def grade_power(q: int, t: int) -> PartitionedTensor:
    """Symbolic graded view of CW_q^t: its nonzero block triples (I,J,K),
    which sum to 2t.

    No explicit variables are materialized; each block triple points at its
    canonical class key.
    """
    if t < 1:
        raise ValueError("t must be >= 1")
    support = top_support(q, t)
    refs = {trip: ClassKey.make(q, t, *trip) for trip in support}
    labels = tuple(range(2 * t + 1))
    return PartitionedTensor(labels, labels, labels, 2 * t, frozenset(support), refs)


def split_subtensor(key: ClassKey) -> list[tuple[Triple, Triple]]:
    """Half-split decomposition of a class of CW_q^t into pairs of classes of CW_q^{t/2}.

    Returns the list of (child, complement) index triples; this list is the
    support of the inner partitioned view of the class.
    """
    q, t, (I, J, K) = key
    if t % 2 != 0:
        raise ValueError("splitting requires even t (recursion runs on powers of 2)")
    half = t // 2
    out: list[tuple[Triple, Triple]] = []
    for I2 in range(max(0, I - t), min(I, t) + 1):
        for J2 in range(max(0, J - t), min(J, t) + 1):
            K2 = t - I2 - J2
            if K2 < max(0, K - t) or K2 > min(K, t):
                continue
            out.append(((I2, J2, K2), (I - I2, J - J2, K - K2)))
    # Child indices live in [0, 2*half] = [0, t]; guaranteed by the ranges above.
    return out


def cw_power(q: int, t: int, max_vars: int = DEFAULT_VARIABLE_CAP) -> BlockTensor:
    """Explicit CW_q^t; labels are graded sums.  Test-scale oracle only."""
    return kronecker_power(build_cw(q), t, max_vars=max_vars)


def class_subtensor(q: int, t: int, I: int, J: int, K: int,
                    max_vars: int = DEFAULT_VARIABLE_CAP) -> BlockTensor:
    """Explicit class subtensor of CW_q^t, via materialization and zeroing."""
    return zero_out(cw_power(q, t, max_vars=max_vars), {I}, {J}, {K})


def support_block_triples(t: BlockTensor) -> set[Triple]:
    return {t.block_triple_of(tr) for tr in t.support}


def matmul_shape(t: BlockTensor) -> tuple[int, int, int] | None:
    """Recover (a, b, c) if the active part of the support is a matmul tensor.

    Variables not touched by the support are ignored.  Grouping: in
    <a,b,c> the z-partner set of an x variable depends only on its row,
    the x-partner set of a y variable only on its column, and so on;
    consistent coordinates are then checked against the full support.
    """
    if not t.support:
        return None
    xs = sorted({i for (i, _, _) in t.support})
    ys = sorted({j for (_, j, _) in t.support})
    zs = sorted({k for (_, _, k) in t.support})

    x_partners_z: dict[int, set[int]] = {}
    x_partners_y: dict[int, set[int]] = {}
    y_partners_x: dict[int, set[int]] = {}
    y_partners_z: dict[int, set[int]] = {}
    z_partners_y: dict[int, set[int]] = {}
    z_partners_x: dict[int, set[int]] = {}
    for (i, j, k) in t.support:
        x_partners_z.setdefault(i, set()).add(k)
        x_partners_y.setdefault(i, set()).add(j)
        y_partners_x.setdefault(j, set()).add(i)
        y_partners_z.setdefault(j, set()).add(k)
        z_partners_y.setdefault(k, set()).add(j)
        z_partners_x.setdefault(k, set()).add(i)

    def _group(keys: list[int], partners: dict) -> dict[int, int]:
        ids: dict[frozenset[int], int] = {}
        out = {}
        for v in keys:
            sig = frozenset(partners[v])
            out[v] = ids.setdefault(sig, len(ids))
        return out

    row_of_x = _group(xs, x_partners_z)   # i coordinate
    col_of_x = _group(xs, x_partners_y)   # j coordinate
    col_of_y = _group(ys, y_partners_x)   # j coordinate
    dep_of_y = _group(ys, y_partners_z)   # k coordinate
    dep_of_z = _group(zs, z_partners_y)   # k coordinate
    row_of_z = _group(zs, z_partners_x)   # i coordinate

    a = len(set(row_of_x.values()))
    b = len(set(col_of_x.values()))
    c = len(set(dep_of_y.values()))
    if a != len(set(row_of_z.values())) or b != len(set(col_of_y.values())) \
            or c != len(set(dep_of_z.values())):
        return None
    if len(xs) != a * b or len(ys) != b * c or len(zs) != c * a:
        return None
    if len(t.support) != a * b * c:
        return None
    # Group labels on the two sides sharing a coordinate must be matched up.
    j_match: dict[int, int] = {}
    k_match: dict[int, int] = {}
    i_match: dict[int, int] = {}
    for (i, j, k) in t.support:
        for table, lhs, rhs in ((j_match, col_of_x[i], col_of_y[j]),
                                (k_match, dep_of_y[j], dep_of_z[k]),
                                (i_match, row_of_z[k], row_of_x[i])):
            if table.setdefault(lhs, rhs) != rhs:
                return None
    expected = a * b * c
    seen = set()
    for (i, j, k) in t.support:
        coord = (row_of_x[i], col_of_x[i], dep_of_y[j])
        if coord in seen:
            return None
        seen.add(coord)
    if len(seen) != expected:
        return None
    return (a, b, c)


def enumerate_class_supports(q: int, t: int) -> dict[Triple, BlockTensor]:
    """All nonzero class subtensors of an explicitly materialized CW_q^t."""
    full = cw_power(q, t)
    classes: dict[Triple, set[Triple]] = {}
    for tr in full.support:
        classes.setdefault(full.block_triple_of(tr), set()).add(tr)
    out = {}
    for blk, sup in classes.items():
        out[blk] = BlockTensor(full.x_dims, full.y_dims, full.z_dims,
                               frozenset(sup), full.x_block, full.y_block, full.z_block)
    return out
