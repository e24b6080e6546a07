"""The benchmark's own answers for the construction workload.

None of this imports laserlab: each function recomputes from the
definitions what the program's construction_sim claims.
"""

from __future__ import annotations

import itertools
import math


def is_progression_free(M: int, elements) -> bool:
    """No a + b = 2c (mod M) in the set unless a = b = c."""
    A = set(elements)
    if any(not 0 <= a < M for a in A):
        return False
    for a, b in itertools.combinations_with_replacement(sorted(A), 2):
        s = (a + b) % M
        if M % 2:
            mids = {s * ((M + 1) // 2) % M}
        elif s % 2 == 0:
            mids = {s // 2, s // 2 + M // 2}
        else:
            mids = set()
        if any(c in A and not a == b == c for c in mids):
            return False
    return True


def max_progression_free_size(M: int) -> int:
    """Exact optimum by branch and bound over Python-int bitsets.

    Translation preserves progression-freeness in Z_M, so 0 can be fixed
    in the set. Elements are added in increasing order; adding x strikes
    from the candidates every y that would complete a progression with x
    and a chosen element, and x + M/2 when M is even.
    """
    def completions(x: int, a: int) -> int:
        ys = {(2 * a - x) % M, (2 * x - a) % M}
        s = (x + a) % M
        if M % 2:
            ys.add(s * ((M + 1) // 2) % M)
        elif s % 2 == 0:
            ys.update((s // 2, s // 2 + M // 2))
        mask = 0
        for y in ys:
            mask |= 1 << y
        return mask

    def strike_self(x: int) -> int:
        return 1 << ((x + M // 2) % M) if M % 2 == 0 else 0

    best = 1

    def grow(chosen: list[int], cands: int) -> None:
        nonlocal best
        best = max(best, len(chosen))
        while cands:
            if len(chosen) + bin(cands).count("1") <= best:
                return
            x = (cands & -cands).bit_length() - 1
            cands &= cands - 1
            nxt = cands & ~strike_self(x)
            for a in chosen:
                nxt &= ~completions(x, a)
            chosen.append(x)
            grow(chosen, nxt)
            chosen.pop()

    start = ((1 << M) - 1) & ~1 & ~strike_self(0)
    grow([0], start)
    return best


def cw_block_support(q: int) -> list[tuple[int, int, int]]:
    trips = set(itertools.permutations((0, 0, 2)))
    if q:
        trips |= set(itertools.permutations((0, 1, 1)))
    return sorted(trips)


def pipeline_counts(q: int, counts: dict[tuple[int, int, int], int]) -> tuple[int, int]:
    """(N_alpha, N_T) for the block pipeline on CW_q^n with alpha given as counts.

    N_alpha is the number of sequences of n block triples with the type
    counts, cubed for the three copies. N_T counts every sequence whose
    x-, y- and z-marginal counts match alpha's, cubed likewise.
    """
    n = sum(counts.values())
    support = cw_block_support(q)

    def multinomial(parts) -> int:
        out = math.factorial(n)
        for p in parts:
            out //= math.factorial(p)
        return out

    def side_counts(c: dict) -> tuple:
        out = []
        for axis in range(3):
            tally: dict[int, int] = {}
            for trip, k in c.items():
                if k:
                    tally[trip[axis]] = tally.get(trip[axis], 0) + k
            out.append(tuple(sorted(tally.items())))
        return tuple(out)

    target = side_counts(counts)
    per_copy = 0
    for combo in itertools.combinations_with_replacement(range(len(support)), n):
        c: dict = {}
        for idx in combo:
            c[support[idx]] = c.get(support[idx], 0) + 1
        if side_counts(c) == target:
            per_copy += multinomial(c.values())
    return multinomial(counts.values()) ** 3, per_copy ** 3
