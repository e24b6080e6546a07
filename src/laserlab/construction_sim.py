"""Executable versions of the probabilistic constructions behind the bound.

Everything here runs the constructions at desk scale with exact counters:
progression-free sets in Z_M, the randomized diagonalization that extracts
an identity-like subtensor, the greedy and free hard instances showing the
diagonalization is near-tight, and the four-step block-level hashing
pipeline that turns a CW power into an independent sum of consistent block
triples.  Statistical claims are validated across seeds by the tests; every
per-run structural property (3-AP freeness, zeroing-out validity, hash
linearity, block disjointness) is checked absolutely.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

import numpy as np

from .distributions import SupportDistribution, marginal_sums
from .tensor_core import Triple, build_cw, support_block_triples


def _is_prime(n: int) -> bool:
    """Trial division, O(sqrt n): ample for the pipeline's moduli."""
    if n < 2 or n % 2 == 0:
        return n == 2
    return all(n % f for f in range(3, math.isqrt(n) + 1, 2))


def _multiset_permutations(bag: Sequence) -> Iterable[tuple]:
    """The distinct orderings of a multiset, in lexicographic order."""
    perm = sorted(bag)
    while True:
        yield tuple(perm)
        i = len(perm) - 2
        while i >= 0 and perm[i] >= perm[i + 1]:
            i -= 1
        if i < 0:
            return
        j = len(perm) - 1
        while perm[j] <= perm[i]:
            j -= 1
        perm[i], perm[j] = perm[j], perm[i]
        perm[i + 1:] = reversed(perm[i + 1:])


class CapExceededError(ValueError):
    """An instance is too large to enumerate under the caller's cap."""


@dataclass(frozen=True)
class SalemSpencerSet:
    """A subset of Z_M where a+b = 2c (mod M) forces a = b = c."""

    M: int
    elements: frozenset[int]

    def __post_init__(self) -> None:
        if self.M < 1:
            raise ValueError("modulus must be positive")
        if any(not (0 <= a < self.M) for a in self.elements):
            raise ValueError("elements outside Z_M")

    @property
    def size(self) -> int:
        return len(self.elements)

    def is_valid(self) -> bool:
        """Exhaustive 3-AP check, O(|A|^2) using the fixed-midpoint trick."""
        elems = sorted(self.elements)
        inA = np.zeros(self.M, dtype=bool)
        inA[elems] = True
        arr = np.array(elems, dtype=np.int64)
        for a in elems:
            s = (a + arr) % self.M
            distinct = arr != a
            if self.M % 2:
                c = (s * pow(2, -1, self.M)) % self.M
                hit = inA[c] & distinct & (c != a) & (c != arr)
                if hit.any():
                    return False
            else:
                half = self.M // 2
                # a = b case: a + a = 2(a + M/2), a three-term violation.
                if inA[(a + half) % self.M]:
                    return False
                even = s % 2 == 0
                for shift in (0, half):
                    c = (s[even] // 2 + shift) % self.M
                    hit = inA[c] & distinct[even] & (c != a) & (c != arr[even])
                    if hit.any():
                        return False
        return True


def _block(x: int | np.ndarray, arr: np.ndarray, blocked: np.ndarray, M: int) -> None:
    """Mark x and every y that would close a progression with x and arr.

    x may be a column of elements, blocked against every element of arr at
    once. Pairs with x = a mark only x and, for even M, x + M/2, which are
    marked anyway.
    """
    blocked[x] = True
    blocked[(2 * x - arr) % M] = True
    blocked[(2 * arr - x) % M] = True
    s = x + arr
    if M % 2:
        blocked[(s * ((M + 1) // 2)) % M] = True
    else:
        c = s[s % 2 == 0] // 2
        blocked[c] = True
        blocked[(c + M // 2) % M] = True
        # a + a = 2(a + M/2): a pair at distance M/2 is a progression too.
        blocked[(x + M // 2) % M] = True


def _greedy_fill(seed_set: Sequence[int], M: int, rng: np.random.Generator) -> list[int]:
    """Extend seed_set by each x of a random order of Z_M that keeps it progression-free."""
    out = list(seed_set)
    arr = np.array(out, dtype=np.int64)
    blocked = np.zeros(M, dtype=bool)
    for i in range(0, arr.size, 64):
        _block(arr[i:i + 64, None], arr, blocked, M)
    for x in rng.permutation(M).tolist():
        if not blocked[x]:
            _block(x, arr, blocked, M)
            out.append(x)
            arr = np.append(arr, x)
    return out


def _improve(A: list[int], M: int, rng: np.random.Generator, rounds: int) -> list[int]:
    """Drop a random chunk and refill; keep the result if it is no smaller."""
    for _ in range(rounds):
        if len(A) <= 2:
            break
        k = max(1, len(A) // 8)
        drop = set(rng.choice(len(A), size=k, replace=False).tolist())
        kept = [a for i, a in enumerate(A) if i not in drop]
        refilled = _greedy_fill(kept, M, rng)
        if len(refilled) >= len(A):
            A = refilled
    return A


def _stanley_window(M: int) -> list[int]:
    """3-AP-free integers below (M-1)/3 + 1: base-3 digits restricted to {0,1}.

    Since a + b and 2c stay below M for such elements, freeness over the
    integers carries over to Z_M without wraparound cases.
    """
    W = (M - 1) // 3 + 1
    out = []
    x = 0
    while x < W:
        out.append(x)
        digits = []
        y = x
        while y:
            digits.append(y % 3)
            y //= 3
        i = 0
        while i < len(digits) and digits[i] == 1:
            digits[i] = 0
            i += 1
        if i == len(digits):
            digits.append(1)
        else:
            digits[i] = 1
        x = sum(c * 3 ** j for j, c in enumerate(digits))
    return out


_BEHREND_CACHE: dict[int, SalemSpencerSet] = {}


def behrend_set(M: int) -> SalemSpencerSet:
    """A deterministic progression-free subset of Z_M.

    The digit-restricted window set seeds a randomized greedy fill, which
    drop-and-refill local search then improves.  For M >= 100 the local
    search escalates, keeping the largest of the current set, a further
    improvement of it and a fresh fill, until the set reaches M^0.6.  The
    output is reproducible for a given M (the generator is seeded from M)
    and cached in-process.
    """
    if M < 1:
        raise ValueError("M must be >= 1")
    cached = _BEHREND_CACHE.get(M)
    if cached is not None:
        return cached
    rng = np.random.default_rng(M * 1_000_003 + 17)
    target = M ** 0.6 if M >= 100 else 0.0
    best = _greedy_fill(_stanley_window(M), M, rng)
    best = _improve(best, M, rng, 10)
    # Escalate local search until the floor is cleared.  The most any
    # M <= 600 needs is 120 escalations (M = 136); the bound is a loop limit.
    for _ in range(200):
        if len(best) >= target:
            break
        cand = _improve(list(best), M, rng, 20)
        fresh = _improve(_greedy_fill(_stanley_window(M), M, rng), M, rng, 20)
        best = max((best, cand, fresh), key=len)
    result = SalemSpencerSet(M, frozenset(best))
    _BEHREND_CACHE[M] = result
    return result


_BRUTE_CACHE: dict[int, int] = {}


def _ap_completions(x: int, a: int, M: int) -> set[int]:
    """Every y such that {x, a, y} contains a nontrivial 3-AP in Z_M."""
    out = {(2 * a - x) % M, (2 * x - a) % M}
    s = (x + a) % M
    if M % 2:
        out.add((s * pow(2, -1, M)) % M)
    elif s % 2 == 0:
        out.add(s // 2)
        out.add(s // 2 + M // 2)
    return out - {x, a}


def max_progression_free_size(M: int) -> int:
    """Exact maximum size of a progression-free subset of Z_M.

    Branch and bound over candidate sets held as int bitsets: adding x
    immediately removes every later candidate that would complete a
    progression with x and an already-chosen element, so |A| + |candidates|
    is a tight bound. Translation preserves progression-freeness, so 0 is
    fixed in A. Intended for small M (tests use M <= 60).
    """
    if M < 1:
        raise ValueError("M must be >= 1")
    if M in _BRUTE_CACHE:
        return _BRUTE_CACHE[M]

    def mask(ys: Iterable[int]) -> int:
        return sum(1 << y for y in set(ys))

    # completions[x][a]: candidates invalidated by holding both x and a.
    completions = [[mask(_ap_completions(x, a, M)) for a in range(M)] for x in range(M)]
    # For even M, x + M/2 is invalidated by x alone: x + x = 2(x + M/2).
    opposite = [mask([(x + M // 2) % M] if M % 2 == 0 else []) for x in range(M)]
    best = 1

    def dfs(chosen: list[int], cands: int) -> None:
        nonlocal best
        best = max(best, len(chosen))
        while cands and len(chosen) + cands.bit_count() > best:
            x = (cands & -cands).bit_length() - 1
            cands &= cands - 1
            nxt = cands & ~opposite[x]
            for a in chosen:
                nxt &= ~completions[x][a]
            chosen.append(x)
            dfs(chosen, nxt)
            chosen.pop()

    dfs([0], ((1 << M) - 2) & ~opposite[0])
    _BRUTE_CACHE[M] = best
    return best


@dataclass(frozen=True)
class BlockSupport:
    """A diagonal-plus-off-diagonal block triple structure on [n].

    The diagonal triples (i,i,i) are implicit; off_diag holds the rest and
    must have pairwise-distinct coordinates.
    """

    n: int
    off_diag: frozenset[Triple]

    def __post_init__(self) -> None:
        for (i, j, k) in self.off_diag:
            if len({i, j, k}) != 3:
                raise ValueError(f"off-diagonal triple {(i, j, k)} has repeated coordinates")
            if not all(0 <= v < self.n for v in (i, j, k)):
                raise ValueError(f"triple {(i, j, k)} outside [0, {self.n})")

    @property
    def m(self) -> float:
        return len(self.off_diag) / self.n if self.n else 0.0


@dataclass(frozen=True)
class ZeroOutResult:
    kept: frozenset[int]
    p: float
    trials: int
    bound: float


def random_zero_out(bs: BlockSupport, trials: int = 16, seed: int = 0) -> ZeroOutResult:
    """Randomized diagonalization: keep a random block subset, drop spoiled rows.

    Per trial, every index joins R independently with probability
    p = 1/sqrt(3m); indices that are the first coordinate of an off-diagonal
    triple fully inside R are removed.  The best trial is returned after an
    absolute validity scan.  The guarantee 2n/(3 sqrt(3m)) holds for the
    expectation of a single trial.
    """
    n = bs.n
    if not bs.off_diag:
        return ZeroOutResult(frozenset(range(n)), 1.0, 0, float(n))
    m_eff = max(1.0, bs.m)
    p = 1.0 / math.sqrt(3.0 * m_eff)
    bound = 2.0 * n / (3.0 * math.sqrt(3.0 * m_eff))
    rng = np.random.default_rng(seed)
    off = sorted(bs.off_diag)
    best: set[int] = set()
    for _ in range(max(1, trials)):
        r = set(np.flatnonzero(rng.random(n) < p).tolist())
        spoiled = {i for (i, j, k) in off if i in r and j in r and k in r}
        kept = r - spoiled
        if len(kept) > len(best):
            best = kept
    for (i, j, k) in off:
        if i in best and j in best and k in best:
            raise AssertionError("validity scan failed: off-diagonal triple survived")
    return ZeroOutResult(frozenset(best), p, trials, bound)


@dataclass(frozen=True)
class HardInstance:
    support: BlockSupport
    target_size: int
    tracked_bound: float
    notes: dict


def _coverage_fraction(
    bs: BlockSupport, size: int, samples: int, rng: np.random.Generator
) -> float:
    """Fraction of random size-`size` subsets containing an off-diag triple."""
    if size > bs.n:
        raise ValueError("subset size exceeds n")
    off = sorted(bs.off_diag)
    hits = 0
    for _ in range(samples):
        chosen = set(rng.choice(bs.n, size=size, replace=False).tolist())
        if any(i in chosen and j in chosen and k in chosen for (i, j, k) in off):
            hits += 1
    return hits / samples


def coverage_statistics(
    bs: BlockSupport, samples: int = 200, seed: int = 0
) -> dict:
    """Empirical covering profile: smallest subset size hit 99% of the time."""
    rng = np.random.default_rng(seed)
    lo, hi = 3, bs.n
    if _coverage_fraction(bs, hi, samples, rng) < 0.99:
        return {"effective_threshold": None, "samples": samples}
    while lo < hi:
        mid = (lo + hi) // 2
        if _coverage_fraction(bs, mid, samples, rng) >= 0.99:
            hi = mid
        else:
            lo = mid + 1
    return {"effective_threshold": lo, "samples": samples}


def greedy_hard_instance(n: int, m: int, seed: int = 0) -> HardInstance:
    """Budget-bounded greedy cover: disjoint-leaning triples until the count bound dies.

    The tracked quantity is the union-bound estimate of how many target-size
    subsets still avoid every chosen triple; the loop stops when it drops
    below 1 or the m*n triple budget is spent.
    """
    if n < 64:
        raise ValueError("n must be >= 64 for the cover-count argument to apply")
    rng = np.random.default_rng(seed)
    target = min(n, math.ceil(n * math.log(n) / math.sqrt(m)))
    budget = m * n
    p3 = (target * (target - 1) * (target - 2)) / (n * (n - 1) * (n - 2))
    log_remaining = math.lgamma(n + 1) - math.lgamma(target + 1) - math.lgamma(n - target + 1)
    chosen: list[Triple] = []
    while len(chosen) < budget and log_remaining >= 0.0:
        perm = rng.permutation(n)
        for pos in range(0, n - 2, 3):
            if len(chosen) >= budget or log_remaining < 0.0:
                break
            trip = (int(perm[pos]), int(perm[pos + 1]), int(perm[pos + 2]))
            chosen.append(trip)
            log_remaining += math.log1p(-p3) if p3 < 1.0 else -math.inf
    bs = BlockSupport(n, frozenset(chosen))
    notes = {
        "target_size_natural_log": target,
        "target_size_log2": min(n, math.ceil(n * math.log2(n) / math.sqrt(m))),
        "budget": budget,
        "log_remaining_sets": log_remaining,
    }
    return HardInstance(bs, target, log_remaining, notes)


def free_hard_instance(n: int, m: int, seed: int = 0, max_retries: int = 20) -> HardInstance:
    """Sampled free instance: random triples over 2n, pruned to pairwise overlap <= 1.

    Follows the proof shape: sample each of the C(2n,3) coordinate-distinct
    triples with probability p = 2nm/(3 C(2n,3)), delete one triple of every
    pair sharing two elements, then restrict to the n busiest elements.
    """
    if m < 2:
        raise ValueError("m must be >= 2")
    if not (math.log(n) ** 2 <= m <= math.sqrt(n / 6)):
        warnings.warn(
            f"(n={n}, m={m}) outside the analyzed regime log^2 n <= m <= sqrt(n/6)",
            stacklevel=2,
        )
    big = 2 * n
    total = math.comb(big, 3)
    p = min(1.0, big * m / (3 * total))
    rng = np.random.default_rng(seed)
    for attempt in range(max_retries):
        count = rng.binomial(total, p)
        picks = set()
        while len(picks) < count:
            cand = tuple(sorted(rng.choice(big, size=3, replace=False).tolist()))
            picks.add(cand)
        triples = sorted(picks)
        # Kill one triple of every pair sharing two or more elements.
        alive = [True] * len(triples)
        pair_seen: dict[tuple[int, int], int] = {}
        for idx, trip in enumerate(triples):
            for pair in itertools.combinations(trip, 2):
                prev = pair_seen.get(pair)
                if prev is not None and alive[prev]:
                    alive[idx] = False
                    break
                pair_seen[pair] = idx
        kept = [t for t, ok in zip(triples, alive) if ok]
        usage = np.zeros(big, dtype=np.int64)
        for trip in kept:
            for v in trip:
                usage[v] += 1
        order = sorted(range(big), key=lambda v: (-usage[v], v))
        universe = sorted(order[:n])
        relabel = {v: i for i, v in enumerate(universe)}
        final = [
            (relabel[a], relabel[b], relabel[c])
            for (a, b, c) in kept
            if a in relabel and b in relabel and c in relabel
        ]
        bs = BlockSupport(n, frozenset(final))
        for t1, t2 in itertools.combinations(sorted(bs.off_diag), 2):
            if len(set(t1) & set(t2)) > 1:
                raise AssertionError("freeness property violated after pruning")
        if len(final) <= 2 * m * n:
            notes = {
                "sampled": len(triples),
                "after_prune": len(kept),
                "constant": len(final) / (m * n) if m * n else 0.0,
                "attempt": attempt,
            }
            return HardInstance(bs, min(n, math.ceil(n * math.log(n) / math.sqrt(m))),
                                float(len(final)), notes)
    raise RuntimeError(f"failed to build a free instance within {max_retries} retries")


def power_mean_select(a: Sequence[float], b: Sequence[float]) -> int:
    """Index maximizing a_i^{3/2} / b_i^{1/2}; beats the mean-based floor."""
    if len(a) != len(b) or not a:
        raise ValueError("need equal-length nonempty inputs")
    if any(v <= 0 for v in a) or any(v <= 0 for v in b):
        raise ValueError("entries must be positive")
    return max(range(len(a)), key=lambda i: (1.5 * math.log(a[i]) - 0.5 * math.log(b[i]), -i))


DEFAULT_PIPELINE_ALPHA_COUNTS: dict[Triple, int] = {
    (0, 0, 2): 1,
    (0, 1, 1): 1,
    (1, 0, 1): 10,
}


@dataclass(frozen=True)
class PipelineStats:
    """Exact counters from one run of the block-level hashing pipeline."""

    n: int
    q: int
    seed: int
    alpha_counts: Mapping[Triple, int]
    N_B: int
    N_alpha: int
    N_T: int
    R: Fraction
    M: int
    A_size: int
    C1: int
    C2: int
    C3: int
    C1_prime: int
    L: int
    w: tuple[int, ...]
    hash_linearity_ok: bool
    block_disjoint_ok: bool
    zero_out_bound: float

    def __post_init__(self) -> None:
        if self.C1_prime > self.C1:
            raise ValueError("C1' cannot exceed C1")
        if self.L > self.C1:
            raise ValueError("L exceeds the alpha-consistent survivor count")
        if not _is_prime(self.M):
            raise ValueError("M must be prime")


def _alpha_counts(n: int, alpha: SupportDistribution | Mapping[Triple, int] | None) -> dict[Triple, int]:
    if alpha is None:
        counts = dict(DEFAULT_PIPELINE_ALPHA_COUNTS)
    elif isinstance(alpha, SupportDistribution):
        counts = {}
        for trip, p in alpha.weights.items():
            scaled = p * n
            c = round(scaled)
            if abs(scaled - c) > 1e-9:
                raise ValueError(f"alpha weight {p} for {trip} is not on the 1/{n} grid")
            if c:
                counts[trip] = int(c)
    else:
        counts = {t: int(c) for t, c in alpha.items() if c}
    if sum(counts.values()) != n:
        raise ValueError(f"alpha counts must sum to n = {n}")
    return counts


def _multinomial(n: int, parts: Iterable[int]) -> int:
    out = math.factorial(n)
    for p in parts:
        out //= math.factorial(p)
    return out


def _distribution_class(
    support: Sequence[Triple], counts: Mapping[Triple, int]
) -> list[dict[Triple, int]]:
    """All integer count vectors on the support sharing counts' marginals."""
    xm, ym, zm = marginal_sums(counts)
    n = sum(counts.values())
    out: list[dict[Triple, int]] = []
    trips = sorted(support)

    def rec(idx: int, remaining: int, xr: dict, yr: dict, zr: dict, acc: dict) -> None:
        if idx == len(trips):
            if remaining == 0 and not any(xr.values()) and not any(yr.values()) \
                    and not any(zr.values()):
                out.append(dict(acc))
            return
        (i, j, k) = trips[idx]
        cap = min(remaining, xr.get(i, 0), yr.get(j, 0), zr.get(k, 0))
        for c in range(cap, -1, -1):
            if c:
                acc[trips[idx]] = c
                xr[i] -= c
                yr[j] -= c
                zr[k] -= c
            rec(idx + 1, remaining - c, xr, yr, zr, acc)
            if c:
                xr[i] += c
                yr[j] += c
                zr[k] += c
                del acc[trips[idx]]

    rec(0, n, dict(xm), dict(ym), dict(zm), {})
    return out


def simulate_laser_pipeline(
    q: int,
    n: int,
    alpha: SupportDistribution | Mapping[Triple, int] | None = None,
    seed: int = 0,
    zero_out_trials: int = 8,
    cap: int = 10 ** 6,
) -> PipelineStats:
    """One seeded run of the four-step block-level pipeline on CW_q^n (cubed).

    Step 1 keeps the marginal-consistent blocks (counted by multinomials),
    step 2 counts the nonzero block triples per distribution class, step 3
    hashes blocks into a progression-free set of Z_M, and step 4 greedily
    removes shared blocks and applies the randomized diagonalization.  All
    counters are exact integers.
    """
    cw = build_cw(q)
    support = sorted(support_block_triples(cw))
    P = sum(support[0])
    counts = _alpha_counts(n, alpha)
    for trip in counts:
        if trip not in set(support):
            raise ValueError(f"alpha triple {trip} outside the CW block support")

    xm, ym, zm = marginal_sums(counts)
    mult_side = (
        _multinomial(n, xm.values()),
        _multinomial(n, ym.values()),
        _multinomial(n, zm.values()),
    )
    N_B = mult_side[0] * mult_side[1] * mult_side[2]
    mult_alpha = _multinomial(n, counts.values())
    N_alpha = mult_alpha ** 3
    betas = _distribution_class(support, counts)
    per_copy_total = sum(_multinomial(n, b.values()) for b in betas)
    N_T = per_copy_total ** 3
    if N_B > cap or per_copy_total > cap:
        raise CapExceededError(
            f"instance too large to enumerate: N_B={N_B}, sequences={per_copy_total}, cap={cap}"
        )
    R = Fraction(N_alpha, N_B)
    m_floor = max(5, math.ceil(R * 100))
    M = m_floor
    while not _is_prime(M):
        M += 1
    A = behrend_set(M)
    A_arr = np.array(sorted(A.elements), dtype=np.int64)

    # Enumerate the per-copy label sequences with the right side marginals.
    seqs: list[tuple[Triple, ...]] = []
    alpha_flags: list[bool] = []
    for beta in betas:
        bag = []
        for trip, c in sorted(beta.items()):
            bag.extend([trip] * c)
        is_alpha = beta == counts
        for perm in _multiset_permutations(bag):
            seqs.append(perm)
            alpha_flags.append(is_alpha)
    W = len(seqs)
    X = np.array([[t[0] for t in s] for s in seqs], dtype=np.int64)
    Y = np.array([[t[1] for t in s] for s in seqs], dtype=np.int64)
    Z = np.array([[t[2] for t in s] for s in seqs], dtype=np.int64)
    is_alpha_arr = np.array(alpha_flags)

    rng = np.random.default_rng(seed)
    w = rng.integers(0, M, size=3 * n + 1)
    w0 = int(w[0])
    banks = (w[1:n + 1], w[n + 1:2 * n + 1], w[2 * n + 1:])
    SW = int(np.sum(w[1:])) % M

    u = [X @ banks[r] % M for r in range(3)]
    v = [Y @ banks[r] % M for r in range(3)]
    tt = [Z @ banks[r] % M for r in range(3)]

    # Pair grids over (copy-1 sequence, copy-3 sequence).
    px = (-(u[0][:, None] + tt[2][None, :])) % M
    py = (-(v[0][:, None] + u[2][None, :])) % M
    pz = (-(tt[0][:, None] + v[2][None, :])) % M

    # (s1, s2, s3) survives with g when u[1], v[1], tt[1] at s2 equal
    #   v2 = g/2 + px,  t2 = (g - 2 w0)/2 + py,  u2 = w0 + P SW - g + pz.
    # The first fixes g = 2(v[1][s2] - px); the other two then become two
    # keys of s2 that must equal two keys of (s1, s3), and g must lie in A.
    key2 = (tt[1] - v[1]) % M + M * ((u[1] + 2 * v[1]) % M)
    order2 = np.argsort(key2, kind="stable")
    key2_sorted = key2[order2]
    want = ((py - px - w0) % M + M * ((w0 + P * SW + 2 * px + pz) % M)).ravel()
    left = np.searchsorted(key2_sorted, want, side="left")
    right = np.searchsorted(key2_sorted, want, side="right")
    inA = np.zeros(M, dtype=bool)
    inA[A_arr] = True
    survivors: list[tuple[int, int, int, int]] = []
    for flat in np.flatnonzero(right - left).tolist():
        s1, s3 = divmod(flat, W)
        for s2 in order2[left[flat]:right[flat]].tolist():
            g = 2 * (int(v[1][s2]) - int(px[s1, s3])) % M
            if inA[g]:
                survivors.append((s1, s2, s3, g))
    survivors.sort(key=lambda s: (s[3], s[0], s[2], s[1]))

    # Absolute hash checks on every survivor, straight from the definitions.
    def h_X(s1: int, s2: int, s3: int) -> int:
        return int(2 * (X[s1] @ banks[0] + Y[s2] @ banks[1] + Z[s3] @ banks[2])) % M

    def h_Y(s1: int, s2: int, s3: int) -> int:
        return int(2 * w0 + 2 * (Y[s1] @ banks[0] + Z[s2] @ banks[1] + X[s3] @ banks[2])) % M

    def h_Z(s1: int, s2: int, s3: int) -> int:
        return int(w0 + (P - Z[s1]) @ banks[0] + (P - X[s2]) @ banks[1] + (P - Y[s3]) @ banks[2]) % M

    hash_ok = True
    for (s1, s2, s3, g) in survivors:
        hx, hy, hz = h_X(s1, s2, s3), h_Y(s1, s2, s3), h_Z(s1, s2, s3)
        if (hx + hy) % M != (2 * hz) % M:
            hash_ok = False
        if not (hx == hy == hz == g and inA[g]):
            hash_ok = False

    C3 = len(survivors)
    alpha_survivors = [
        s for s in survivors
        if is_alpha_arr[s[0]] and is_alpha_arr[s[1]] and is_alpha_arr[s[2]]
    ]
    C1 = len(alpha_survivors)

    def blocks_of(s: tuple[int, int, int, int]):
        s1, s2, s3, _ = s
        bx = ("X", bytes(X[s1]), bytes(Y[s2]), bytes(Z[s3]))
        by = ("Y", bytes(Y[s1]), bytes(Z[s2]), bytes(X[s3]))
        bz = ("Z", bytes(Z[s1]), bytes(X[s2]), bytes(Y[s3]))
        return bx, by, bz

    C2 = 0
    for a, b in itertools.combinations(alpha_survivors, 2):
        if set(blocks_of(a)) & set(blocks_of(b)):
            C2 += 1
    C1_prime = max(0, C1 - 2 * C2)

    # Step 4 greedy: zero any block shared by >= 2 alpha-consistent triples.
    zeroed: set = set()
    active = list(alpha_survivors)
    while True:
        usage: dict = {}
        for s in active:
            for blk in blocks_of(s):
                usage.setdefault(blk, []).append(s)
        shared = [blk for blk, users in usage.items() if len(users) >= 2]
        if not shared:
            break
        blk = min(shared)
        zeroed.add(blk)
        active = [s for s in active if blk not in blocks_of(s)]
    remaining_all = [
        s for s in survivors if not (set(blocks_of(s)) & zeroed)
    ]

    # Map the surviving structure onto the diagonalization theorem: each
    # independent alpha-consistent triple becomes a diagonal index.
    diag_index: dict = {}
    for idx, s in enumerate(active):
        bx, by, bz = blocks_of(s)
        diag_index[bx] = idx
        diag_index[by] = idx
        diag_index[bz] = idx
    off: set[Triple] = set()
    for s in remaining_all:
        bx, by, bz = blocks_of(s)
        if bx not in diag_index or by not in diag_index or bz not in diag_index:
            continue
        trip = (diag_index[bx], diag_index[by], diag_index[bz])
        if trip[0] == trip[1] == trip[2]:
            continue
        if len(set(trip)) != 3:
            # A partially-shared triple would break the theorem's shape;
            # zero the duplicated diagonal index instead (conservative).
            dup = trip[0] if trip.count(trip[0]) > 1 else trip[1]
            diag_index = {blk: i for blk, i in diag_index.items() if i != dup}
            continue
        off.add(trip)
    live = sorted(set(diag_index.values()))
    relabel = {old: new for new, old in enumerate(live)}
    off = {
        (relabel[a], relabel[b], relabel[c])
        for (a, b, c) in off
        if a in relabel and b in relabel and c in relabel
    }
    if live:
        bs = BlockSupport(len(live), frozenset(off))
        zr = random_zero_out(bs, trials=zero_out_trials, seed=seed + 1)
        zr_kept = zr.kept
        L = len(zr_kept)
        bound = zr.bound
    else:
        zr_kept: frozenset[int] = frozenset()
        L, bound = 0, 0.0

    kept_original = [live[i] for i in sorted(zr_kept)] if live else []
    final = [active[i] for i in kept_original]
    block_disjoint_ok = True
    seen_blocks: set = set()
    for s in final:
        for blk in blocks_of(s):
            if blk in seen_blocks:
                block_disjoint_ok = False
            seen_blocks.add(blk)

    return PipelineStats(
        n=n, q=q, seed=seed,
        alpha_counts=dict(sorted(counts.items())),
        N_B=N_B, N_alpha=N_alpha, N_T=N_T, R=R, M=M, A_size=A.size,
        C1=C1, C2=C2, C3=C3, C1_prime=C1_prime, L=L,
        w=tuple(int(x) for x in w),
        hash_linearity_ok=hash_ok,
        block_disjoint_ok=block_disjoint_ok,
        zero_out_bound=bound,
    )
