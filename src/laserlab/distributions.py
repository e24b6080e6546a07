"""Probability distributions on a block support and their derived quantities.

Everything downstream of the laser bound works with a distribution alpha on
the support triples of a partitioned tensor.  Three scalar functionals of
alpha drive the value bound: alpha_B (a function of the marginals only),
alpha_N (the perplexity of alpha), and alpha_V (a value-weighted geometric
mean).  All three are kept in natural-log domain; at large powers the raw
products overflow doubles.

The refined-bound formula (``bound_terms``, ``refined_combination``) and the
dual certificate on a class's maximum entropy (``entropy_dual_bound``) live
here, in plain Python over any arithmetic, so the search (``solver``, on
numpy) and the certifier (``laser_engine``, on mpmath) share them and the
certifier never loads numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

from .tensor_core import Triple

SUM_TOLERANCE = 1e-12
RENORM_TOLERANCE = 1e-9


class InfeasibleMarginalsError(ValueError):
    """No distribution on the support attains the requested marginals."""

    def __init__(self, message: str, best_residual: float = math.inf):
        super().__init__(f"{message} (best residual {best_residual:.3e})")
        self.best_residual = best_residual


def entropy(weights: Iterable, log: Callable = math.log):
    """Shannon entropy in nats, with 0 ln 0 = 0.

    ``log`` picks the arithmetic: ``math.log`` for floats, ``mpmath.log``
    for extended-precision weights.
    """
    return -sum(p * log(p) for p in weights if p > 0)


@dataclass(frozen=True)
class SupportDistribution:
    """A probability distribution on a set of support triples.

    The constructor renormalizes inputs whose total is within 1e-9 of 1 and
    rejects anything worse; after construction the weights sum to 1 within
    1e-12.  Triples with weight exactly 0 may be kept or dropped by the
    caller; both are valid.
    """

    weights: Mapping[Triple, float]

    def __post_init__(self) -> None:
        total = math.fsum(self.weights.values())
        if not math.isfinite(total) or abs(total - 1.0) > RENORM_TOLERANCE:
            raise ValueError(f"weights sum to {total!r}, not 1 within {RENORM_TOLERANCE}")
        for trip, p in self.weights.items():
            if p < -SUM_TOLERANCE:
                raise ValueError(f"negative weight {p!r} at {trip}")
        if abs(total - 1.0) > SUM_TOLERANCE:
            scaled = {t: max(0.0, p) / total for t, p in self.weights.items()}
            object.__setattr__(self, "weights", scaled)
        else:
            object.__setattr__(
                self, "weights", {t: max(0.0, p) for t, p in self.weights.items()}
            )

    @property
    def support(self) -> frozenset[Triple]:
        return frozenset(self.weights)

    def __getitem__(self, triple: Triple) -> float:
        return self.weights.get(triple, 0.0)

    @staticmethod
    def point_mass(triple: Triple) -> "SupportDistribution":
        return SupportDistribution({triple: 1.0})

    @staticmethod
    def uniform(support: Iterable[Triple]) -> "SupportDistribution":
        trips = list(support)
        if not trips:
            raise ValueError("empty support")
        p = 1.0 / len(trips)
        return SupportDistribution({t: p for t in trips})


@dataclass(frozen=True)
class Marginals:
    """Per-block marginal probabilities on the three sides."""

    x_marg: Mapping[int, float]
    y_marg: Mapping[int, float]
    z_marg: Mapping[int, float]

    def __post_init__(self) -> None:
        for name, side in (("x", self.x_marg), ("y", self.y_marg), ("z", self.z_marg)):
            total = math.fsum(side.values())
            if abs(total - 1.0) > RENORM_TOLERANCE:
                raise ValueError(f"{name} marginal sums to {total!r}")

    def as_tuple(self) -> tuple[Mapping[int, float], Mapping[int, float], Mapping[int, float]]:
        return (self.x_marg, self.y_marg, self.z_marg)


@dataclass(frozen=True)
class DerivedQuantities:
    """log alpha_B, log alpha_N, log alpha_V for a distribution."""

    log_alpha_B: float
    log_alpha_N: float
    log_alpha_V: float

    def __post_init__(self) -> None:
        if self.log_alpha_N < -1e-9 or self.log_alpha_B < -1e-9:
            raise ValueError("negative entropy term")


def marginal_sums(weights: Mapping[Triple, object]) -> tuple[dict, dict, dict]:
    """Per-block sums of a weights mapping on the x, y and z sides."""
    x: dict = {}
    y: dict = {}
    z: dict = {}
    for (i, j, k), p in weights.items():
        x[i] = x.get(i, 0) + p
        y[j] = y.get(j, 0) + p
        z[k] = z.get(k, 0) + p
    return x, y, z


def marginals(alpha: SupportDistribution) -> Marginals:
    """Exact per-block marginal sums on each of the three sides."""
    return Marginals(*marginal_sums(alpha.weights))


def bound_terms(
    weights: Mapping[Triple, object],
    marg: Marginals,
    log_values: Mapping[Triple, object],
    num=math,
) -> tuple:
    """(ln alpha_V, ln alpha_B, ln alpha_N) of weights whose class is ``marg``.

    ``num`` is the arithmetic: ``math`` for the search, ``mpmath`` for
    certification.  Only triples of positive weight need a log value.
    """
    log_v = num.fsum(p * log_values[t] for t, p in weights.items() if p > 0)
    log_b = sum(entropy(side.values(), num.log) for side in marg.as_tuple()) / 3
    return log_v, log_b, entropy(weights.values(), num.log)


def refined_combination(log_v, log_b, log_n, max_log_beta_n):
    """ln alpha_V + ln alpha_B + (ln alpha_N - max_beta ln beta_N) / 2.

    An upper bound M on the max is clamped to at least ln alpha_N, since
    alpha itself lies in its class.
    """
    return log_v + log_b + (log_n - max(max_log_beta_n, log_n)) / 2


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


def derived(
    alpha: SupportDistribution,
    subtensor_log_values: Mapping[Triple, float],
    tau: float,
) -> DerivedQuantities:
    """Compute the three log-domain products for a distribution.

    ``subtensor_log_values`` maps each support triple to ln of its (positive)
    value at the given tau; tau itself only enters through those values but
    is range-checked here as a guard against unit mistakes upstream.
    """
    if not (2.0 / 3.0 - 1e-12 <= tau <= 1.0 + 1e-12):
        raise ValueError(f"tau {tau} outside [2/3, 1]")
    for trip, p in alpha.weights.items():
        if p > 0.0 and not math.isfinite(subtensor_log_values[trip]):
            raise ValueError(f"nonpositive value for triple {trip}")
    log_v, log_b, log_n = bound_terms(alpha.weights, marginals(alpha), subtensor_log_values)
    return DerivedQuantities(log_alpha_B=log_b, log_alpha_N=log_n, log_alpha_V=log_v)


def round_to_grid(alpha: SupportDistribution, n: int) -> SupportDistribution:
    """Round every weight to the 1/n grid, keeping the total exactly 1.

    Floors each weight to a multiple of 1/n, then hands the K leftover
    increments to the triples with the largest remainders.  Ties break on
    the sorted triple key so the output is deterministic.  Each output
    weight lies within 1/n of its input.
    """
    if n < len(alpha.weights):
        raise ValueError(f"n = {n} below support size {len(alpha.weights)}")
    floors: dict[Triple, int] = {}
    remainders: list[tuple[float, Triple]] = []
    for trip, p in alpha.weights.items():
        scaled = p * n
        f = int(math.floor(scaled + 1e-12))
        f = min(f, n)
        floors[trip] = f
        remainders.append((scaled - f, trip))
    short = n - sum(floors.values())
    remainders.sort(key=lambda item: (-item[0], item[1]))
    for _, trip in remainders[:short]:
        floors[trip] += 1
    return SupportDistribution({t: f / n for t, f in floors.items()})


@dataclass(frozen=True)
class DriftReport:
    """Log-domain drifts between a distribution and its grid rounding."""

    n: int
    drift_alpha_N: float
    drift_alpha_B: float
    drift_alpha_V: float
    threshold: float
    within_threshold: bool


DRIFT_CONSTANT = 4.0


def ratio_drift_check(
    alpha: SupportDistribution,
    alpha_rounded: SupportDistribution,
    subtensor_log_values: Mapping[Triple, float],
    tau: float,
    n: int,
) -> DriftReport:
    """Compare derived quantities before and after grid rounding.

    The threshold C * |S| * (1 + |ln(1/n)|) / n with C = 4 is a concrete
    surrogate for the O(1/n) per-term drift estimates behind the rounding
    lemma; it is checked, not assumed.
    """
    d0 = derived(alpha, subtensor_log_values, tau)
    d1 = derived(alpha_rounded, subtensor_log_values, tau)
    size = max(len(alpha.weights), 1)
    threshold = DRIFT_CONSTANT * size * (1.0 + abs(math.log(1.0 / n))) / n
    dn = abs(d0.log_alpha_N - d1.log_alpha_N)
    db = abs(d0.log_alpha_B - d1.log_alpha_B)
    dv = abs(d0.log_alpha_V - d1.log_alpha_V)
    return DriftReport(
        n=n,
        drift_alpha_N=dn,
        drift_alpha_B=db,
        drift_alpha_V=dv,
        threshold=threshold,
        within_threshold=max(dn, db, dv) <= threshold,
    )


CYCLIC_GROUP: tuple[tuple[int, int, int], ...] = ((0, 1, 2), (1, 2, 0), (2, 0, 1))
FULL_S3: tuple[tuple[int, int, int], ...] = (
    (0, 1, 2),
    (0, 2, 1),
    (1, 0, 2),
    (1, 2, 0),
    (2, 0, 1),
    (2, 1, 0),
)


def _permute(triple: Triple, perm: tuple[int, int, int]) -> Triple:
    return (triple[perm[0]], triple[perm[1]], triple[perm[2]])


def symmetrize(
    alpha: SupportDistribution,
    group: Sequence[tuple[int, int, int]] = CYCLIC_GROUP,
    support: Iterable[Triple] | None = None,
) -> SupportDistribution:
    """Average a distribution over a group of role permutations.

    ``support`` is the ambient support S the group must stabilize; it
    defaults to the keyed triples of alpha.  Raises if any orbit leaves S.
    The caller asserts that per-triple values are invariant under the group;
    under that assumption symmetrizing never decreases the concave
    objectives built from alpha.
    """
    ambient = frozenset(support) if support is not None else alpha.support
    for perm in group:
        for trip in ambient:
            if _permute(trip, perm) not in ambient:
                raise ValueError(
                    f"group does not stabilize support: {trip} -> {_permute(trip, perm)}"
                )
    out: dict[Triple, float] = {}
    scale = 1.0 / len(group)
    for perm in group:
        for trip, p in alpha.weights.items():
            out[_permute(trip, perm)] = out.get(_permute(trip, perm), 0.0) + p * scale
    return SupportDistribution(out)
