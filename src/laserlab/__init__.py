"""Laser-method value bounds for Coppersmith-Winograd tensor powers.

The package is organized around six parts:

- ``tensor_core``: sparse 0/1 trilinear forms, the CW tensor family,
  Kronecker powers, block grading and zeroing-outs.
- ``distributions``: probability distributions on the block-triple support
  of a partitioned tensor, their marginals and entropy-derived quantities.
- ``solver``: entropy maximization with fixed marginals (iterative
  proportional fitting), the trade-off program on a marginal class, and
  the heuristic searches over the full simplex.
- ``laser_engine``: the refined value bound, recursive analysis of CW
  powers with merging, Schonhage's inequality and the regula-falsi
  search for the omega threshold.
- ``construction_sim``: executable versions of the probabilistic
  constructions (progression-free sets, randomized diagonalization, the
  block-level hashing pipeline).
- ``cli``: the ``laserlab`` command-line front end.
"""

from laserlab.tensor_core import BlockTensor, ClassKey, build_cw, kronecker, zero_out
from laserlab.distributions import SupportDistribution, marginals
from laserlab.laser_engine import omega_bound, schonhage_tau  # noqa: E402

__all__ = [
    "BlockTensor",
    "ClassKey",
    "SupportDistribution",
    "build_cw",
    "kronecker",
    "marginals",
    "omega_bound",
    "schonhage_tau",
    "zero_out",
]

__version__ = "0.1.0"
