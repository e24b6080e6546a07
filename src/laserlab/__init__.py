"""Laser-method value bounds for Coppersmith-Winograd tensor powers.

The package is organized around six parts:

- ``tensor_core``: sparse 0/1 trilinear forms, the CW tensor family,
  Kronecker powers, zeroing-outs, and which graded classes are nonzero.
- ``distributions``: probability distributions on the block-triple support
  of a partitioned tensor, their marginals and entropy-derived quantities,
  the refined-bound formula and the dual entropy certificate.
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

Importing the package loads none of them; import the submodule you use.
"""

__version__ = "0.1.0"
