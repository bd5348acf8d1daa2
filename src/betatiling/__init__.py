"""Exact beta-expansions for Pisot units and the multiple tilings they generate.

Layers:

- :mod:`betatiling.numfield`: exact arithmetic in Q(beta), certified conjugate
  enclosures, the lattice and hyperplane embeddings.
- :mod:`betatiling.betamap`: piecewise-linear expansion maps, exact orbits and
  admissibility, boundary-orbit intervals, invariant densities.
- :mod:`betatiling.tiling`: graph-directed tile clouds, extension domains,
  purely periodic points, exact tile membership, covering estimates.
- :mod:`betatiling.sofic`: the factor automaton and the exact tiling decision
  through difference machines.
- :mod:`betatiling.cli`: the ``betatiling`` command.

All exact operations are pure and all published objects immutable, so the
library is safe to use from multiple threads.
"""

from .numfield import (HPoint, PisotField, QBeta, gamma, make_field, phi, pi1,
                       psi, qb_compare)
from .betamap import (BetaTransform, Expansion, IntervalQB, VData,
                      build_transform, compute_v, expand, expansion_value,
                      invariant_density, is_admissible, preset,
                      restrict_to_support, supported, transform_from_config,
                      word_from_digits)
from .tiling import (GifsGraph, MembershipReport, PeriodicSet, TileCloud,
                     check_f, check_w, covering_degree_estimate, gifs_build,
                     natext_domain, purely_periodic_points, tile_cloud,
                     tiles_containing, torus_translates)
from .sofic import (DiffTransducer, ShiftAutomaton, build_automaton,
                    build_diff_transducer, decide_tiling, forbidden_words)

__version__ = "0.1.0"
