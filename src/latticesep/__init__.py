"""Symbol-error probabilities of finite multidimensional lattice constellations.

Exact error-rate decompositions over the constellation's facet geometry,
multiple-sphere lower/upper bounds, their classical single-sphere
counterparts, and a maximum-likelihood Monte Carlo simulator, all under
per-dimension AWGN with SNR defined as rho = 1 / sigma**2 for unit-volume
lattices.

The root exports what a caller needs to compute and check these curves.
The helpers behind them stay in their modules: the random streams in
:mod:`latticesep.streams`, the special functions in
:mod:`latticesep.special`, the SVG plot in :mod:`latticesep.svgplot`, and
the CSV writers in :mod:`latticesep.sep` and :mod:`latticesep.bounds`.
"""

from .bounds import Curve, SepEstimate, SepMethod, SnrGrid, mslb, msub, slb, sub
from .constellation import FiniteConstellation, facet_count, facet_weights, points_per_facet
from .cvp import BatchDecoder, Decoder, closest_point, enumerate_within_radius, voronoi_test_vectors
from .exceptions import BudgetError, ConvergenceError, InternalCheckError, LatticeSepError
from .lattices import (
    DminMethod,
    Lattice,
    catalog_lattice,
    catalog_names,
    is_integer_orthonormal,
    load_lattice,
    minimum_distance,
    read_lattice_file,
    write_lattice_file,
)
from .sep import JSource, SimPlan, exact_sep_theorem1, simulate_sep
from .special import q_function
from .streams import stream

__version__ = "0.1.0"

__all__ = [
    "BatchDecoder",
    "BudgetError",
    "ConvergenceError",
    "Curve",
    "Decoder",
    "DminMethod",
    "FiniteConstellation",
    "InternalCheckError",
    "JSource",
    "Lattice",
    "LatticeSepError",
    "SepEstimate",
    "SepMethod",
    "SimPlan",
    "SnrGrid",
    "catalog_lattice",
    "catalog_names",
    "closest_point",
    "enumerate_within_radius",
    "exact_sep_theorem1",
    "facet_count",
    "facet_weights",
    "is_integer_orthonormal",
    "load_lattice",
    "minimum_distance",
    "mslb",
    "msub",
    "points_per_facet",
    "q_function",
    "read_lattice_file",
    "simulate_sep",
    "slb",
    "stream",
    "sub",
    "voronoi_test_vectors",
    "write_lattice_file",
    "__version__",
]
