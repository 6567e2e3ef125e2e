"""Symbol-error probabilities of finite multidimensional lattice constellations.

Exact error-rate decompositions over the constellation's facet geometry,
multiple-sphere lower/upper bounds, their classical single-sphere
counterparts, and a maximum-likelihood Monte Carlo simulator, all under
per-dimension AWGN with SNR defined as rho = 1 / sigma**2 for unit-volume
lattices.
"""

from .bounds import (
    Curve,
    SepEstimate,
    SepMethod,
    SnrGrid,
    curve_csv_rows,
    format_sig,
    mslb,
    msub,
    slb,
    sub,
    write_curve_csv,
)
from .constellation import FiniteConstellation, facet_count, facet_weights, points_per_facet
from .cvp import (
    BatchDecoder,
    Decoder,
    closest_point,
    enumerate_within_radius,
    shortest_vector_norm,
    triangularize,
    voronoi_test_vectors,
)
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
    sublattice_generator,
    write_lattice_file,
)
from .sep import (
    JSource,
    SimPlan,
    exact_sep_theorem1,
    sep_csv_rows,
    simulate_sep,
    write_sep_csv,
)
from .special import clamp_probability, q_function, regularized_gamma_upper
from .streams import SHARD_SIZE, derive_seed, standard_normals, stream, uniform_symbols
from .svgplot import CurveSeries, render_svg, write_svg

__version__ = "0.1.0"

__all__ = [
    "BatchDecoder",
    "BudgetError",
    "ConvergenceError",
    "Curve",
    "CurveSeries",
    "Decoder",
    "DminMethod",
    "FiniteConstellation",
    "InternalCheckError",
    "JSource",
    "Lattice",
    "LatticeSepError",
    "SHARD_SIZE",
    "SepEstimate",
    "SepMethod",
    "SimPlan",
    "SnrGrid",
    "catalog_lattice",
    "catalog_names",
    "clamp_probability",
    "closest_point",
    "curve_csv_rows",
    "derive_seed",
    "enumerate_within_radius",
    "exact_sep_theorem1",
    "facet_count",
    "facet_weights",
    "format_sig",
    "is_integer_orthonormal",
    "load_lattice",
    "minimum_distance",
    "mslb",
    "msub",
    "points_per_facet",
    "q_function",
    "read_lattice_file",
    "regularized_gamma_upper",
    "render_svg",
    "sep_csv_rows",
    "shortest_vector_norm",
    "simulate_sep",
    "slb",
    "standard_normals",
    "stream",
    "sub",
    "sublattice_generator",
    "triangularize",
    "uniform_symbols",
    "voronoi_test_vectors",
    "write_curve_csv",
    "write_lattice_file",
    "write_sep_csv",
    "write_svg",
    "__version__",
]
