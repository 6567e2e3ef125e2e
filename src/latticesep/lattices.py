"""Lattice construction: the built-in catalog, user matrices, sublattices.

Generators are square matrices whose *columns* are the basis vectors, scaled
to unit fundamental volume (``|det| == 1``) so that the SNR convention
``rho = 1 / sigma**2`` is comparable across lattices.  ``W`` denotes the mean
basis-vector norm and ``d_min`` the minimum distance between lattice points.
"""

from __future__ import annotations

import enum
import json
import math
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .cvp import shortest_vector_norm
from .exceptions import BudgetError, InternalCheckError

_MAX_ZN_DIM = 16
_ENUMERATE_MAX_DIM = 12
_UNIT_DET_TOL = 1e-9
_GRAM_TOL = 1e-10


class DminMethod(enum.Enum):
    """How ``minimum_distance`` obtains its value."""

    BASIS_MIN = "basis_min"
    ENUMERATE = "enumerate"


def _square_finite(matrix) -> np.ndarray:
    """``matrix`` as a new float array, else a ``ValueError`` naming the generator."""
    m = np.array(matrix, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
        raise ValueError(f"generator must be a square matrix of at least 1x1, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("generator has non-finite entries")
    return m


@dataclass(frozen=True, eq=False)
class Lattice:
    """A unit-volume lattice, checked where it is built.

    ``name``, ``generator`` and ``d_min`` are given; the other attributes
    are derived from them.  Building one (``dataclasses.replace`` too)
    raises ``ValueError`` naming the field unless the name holds no comma,
    double quote, CR or LF (it is written raw into CSV rows), the
    generator is square and finite with ``|det| == 1`` within 1e-9, and
    ``0 < d_min <=`` the shortest basis norm.

    Attributes
    ----------
    name : str
        Catalog name or user-supplied label.
    generator : ndarray, shape (N, N)
        Basis vectors as columns: a read-only float copy of the given matrix.
    d_min : float
        Minimum distance: the known value for catalog lattices, the
        enumerated one for user lattices.
    dimension : int
        Ambient (and lattice) dimension N.
    basis_norms : ndarray, shape (N,)
        Euclidean norms of the basis vectors.
    mean_norm : float
        W, the mean of ``basis_norms``.
    """

    name: str
    generator: np.ndarray
    d_min: float
    dimension: int = field(init=False)
    basis_norms: np.ndarray = field(init=False)
    mean_norm: float = field(init=False)

    def __post_init__(self):
        if not isinstance(self.name, str) or any(c in self.name for c in ',"\r\n'):
            raise ValueError(f"name {self.name!r} is not a string free of comma, double quote, CR and LF")
        m = _square_finite(self.generator)
        det = abs(float(np.linalg.det(m)))
        if abs(det - 1.0) > _UNIT_DET_TOL:
            raise ValueError(f"generator of {self.name!r}: |det| = {det!r} deviates from 1 beyond 1e-9")
        norms = np.linalg.norm(m, axis=0)
        d_min, shortest = float(self.d_min), float(norms.min())
        if not 0.0 < d_min <= shortest:
            raise ValueError(f"d_min = {d_min!r} is not in (0, {shortest!r}], the shortest basis norm")
        m.setflags(write=False)
        norms.setflags(write=False)
        for key, value in (("generator", m), ("d_min", d_min), ("dimension", m.shape[0]),
                           ("basis_norms", norms), ("mean_norm", float(norms.mean()))):
            object.__setattr__(self, key, value)


def _a2_matrix() -> np.ndarray:
    # Hexagonal lattice scaled to unit cell area: both basis vectors have
    # norm sqrt(2/sqrt(3)) and meet at 60 degrees.
    s = math.sqrt(3.0)
    return np.array(
        [
            [math.sqrt(2.0 / s), math.sqrt(1.0 / (2.0 * s))],
            [0.0, math.sqrt(3.0 / (2.0 * s))],
        ]
    )


def _e4_matrix() -> np.ndarray:
    # Checkerboard-type packing in 4 dimensions at unit volume: the column
    # (1,1,1,1)/8^(1/4) plus doubled unit vectors; all basis norms 2/8^(1/4).
    scale = 8.0 ** -0.25
    m = np.array(
        [
            [1.0, 2.0, 0.0, 0.0],
            [1.0, 0.0, 2.0, 0.0],
            [1.0, 0.0, 0.0, 2.0],
            [1.0, 0.0, 0.0, 0.0],
        ]
    )
    return scale * m


def _e8_matrix() -> np.ndarray:
    # Unit-volume even packing in 8 dimensions: upper triangular, diagonal
    # (2, 1, 1, 1, 1, 1, 1, 1/2), superdiagonal -1, last column all 1/2.
    m = np.zeros((8, 8))
    m[0, 0] = 2.0
    for i in range(1, 7):
        m[i, i] = 1.0
    m[7, 7] = 0.5
    for i in range(6):
        m[i, i + 1] = -1.0
    m[:, 7] = 0.5
    return m


_ZN_RE = re.compile(r"^Z_?([0-9]+)$", re.IGNORECASE)
_CATALOG = {"A2": _a2_matrix, "E4": _e4_matrix, "E8": _e8_matrix}


def catalog_names() -> tuple[str, ...]:
    """Representative names of the built-in lattices (Z_N accepts N = 1..16)."""
    return ("Z2", "A2", "E4", "E8")


def catalog_lattice(name: str) -> Lattice:
    """One of the built-in lattices: ``Z1``..``Z16``, ``A2``, ``E4``, ``E8``.

    All catalog generators have unit determinant without rescaling (else the
    :class:`Lattice` check raises ``ValueError``), and their shortest basis
    vector is a shortest lattice vector, so that norm is ``d_min``.
    """
    key = str(name).strip().upper()
    match = _ZN_RE.match(key)
    if match:
        n = int(match.group(1))
        if not 1 <= n <= _MAX_ZN_DIM:
            raise ValueError(f"Z_N is available for 1 <= N <= {_MAX_ZN_DIM}, got N={n}")
        key, m = f"Z{n}", np.eye(n)
    elif key in _CATALOG:
        m = _CATALOG[key]()
    else:
        raise ValueError(f"unknown catalog lattice {name!r}; available: Z1..Z16, A2, E4, E8")
    return Lattice(key, m, float(np.linalg.norm(m, axis=0).min()))


def load_lattice(matrix, name: str = "user", normalize: bool = True) -> Lattice:
    """Build a :class:`Lattice` from a square generator matrix.

    Parameters
    ----------
    matrix : array_like, shape (N, N)
        Basis vectors as columns.
    name : str
        Label carried through results and CSV output, so it may hold no
        comma, double quote, CR or LF (``ValueError``).
    normalize : bool
        Scale by ``|det|**(-1/N)`` to unit fundamental volume.  With
        ``normalize=False`` the matrix must already have ``|det| == 1``
        within 1e-9.  ``mean_norm`` and ``d_min`` always describe the stored
        (normalized) basis.

    ``d_min`` is found by complete shortest-vector enumeration, so user
    lattices are limited to N <= 12 (:class:`BudgetError` above).
    """
    m = _square_finite(matrix)
    det = abs(float(np.linalg.det(m)))
    if det < 1e-12:
        raise ValueError("generator is singular (|det| < 1e-12)")
    if normalize:
        m = m * det ** (-1.0 / m.shape[0])
    # The shortest basis vector overestimates d_min for unreduced bases.
    return Lattice(name, m, _enumerated_d_min(m))


def minimum_distance(lattice: Lattice, method: DminMethod = DminMethod.BASIS_MIN) -> float:
    """Minimum distance of the lattice.

    ``BASIS_MIN`` returns the shortest basis-vector norm, an upper bound that
    is exact for every catalog lattice.  ``ENUMERATE`` runs a complete
    shortest-vector search (all coefficient vectors inside the BASIS_MIN
    radius) and is limited to dimension 12.
    """
    if method is DminMethod.BASIS_MIN:
        return float(lattice.basis_norms.min())
    if method is DminMethod.ENUMERATE:
        return _enumerated_d_min(lattice.generator)
    raise ValueError(f"unknown minimum-distance method {method!r}")


def _enumerated_d_min(generator: np.ndarray) -> float:
    n = generator.shape[0]
    if n > _ENUMERATE_MAX_DIM:
        raise BudgetError(f"shortest-vector enumeration supports N <= {_ENUMERATE_MAX_DIM}, got N={n}")
    return shortest_vector_norm(generator)


def sublattice_generator(lattice: Lattice, subset) -> np.ndarray:
    """Square generator of the ``k``-face sublattice spanned by ``subset``.

    ``subset`` holds 1-based basis indices, strictly increasing, with
    values in ``[1, N]``.  The selected ``N x k`` columns are rotated into
    their own span by orthogonal-triangular factorization; the returned
    ``k x k`` upper triangular matrix (positive diagonal) has exactly the
    same Gram matrix, checked to 1e-10 times ``max(1, max |Gram|)``.
    """
    subset = tuple(int(i) for i in subset)
    n = lattice.dimension
    if len(subset) < 1:
        raise ValueError("subset must contain at least one basis index")
    if any(i < 1 or i > n for i in subset):
        raise ValueError(f"subset indices must lie in [1, {n}], got {subset}")
    if any(a >= b for a, b in zip(subset, subset[1:])):
        raise ValueError(f"subset must be strictly increasing, got {subset}")
    cols = lattice.generator[:, [i - 1 for i in subset]]
    _, r = np.linalg.qr(cols, mode="reduced")
    signs = np.sign(np.diagonal(r))
    if np.any(signs == 0.0):
        raise InternalCheckError("sublattice columns are numerically rank-deficient")
    r = r * signs[:, None]
    gram_in = cols.T @ cols
    gram_out = r.T @ r
    if np.max(np.abs(gram_in - gram_out)) > _GRAM_TOL * max(1.0, np.max(np.abs(gram_in))):
        raise InternalCheckError("sublattice triangularization failed the Gram check")
    return r


def write_lattice_file(lattice: Lattice, path) -> None:
    """Serialize a lattice to UTF-8 JSON: name, dimension, row-major generator.

    Floats are written with ``repr`` round-trip precision, so reading the
    file back reproduces the generator bit for bit.
    """
    payload = {
        "name": lattice.name,
        "dimension": lattice.dimension,
        "generator": [[float(v) for v in row] for row in lattice.generator],
        "normalize": False,
    }
    Path(path).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8", newline="\n")


def read_lattice_file(path) -> Lattice:
    """Read a UTF-8 lattice JSON file written by :func:`write_lattice_file`.

    ``dimension`` must be a JSON integer and the optional ``normalize`` a
    JSON boolean (``false`` when absent); it applies :func:`load_lattice`
    semantics: files carrying ``normalize: true`` are rescaled to unit
    volume on load.
    """
    text = Path(path).read_text(encoding="utf-8")
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}") from None
    if not isinstance(payload, dict):
        raise ValueError(f"{path}: top level must be an object, got {type(payload).__name__}")
    for field in ("name", "dimension", "generator"):
        if field not in payload:
            raise ValueError(f"{path}: missing required field {field!r}")
    dimension, normalize = payload["dimension"], payload.get("normalize", False)
    if type(dimension) is not int:
        raise ValueError(f"{path}: dimension must be an integer, got {dimension!r}")
    if not isinstance(normalize, bool):
        raise ValueError(f"{path}: normalize must be true or false, got {normalize!r}")
    try:
        matrix = np.array(payload["generator"], dtype=float)
    except (TypeError, ValueError):
        raise ValueError(f"{path}: generator must be a list of rows of numbers") from None
    if matrix.ndim != 2 or matrix.shape != (dimension, dimension):
        raise ValueError(f"{path}: generator shape {matrix.shape} does not match dimension {dimension}")
    return load_lattice(matrix, name=payload["name"], normalize=normalize)


def is_integer_orthonormal(lattice: Lattice) -> bool:
    """True when the generator is exactly the identity (the Z^N case)."""
    return bool(np.array_equal(lattice.generator, np.eye(lattice.dimension)))


__all__ = [
    "DminMethod",
    "Lattice",
    "catalog_lattice",
    "catalog_names",
    "is_integer_orthonormal",
    "load_lattice",
    "minimum_distance",
    "read_lattice_file",
    "sublattice_generator",
]
