"""Dense complex matrix arithmetic, inverses and the spectral norm.

All operations are pure: inputs are never mutated and results are freshly
allocated, so matrices can be shared freely. Inverses and norms are LAPACK
calls through numpy, on one matrix or on a stack of them. One rule decides
singularity everywhere: ``sigma_min <= SINGULAR_RTOL * sigma_max``.
Singularity is reported as a value (``solve_inverse`` returns ``None``), not
as an exception, because downstream resolvent scans treat it as data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BadParameter, DimensionMismatch, OutOfRange, SchemaError

# A matrix is singular when sigma_min <= SINGULAR_RTOL * sigma_max.
SINGULAR_RTOL = 1e-14


class ComplexMatrix:
    """Immutable square matrix of complex128 entries.

    Construction validates squareness and finiteness; the backing array is
    marked read-only and exposed via :attr:`array`.
    """

    __slots__ = ("_a",)

    def __init__(self, entries) -> None:
        a = np.asarray(entries, dtype=np.complex128)
        if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
            raise BadParameter(f"expected a square matrix, got shape {a.shape}")
        if not np.isfinite(a).all():
            raise BadParameter("matrix entries must be finite")
        a = a.copy()
        a.setflags(write=False)
        self._a = a

    @property
    def dim(self) -> int:
        return self._a.shape[0]

    @property
    def array(self) -> np.ndarray:
        """Read-only complex128 view of the entries."""
        return self._a

    def adjoint(self) -> "ComplexMatrix":
        return ComplexMatrix(self._a.conj().T)

    @staticmethod
    def identity(dim: int) -> "ComplexMatrix":
        return ComplexMatrix(np.eye(dim, dtype=np.complex128))

    @staticmethod
    def zeros(dim: int) -> "ComplexMatrix":
        return ComplexMatrix(np.zeros((dim, dim), dtype=np.complex128))

    @staticmethod
    def diagonal(entries) -> "ComplexMatrix":
        values = np.asarray(entries, dtype=np.complex128)
        if values.ndim != 1 or values.size < 1:
            raise BadParameter("diagonal wants a nonempty 1-d entry list")
        return ComplexMatrix(np.diag(values))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ComplexMatrix(dim={self.dim})"


def jordan_block(dim: int, eigenvalue: complex) -> ComplexMatrix:
    """Single Jordan block: ``eigenvalue`` on the diagonal, ones above it."""
    if dim < 1:
        raise BadParameter("jordan_block needs dim >= 1")
    a = np.zeros((dim, dim), dtype=np.complex128)
    np.fill_diagonal(a, complex(eigenvalue))
    for i in range(dim - 1):
        a[i, i + 1] = 1.0
    return ComplexMatrix(a)


def _check_same_dim(a: ComplexMatrix, b: ComplexMatrix) -> None:
    if a.dim != b.dim:
        raise DimensionMismatch(f"dimensions differ: {a.dim} vs {b.dim}")


def add(a: ComplexMatrix, b: ComplexMatrix) -> ComplexMatrix:
    _check_same_dim(a, b)
    return ComplexMatrix(a.array + b.array)


def sub(a: ComplexMatrix, b: ComplexMatrix) -> ComplexMatrix:
    _check_same_dim(a, b)
    return ComplexMatrix(a.array - b.array)


def mul(a: ComplexMatrix, b: ComplexMatrix) -> ComplexMatrix:
    _check_same_dim(a, b)
    return ComplexMatrix(a.array @ b.array)


def scale(a: ComplexMatrix, factor: complex) -> ComplexMatrix:
    return ComplexMatrix(complex(factor) * a.array)


def matrix_power(a: ComplexMatrix, n: int) -> ComplexMatrix:
    """``a**n`` for n >= 0 by binary exponentiation; ``a**0`` is the identity."""
    if n < 0:
        raise OutOfRange("matrix_power wants n >= 0")
    result = np.eye(a.dim, dtype=np.complex128)
    base = a.array
    k = n
    while k:
        if k & 1:
            result = result @ base
        k >>= 1
        if k:
            base = base @ base
    return ComplexMatrix(result)


def max_abs(a: ComplexMatrix) -> float:
    """Largest entry magnitude (the max-abs norm)."""
    return float(np.abs(a.array).max())


# ---------------------------------------------------------------------------
# inverses and norms on LAPACK


def is_singular(s: np.ndarray) -> np.ndarray:
    """The singularity rule, applied to singular values ``s`` (..., n) in
    descending order: ``sigma_min <= SINGULAR_RTOL * sigma_max``."""
    return s[..., -1] <= SINGULAR_RTOL * s[..., 0]


def inverse_stack(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Inverses of a stack (..., n, n) of matrices, plus the mask of members
    that are singular under :func:`is_singular`; those members hold NaN."""
    singular = is_singular(np.linalg.svd(a, compute_uv=False))
    inv = np.linalg.inv(np.where(singular[..., None, None], np.eye(a.shape[-1]), a))
    inv[singular] = np.nan
    return inv, singular


@dataclass(frozen=True)
class Inverse:
    """An inverse together with its max-abs residual ``|a @ inv - I|``."""

    matrix: ComplexMatrix
    residual: float


def solve_inverse_stack(a: np.ndarray) -> tuple[np.ndarray, list[Inverse | None]]:
    """:func:`solve_inverse` on each member of a stack (k, n, n): the inverses of
    :func:`inverse_stack` (NaN where singular) and one Inverse or None per member."""
    inv, singular = inverse_stack(a)
    residuals = np.abs(a @ inv - np.eye(a.shape[-1])).max(axis=(-2, -1))
    return inv, [
        None if sing else Inverse(ComplexMatrix(m), float(res))
        for m, sing, res in zip(inv, singular, residuals)
    ]


def solve_inverse(a) -> Inverse | None:
    """LAPACK inverse; ``None`` signals a singular input (see :func:`is_singular`).

    Accepts a ComplexMatrix or a raw square array.
    """
    mat = a if isinstance(a, ComplexMatrix) else ComplexMatrix(a)
    return solve_inverse_stack(mat.array[None])[1][0]


def spectral_norms(a: np.ndarray) -> np.ndarray:
    """Largest singular value of each matrix in a stack (..., n, n).

    A member with a non-finite entry (an overflowed power, or a NaN slot from
    :func:`inverse_stack`) has norm inf.
    """
    finite = np.isfinite(a).all(axis=(-2, -1))
    norms = np.full(finite.shape, np.inf)
    norms[finite] = np.linalg.svd(a[finite], compute_uv=False)[..., 0]
    return norms


def operator_norm(a) -> float:
    """Spectral (2-)norm of a ComplexMatrix or a raw square array."""
    return float(spectral_norms(a.array if isinstance(a, ComplexMatrix) else a))


# ---------------------------------------------------------------------------
# JSON form: {"dim": n, "re": [...], "im": [...]} with row-major entries


def matrix_to_dict(a) -> dict:
    """Row-major JSON form; accepts a ComplexMatrix or a raw square array."""
    mat = a if isinstance(a, ComplexMatrix) else ComplexMatrix(a)
    flat = mat.array.ravel()
    return {
        "dim": mat.dim,
        "re": [float(v) for v in flat.real],
        "im": [float(v) for v in flat.imag],
    }


def matrix_from_dict(data: object, path: str = "") -> ComplexMatrix:
    if not isinstance(data, dict):
        raise SchemaError("expected a matrix object", path)
    missing = {"dim", "re", "im"} - set(data)
    if missing:
        raise SchemaError(f"missing keys {sorted(missing)}", path)
    dim = data["dim"]
    if not isinstance(dim, int) or dim < 1:
        raise SchemaError("dim must be a positive integer", f"{path}/dim")
    for key in ("re", "im"):
        part = data[key]
        if not isinstance(part, list) or len(part) != dim * dim:
            raise SchemaError(f"expected {dim * dim} numbers", f"{path}/{key}")
        if not all(isinstance(v, (int, float)) for v in part):
            raise SchemaError("entries must be numbers", f"{path}/{key}")
    re = np.array(data["re"], dtype=np.float64).reshape(dim, dim)
    im = np.array(data["im"], dtype=np.float64).reshape(dim, dim)
    try:
        return ComplexMatrix(re + 1j * im)
    except BadParameter as exc:
        raise SchemaError(str(exc), path) from exc
