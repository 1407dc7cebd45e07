"""Dense complex matrix arithmetic, inverses and the spectral norm.

All operations are pure: inputs are never mutated and results are freshly
allocated, so matrices can be shared freely. Inverses and norms are LAPACK
calls through numpy, on one matrix or on a stack of them; the singular
values of 2x2 matrices also have a closed form, for the resolvent field
sweeps, which would otherwise spend their time in LAPACK's cost per call.
One rule decides singularity everywhere:
``sigma_min <= SINGULAR_RTOL * sigma_max``. An inverse decides it without
singular values where it can: a residual bound on the computed inverse
certifies most members nonsingular, and only the members it leaves
undecided get an SVD. Singularity is reported as a value
(``solve_inverse`` returns ``None``), not as an exception, because
downstream resolvent scans treat it as data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BadParameter, DimensionMismatch, OutOfRange, SchemaError

# A matrix is singular when sigma_min <= SINGULAR_RTOL * sigma_max.
SINGULAR_RTOL = 1e-14

# Residual certificate for a computed inverse X of a (Higham, Accuracy and
# Stability of Numerical Algorithms, 2002, ch. 14). With R = a X - I and
# ||R|| < 1, a^{-1} = X (I + R)^{-1}, so sigma_max / sigma_min of a is at
# most ||a|| ||X|| / (1 - ||R||). Frobenius norms bound the 2-norms, so
# ||R||_F <= CERTIFIED_RESIDUAL and ||a||_F ||X||_F <= CERTIFIED_NORM_PRODUCT
# prove sigma_min / sigma_max >= CERTIFIED_RTOL. That is four decades above
# SINGULAR_RTOL: room for the rounding in R, in the norms and in an SVD,
# so the singular-value rule would call every certified member nonsingular.
CERTIFIED_RTOL = 1e4 * SINGULAR_RTOL
CERTIFIED_RESIDUAL = 0.5
CERTIFIED_NORM_PRODUCT = (1.0 - CERTIFIED_RESIDUAL) / CERTIFIED_RTOL


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


def sub(a: ComplexMatrix, b: ComplexMatrix) -> ComplexMatrix:
    if a.dim != b.dim:
        raise DimensionMismatch(f"dimensions differ: {a.dim} vs {b.dim}")
    return ComplexMatrix(a.array - b.array)


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
# singular values, inverses and norms


def is_singular(s: np.ndarray) -> np.ndarray:
    """The singularity rule, applied to singular values ``s`` (..., n) in
    descending order: ``sigma_min <= SINGULAR_RTOL * sigma_max``."""
    return s[..., -1] <= SINGULAR_RTOL * s[..., 0]


def singular_values_2x2(a, b, c, d) -> np.ndarray:
    """Singular values of the 2x2 matrices [[a, b], [c, d]], for complex entry
    arrays that broadcast together, as (..., 2) in descending order like
    ``np.linalg.svd(..., compute_uv=False)``. Closed form, no LAPACK call.

    Each matrix is divided by the power of two just above its largest entry
    magnitude, which is exact and leaves no product below able to overflow;
    one that underflows feeds only a singular value far below the
    singularity cutoff. A Givens rotation on the first column then leaves an
    upper-triangular [[f, g], [0, h]] with f = hypot(|a|, |c|),
    g = |conj(a) b + conj(c) d| / f and h = |a d - b c| / f, and LAPACK
    dlas2's formulas (Demmel and Kahan, SIAM J. Sci. Stat. Comput. 11, 1990)
    give its singular values.
    """
    ma, mb, mc, md = np.abs(a), np.abs(b), np.abs(c), np.abs(d)
    _, exponent = np.frexp(np.maximum(np.maximum(ma, md), np.maximum(mb, mc)))
    # the floor keeps 1 / scale finite when every entry is subnormal
    inv = np.ldexp(1.0, -np.maximum(exponent, -1021))
    a, b, c, d = a * inv, b * inv, c * inv, d * inv
    f = np.hypot(ma * inv, mc * inv)
    # A first column below 2^-1000 after the scaling counts as zero, since
    # its products with the second column could lose bits below the normal
    # range: sigma_max is then the second column's norm, off by less than
    # 2^-1000 of itself, and sigma_min < 2^-997 sigma_max is singular.
    negligible = f < 2.0**-1000
    f[negligible] = 1.0
    g = np.abs(a.conj() * b + c.conj() * d) / f
    h = np.abs(a * d - b * c) / f
    # dlas2 on (f, g, h). Its branches for ga < fhmx and ga >= fhmx are one
    # formula normalised by t = max(fhmx, ga), so that one of p, q is 1; its
    # fhmn = 0 branch is that formula at r = 0, and its branch for fhmx / ga
    # underflowing gives a sigma_min that underflows after the scaling, as
    # this formula's does.
    fmin, fmax = np.minimum(f, h), np.maximum(f, h)
    t = np.maximum(fmax, g)
    p, q = fmax / t, g / t
    r = fmin / fmax
    q *= q
    s = np.sqrt(((1.0 + r) * p) ** 2 + q) + np.sqrt(((1.0 - r) * p) ** 2 + q)
    sigma = np.stack([0.5 * t * s, 2.0 * fmin * p / s], axis=-1)
    sigma[negligible, 0] = np.hypot((mb * inv)[negligible], (md * inv)[negligible])
    sigma /= inv[..., None]
    return sigma


def _frobenius_squared(a: np.ndarray) -> np.ndarray:
    """Squared Frobenius norm of each matrix in a stack, with no temporaries."""
    re, im = a.real, a.imag
    return np.einsum("...ij,...ij->...", re, re) + np.einsum("...ij,...ij->...", im, im)


def inverse_stack(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Inverses of a stack (..., n, n) of matrices, plus the mask of members
    that are singular under :func:`is_singular`; those members hold NaN.

    The rule is decided in two steps. A member whose computed inverse passes
    the residual certificate (CERTIFIED_RTOL) is nonsingular; only the
    members it leaves undecided get an SVD. A stack that LAPACK cannot
    invert at all (an exactly zero pivot) gets an SVD on every member, and
    the singular ones are inverted as I.
    """
    return _inverse_residual_stack(a)[:2]


def _inverse_residual_stack(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`inverse_stack` plus the residuals ``a @ X - I`` of the computed
    inverses X, taken before the singular members are set to NaN."""
    eye = np.eye(a.shape[-1])
    try:
        inv = np.linalg.inv(a)
    except np.linalg.LinAlgError:
        # An exactly zero pivot somewhere: decide every member by its SVD.
        singular = is_singular(np.linalg.svd(a, compute_uv=False))
        inv = np.linalg.inv(np.where(singular[..., None, None], eye, a))
        residual = a @ inv - eye
    else:
        # A nearly singular member has huge or non-finite entries in X; its
        # products and norms may overflow, which leaves it undecided.
        with np.errstate(over="ignore", invalid="ignore"):
            residual = a @ inv
            residual -= eye
            undecided = ~(
                (_frobenius_squared(residual) <= CERTIFIED_RESIDUAL**2)
                & (_frobenius_squared(a) * _frobenius_squared(inv) <= CERTIFIED_NORM_PRODUCT**2)
            )
        singular = np.zeros_like(undecided)
        if undecided.any():
            singular[undecided] = is_singular(np.linalg.svd(a[undecided], compute_uv=False))
    inv[singular] = np.nan
    return inv, singular, residual


@dataclass(frozen=True)
class Inverse:
    """An inverse together with its max-abs residual ``|a @ inv - I|``."""

    matrix: ComplexMatrix
    residual: float


def solve_inverse_stack(a: np.ndarray) -> tuple[np.ndarray, list[Inverse | None]]:
    """:func:`solve_inverse` on each member of a stack (k, n, n): the inverses of
    :func:`inverse_stack` (NaN where singular) and one Inverse or None per member."""
    inv, singular, residual = _inverse_residual_stack(a)
    residuals = np.abs(residual).max(axis=(-2, -1))
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
