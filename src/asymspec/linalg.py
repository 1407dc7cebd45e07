"""Dense complex matrix arithmetic, inverses and the spectral norm.

All operations are pure: inputs are never mutated and results are freshly
allocated, so matrices can be shared freely. Inverses and norms are LAPACK
calls through numpy, on one matrix or on a stack of them. For the resolvent
field sweeps, which would otherwise spend their time in LAPACK's cost per
call, the singular values of 2x2 matrices also have a closed form, and
those of 3x3 matrices a Jacobi kernel that works on a whole stack at once
in numpy and hands LAPACK only the matrices it leaves unsettled.
One rule decides singularity everywhere:
``sigma_min <= SINGULAR_RTOL * sigma_max``. An inverse decides it without
singular values where it can: a residual bound on the computed inverse
certifies most members nonsingular, and only the members it leaves
undecided get an SVD. Singularity is reported as a value
(``solve_inverse`` returns ``None``), not as an exception, because
downstream resolvent scans treat it as data.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import cycle, islice

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
    def zeros(dim: int) -> "ComplexMatrix":
        return ComplexMatrix(np.zeros((dim, dim), dtype=np.complex128))

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


# singular_values_3x3 runs one-sided Jacobi on a real bidiagonal matrix, with
# the largest real or imaginary entry part scaled into [1/2, 1) (unless every
# entry is subnormal), so sigma_max >= 1/2. A pair of columns is done when the cosine of their angle
# is at most JACOBI_TOL, which the rounding of the dot product can always
# reach, or when either column norm is below JACOBI_NEGLIGIBLE: leaving such
# a column as it is moves no singular value by more than its norm (Weyl), and
# keeps the column, whose rounding noise would otherwise shrink by only a
# factor eps per rotation, from holding a sweep open. A matrix that has not
# settled after JACOBI_MAX_SWEEPS cycles through the three pairs gets LAPACK's
# values instead.
JACOBI_TOL = 8 * float(np.finfo(np.float64).eps)
JACOBI_NEGLIGIBLE = 2.0**-60
JACOBI_MAX_SWEEPS = 10
_JACOBI_PAIRS = ((0, 1), (0, 2), (1, 2))


def _givens(p: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """x, y and r^2 = |p|^2 + |q|^2 for the unitary [[x, y], [-conj(y), conj(x)]]
    that takes the entry pair (p, q) to (r, 0). After the scaling no entry
    reaches 3 in modulus, so r^2 cannot overflow. Where r < 2^-500 the
    rotation is the identity up to 2^-500, since x and y computed from an r^2
    that underflows would not make a unitary, and (r, 0) is off by less than
    2^-500."""
    pc, qc = p.conj(), q.conj()
    r2 = (pc * p + qc * q).real
    tiny = r2 < 2.0**-1000
    rinv = 1.0 / np.sqrt(r2 + tiny)
    return pc * rinv + tiny, qc * rinv, r2


def _rotate(x, y, u, v):
    """Apply the rotation of :func:`_givens` to the entry pairs (u, v)."""
    return x * u + y * v, x.conj() * v - y.conj() * u


def _column_dots(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Dot products of the columns of two (3, N) arrays, summed in one fixed
    order: einsum sums a (3, 1) pair in another order than a (3, N) one, which
    would make a matrix's values depend on the size of its stack."""
    p = x * y
    return p[0] + p[1] + p[2]


def _real_bidiagonal(flat: np.ndarray) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """For a stack (n, 3, 3): inv, the power of two just above the largest
    real or imaginary entry part of each matrix, inverted, and the columns of
    a real upper bidiagonal matrix with the singular values of the matrix
    times inv. Four Givens rotations take the scaled matrix to upper
    bidiagonal form, and the moduli of that form's entries, whose phases
    diagonal unitaries can remove, make the real matrix. Only those two
    results outlive the call."""
    n = flat.shape[0]
    # m[i, j] holds entry (i, j) of every matrix, contiguously
    m = np.moveaxis(flat, 0, -1).copy()
    parts = m.view(np.float64).reshape(9, n, 2)
    big = np.maximum(parts.max(axis=0), -parts.min(axis=0))
    _, exponent = np.frexp(np.maximum(big[:, 0], big[:, 1]))
    # the floor keeps 1 / scale finite when every entry is subnormal
    inv = np.ldexp(1.0, -np.maximum(exponent, -1021))
    m *= inv
    # rows 2, 3 then rows 1, 2 clear the first column below the diagonal,
    # columns 2, 3 clear entry (1, 3), and rows 2, 3 clear entry (3, 2)
    x, y, _ = _givens(m[1, 0], m[2, 0])
    row2, row3 = _rotate(x, y, m[1, 1:], m[2, 1:])
    x, y, d1 = _givens(m[0, 0], x * m[1, 0] + y * m[2, 0])
    row1, row2 = _rotate(x, y, m[0, 1:], row2)
    # freeing the scaled copy and the rows once no rotation reads them cut
    # the traced peak of a 1968-matrix stack from 1.10 to 0.88 MB
    del m, parts
    x, y, e1 = _givens(row1[0], row1[1])
    col2, col3 = _rotate(x, y, np.stack([row2[0], row3[0]]), np.stack([row2[1], row3[1]]))
    del row1, row2, row3
    x, y, d2 = _givens(col2[0], col2[1])
    e2, d3 = _rotate(x, y, col3[0], col3[1])
    zero = np.zeros(n)
    return inv, (
        np.stack([np.sqrt(d1), zero, zero]),
        np.stack([np.sqrt(e1), np.sqrt(d2), zero]),
        np.stack([zero, np.abs(e2), np.abs(d3)]),
    )


def singular_values_3x3(a) -> np.ndarray:
    """Singular values of a stack (..., 3, 3) of complex matrices, as (..., 3)
    in descending order like ``np.linalg.svd(..., compute_uv=False)``. It works
    on the nine entries of every matrix at once and takes no LAPACK call
    unless a matrix has not settled after JACOBI_MAX_SWEEPS sweeps.

    Each matrix is divided by the power of two just above its largest real or
    imaginary entry part, as in :func:`singular_values_2x2`, and reduced to a
    real bidiagonal matrix (:func:`_real_bidiagonal`). One-sided Jacobi
    (Demmel and Veselic, SIAM J. Matrix Anal. Appl. 13, 1992; LAPACK zgesvj)
    then rotates its column pairs cyclically until three pairs in a row need
    no rotation, recomputing each column norm from the column. The singular
    values are the final column norms. A pair that needs no rotation gets
    exactly none, so a matrix's values do not depend on the other matrices of
    the stack. Entries must be finite: a NaN never settles, and LAPACK gets
    the matrix.
    """
    a = np.asarray(a, dtype=np.complex128)
    if a.shape[-2:] != (3, 3):
        raise BadParameter(f"expected a stack of 3x3 matrices, got shape {a.shape}")
    flat = a.reshape(-1, 3, 3)
    inv, columns = _real_bidiagonal(flat)
    cols = list(columns)
    recent = deque(maxlen=3)  # the rotate masks of the latest three pair visits
    quiet = 0
    for p, q in islice(cycle(_JACOBI_PAIRS), 3 * JACOBI_MAX_SWEEPS):
        ap, aq = cols[p], cols[q]
        alpha, beta, gamma = _column_dots(ap, ap), _column_dots(aq, aq), _column_dots(ap, aq)
        g2 = gamma * gamma
        # written so that a NaN rotates, never settles, and goes to LAPACK
        done = g2 <= JACOBI_TOL**2 * (alpha * beta)
        done |= np.minimum(alpha, beta) < JACOBI_NEGLIGIBLE**2
        rotate = ~done
        recent.append(rotate)
        if not rotate.any():
            quiet += 1
            if quiet == 3:
                break
            continue
        quiet = 0
        # t = tan of the angle that makes the pair orthogonal, 0 where done;
        # the 2^-1000 keeps the denominator nonzero there and is below the
        # rounding of diff^2 + 4 gamma^2 everywhere else
        gamma *= rotate
        diff = beta - alpha
        root = np.sqrt(diff * diff + 4.0 * (gamma * gamma) + 2.0**-1000)
        t = 2.0 * gamma / (diff + np.copysign(root, diff))
        c = 1.0 / np.sqrt(1.0 + t * t)
        s = c * t
        cols[p], cols[q] = c * ap - s * aq, s * ap + c * aq

    s0, s1, s2 = (np.sqrt(_column_dots(col, col)) / inv for col in cols)
    # a sorting network puts each triple in descending order
    s0, s1 = np.maximum(s0, s1), np.minimum(s0, s1)
    s0, s2 = np.maximum(s0, s2), np.minimum(s0, s2)
    s1, s2 = np.maximum(s1, s2), np.minimum(s1, s2)
    sigma = np.stack([s0, s1, s2], axis=-1)
    unsettled = np.logical_or.reduce(recent)
    if unsettled.any():
        sigma[unsettled] = np.linalg.svd(flat[unsettled], compute_uv=False)
    return sigma.reshape(a.shape[:-1])


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
