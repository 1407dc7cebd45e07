"""Dense complex matrix arithmetic, inverses and the spectral norm.

The library computes on complex128 arrays, one matrix (d, d) or a stack
(..., d, d) of them. :class:`ComplexMatrix` is only the check where a
matrix enters: square, finite, and frozen as a read-only copy. No function
here mutates its inputs; only a caller that passes the small-matrix
kernels a Workspace gets results that the workspace's next use
overwrites. Inverses and norms are LAPACK calls through numpy, on one
matrix or on a stack of them. For the resolvent field sweeps, which would
otherwise spend their time in LAPACK's cost per call, the singular values
of 2x2 matrices also have a closed form, and those of 3x3 matrices a
Jacobi kernel that works on a whole stack at once in numpy and hands
LAPACK only the matrices it leaves unsettled.
One rule decides singularity everywhere:
``sigma_min <= SINGULAR_RTOL * sigma_max``. An inverse decides it without
singular values where it can: a residual bound on the computed inverse
certifies most members nonsingular, and only the members it leaves
undecided get an SVD. Singularity is reported as a value (a NaN member
of ``inverse_stack``'s stack, ``None`` from ``solve_inverse``), not as an
exception, because downstream resolvent scans treat it as data.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from itertools import cycle, islice

import numpy as np

from .errors import BadParameter, SchemaError

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
    """The check where a matrix enters the library: ``entries`` must form a
    square matrix of finite numbers, and :attr:`array` holds them as a
    read-only complex128 copy. Entry points hand on ``ComplexMatrix(x).array``;
    past them the library computes on arrays alone.
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
    def array(self) -> np.ndarray:
        """Read-only complex128 view of the entries."""
        return self._a


def jordan_block(dim: int, eigenvalue: complex) -> np.ndarray:
    """Single Jordan block: ``eigenvalue`` on the diagonal, ones above it."""
    if dim < 1:
        raise BadParameter("jordan_block needs dim >= 1")
    a = np.zeros((dim, dim), dtype=np.complex128)
    np.fill_diagonal(a, complex(eigenvalue))
    for i in range(dim - 1):
        a[i, i + 1] = 1.0
    return ComplexMatrix(a).array


# ---------------------------------------------------------------------------
# singular values, inverses and norms


def is_singular(s: np.ndarray) -> np.ndarray:
    """The singularity rule, applied to singular values ``s`` (..., n) in
    descending order: ``sigma_min <= SINGULAR_RTOL * sigma_max``."""
    return s[..., -1] <= SINGULAR_RTOL * s[..., 0]


class Workspace:
    """Named scratch arrays that a kernel keeps from call to call.

    A field sweep calls its kernel on slice after slice of one size. With
    fresh temporaries on every call, glibc's malloc hands the freed heap top
    back to the OS after each slice (once more than its trim threshold,
    128 KiB by default, lies free there) and faults the pages in again on
    the next: a dimension-2 101^2 sweep took 13.0 ms that way and 8.8 ms
    with this workspace (2-vCPU x86-64). Each large intermediate is
    therefore the array of its name here, made on first use and reused by
    every later call of the same or a smaller size. A kernel's result may
    be one of these arrays, valid until the workspace's next use.
    """

    def __init__(self) -> None:
        self._arrays: dict[str, np.ndarray] = {}
        # the views handed out so far, so that a repeated request costs one
        # dict lookup: a sweep makes a few dozen per slice
        self._views: dict[tuple, np.ndarray] = {}

    @property
    def nbytes(self) -> int:
        return sum(a.nbytes for a in self._arrays.values())

    def __call__(self, name: str, shape: tuple[int, ...], dtype=np.float64) -> np.ndarray:
        view = self._views.get((name, shape, dtype))
        if view is None:
            size = math.prod(shape)
            a = self._arrays.get(name)
            if a is None or a.size < size or a.dtype != dtype:
                a = self._arrays[name] = np.empty(size, dtype)
                self._views = {key: v for key, v in self._views.items() if key[0] != name}
            view = self._views[name, shape, dtype] = a[:size].reshape(shape)
        return view


def singular_values_2x2(a, b, c, d, work: Workspace | None = None) -> np.ndarray:
    """Singular values of the 2x2 matrices [[a, b], [c, d]], for complex entry
    arrays that broadcast together, as (..., 2) in descending order like
    ``np.linalg.svd(..., compute_uv=False)``. Closed form, no LAPACK call.
    Intermediates of the broadcast shape, the result included, are ``work``'s
    arrays (a fresh Workspace unless the caller passes one).

    Each matrix is divided by the power of two just above its largest entry
    magnitude, which is exact and leaves no product below able to overflow;
    one that underflows feeds only a singular value far below the
    singularity cutoff. A Givens rotation on the first column then leaves an
    upper-triangular [[f, g], [0, h]] with f = hypot(|a|, |c|),
    g = |conj(a) b + conj(c) d| / f and h = |a d - b c| / f, and LAPACK
    dlas2's formulas (Demmel and Kahan, SIAM J. Sci. Stat. Comput. 11, 1990)
    give its singular values.
    """
    w = Workspace() if work is None else work
    shape = np.broadcast(a, b, c, d).shape

    def real(name: str) -> np.ndarray:
        return w(name, shape)

    def cplx(name: str) -> np.ndarray:
        return w(name, shape, np.complex128)

    # b and c are one matrix per window sample in a sweep, so theirs stay small
    ma, mb, mc, md = np.abs(a, out=real("ma")), np.abs(b), np.abs(c), np.abs(d, out=real("md"))
    big = np.maximum(ma, md, out=real("big"))
    np.maximum(big, np.maximum(mb, mc), out=big)
    exponent = np.frexp(big, out=(big, w("exponent", shape, np.intc)))[1]
    # the floor keeps 1 / scale finite when every entry is subnormal
    np.negative(np.maximum(exponent, -1021, out=exponent), out=exponent)
    inv = np.ldexp(1.0, exponent, out=real("inv"))
    # inv cast once, as each product would cast it
    scale = cplx("scale")
    np.copyto(scale, inv)
    a, b, c, d = (np.multiply(x, scale, out=cplx(k)) for k, x in zip("abcd", (a, b, c, d)))
    f = np.hypot(np.multiply(ma, inv, out=ma), np.multiply(mc, inv, out=real("mc")), out=ma)
    # A first column below 2^-1000 after the scaling counts as zero, since
    # its products with the second column could lose bits below the normal
    # range: sigma_max is then the second column's norm, off by less than
    # 2^-1000 of itself, and sigma_min < 2^-997 sigma_max is singular.
    negligible = np.less(f, 2.0**-1000, out=w("negligible", shape, np.bool_))
    f[negligible] = 1.0
    u, v = cplx("u"), cplx("v")
    np.multiply(np.conjugate(a, out=u), b, out=u)
    u += np.multiply(np.conjugate(c, out=v), d, out=v)
    g = np.divide(np.abs(u, out=real("g")), f, out=real("g"))
    np.multiply(a, d, out=u)
    u -= np.multiply(b, c, out=v)
    h = np.divide(np.abs(u, out=real("h")), f, out=real("h"))
    # dlas2 on (f, g, h). Its branches for ga < fhmx and ga >= fhmx are one
    # formula normalised by t = max(fhmx, ga), so that one of p, q is 1; its
    # fhmn = 0 branch is that formula at r = 0, and its branch for fhmx / ga
    # underflowing gives a sigma_min that underflows after the scaling, as
    # this formula's does.
    fmin, fmax = np.minimum(f, h, out=real("fmin")), np.maximum(f, h, out=h)
    t = np.maximum(fmax, g, out=real("t"))
    p, q = np.divide(fmax, t, out=real("p")), np.divide(g, t, out=g)
    r = np.divide(fmin, fmax, out=fmax)
    q *= q
    # s = sqrt(((1 + r) p)^2 + q) + sqrt(((1 - r) p)^2 + q)
    s, s_minus = np.add(1.0, r, out=real("s")), np.subtract(1.0, r, out=r)
    for x in (s, s_minus):
        x *= p
        np.sqrt(np.add(np.square(x, out=x), q, out=x), out=x)
    s += s_minus
    # sigma = (0.5 t s, 2 fmin p / s)
    sigma = w("sigma", shape + (2,))
    high, low = sigma[..., 0], sigma[..., 1]
    np.multiply(np.multiply(0.5, t, out=high), s, out=high)
    np.divide(np.multiply(np.multiply(2.0, fmin, out=low), p, out=low), s, out=low)
    if negligible.any():
        inv_negligible = inv[negligible]
        mb_scaled = np.broadcast_to(mb, shape)[negligible] * inv_negligible
        sigma[negligible, 0] = np.hypot(mb_scaled, md[negligible] * inv_negligible)
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


def _givens(p: np.ndarray, q: np.ndarray, w: Workspace, name: str):
    """x, y and r^2 = |p|^2 + |q|^2 for the unitary [[x, y], [-conj(y), conj(x)]]
    that takes the entry pair (p, q) to (r, 0), in ``w``'s arrays under
    ``name``. After the scaling no entry reaches 3 in modulus, so r^2 cannot
    overflow. Where r < 2^-500 the rotation is the identity up to 2^-500,
    since x and y computed from an r^2 that underflows would not make a
    unitary, and (r, 0) is off by less than 2^-500."""
    pc = np.conjugate(p, out=w(name + ".x", p.shape, np.complex128))
    qc = np.conjugate(q, out=w(name + ".y", p.shape, np.complex128))
    squares = np.multiply(pc, p, out=w(name + ".r2", p.shape, np.complex128))
    squares += np.multiply(qc, q, out=w("givens.scratch", p.shape, np.complex128))
    r2 = squares.real
    tiny = r2 < 2.0**-1000
    rinv = np.add(r2, tiny, out=w("givens.rinv", p.shape))
    np.divide(1.0, np.sqrt(rinv, out=rinv), out=rinv)
    return np.add(np.multiply(pc, rinv, out=pc), tiny, out=pc), np.multiply(qc, rinv, out=qc), r2


def _rotate(x, y, u, v, w: Workspace, name: str):
    """Apply the rotation of :func:`_givens` to the entry pairs (u, v), into
    ``w``'s arrays under ``name``."""
    first = np.multiply(x, u, out=w(name + ".1", u.shape, np.complex128))
    scratch = w("rotate.scratch", u.shape, np.complex128)
    first += np.multiply(y, v, out=scratch)
    xc = np.conjugate(x, out=w("rotate.conj", x.shape, np.complex128))
    second = np.multiply(xc, v, out=w(name + ".2", u.shape, np.complex128))
    second -= np.multiply(np.conjugate(y, out=xc), u, out=scratch)
    return first, second


def _column_dots(x: np.ndarray, y: np.ndarray, out: np.ndarray, products: np.ndarray) -> np.ndarray:
    """Dot products of the columns of two (3, N) arrays, into ``out``, with
    ``products`` (3, N) as scratch. They are summed in one fixed order: einsum
    sums a (3, 1) pair in another order than a (3, N) one, which would make a
    matrix's values depend on the size of its stack."""
    np.multiply(x, y, out=products)
    return np.add(np.add(products[0], products[1], out=out), products[2], out=out)


def _real_bidiagonal(flat: np.ndarray, w: Workspace) -> tuple[np.ndarray, list[np.ndarray]]:
    """For a stack (n, 3, 3): inv, the power of two just above the largest
    real or imaginary entry part of each matrix, inverted, and the columns
    (3, n) of a real upper bidiagonal matrix with the singular values of the
    matrix times inv, all in ``w``'s arrays. Four Givens rotations take the
    scaled matrix to upper bidiagonal form, and the moduli of that form's
    entries, whose phases diagonal unitaries can remove, make the real
    matrix."""
    n = flat.shape[0]
    # m[i, j] holds entry (i, j) of every matrix, contiguously
    m = w("bidiagonal.m", (3, 3, n), np.complex128)
    np.copyto(m, np.moveaxis(flat, 0, -1))
    parts = m.view(np.float64).reshape(9, n, 2)
    top = np.max(parts, axis=0, out=w("bidiagonal.top", (n, 2)))
    bottom = np.min(parts, axis=0, out=w("bidiagonal.bottom", (n, 2)))
    np.maximum(top, np.negative(bottom, out=bottom), out=top)
    big = np.maximum(top[:, 0], top[:, 1], out=w("bidiagonal.big", (n,)))
    exponent = np.frexp(big, out=(big, w("bidiagonal.exponent", (n,), np.intc)))[1]
    # the floor keeps 1 / scale finite when every entry is subnormal
    np.negative(np.maximum(exponent, -1021, out=exponent), out=exponent)
    inv = np.ldexp(1.0, exponent, out=w("bidiagonal.inv", (n,)))
    m *= inv
    # rows 2, 3 then rows 1, 2 clear the first column below the diagonal,
    # columns 2, 3 clear entry (1, 3), and rows 2, 3 clear entry (3, 2)
    x, y, _ = _givens(m[1, 0], m[2, 0], w, "g1")
    row2, row3 = _rotate(x, y, m[1, 1:], m[2, 1:], w, "r1")
    pivot = np.multiply(x, m[1, 0], out=w("bidiagonal.pivot", (n,), np.complex128))
    pivot += np.multiply(y, m[2, 0], out=w("bidiagonal.scratch", (n,), np.complex128))
    x, y, d1 = _givens(m[0, 0], pivot, w, "g2")
    row1, row2 = _rotate(x, y, m[0, 1:], row2, w, "r2")
    x, y, e1 = _givens(row1[0], row1[1], w, "g3")
    # pairs[k] holds column k + 2 of rows 2 and 3
    pairs = w("bidiagonal.pairs", (2, 2, n), np.complex128)
    np.copyto(pairs[:, 0], row2)
    np.copyto(pairs[:, 1], row3)
    col2, col3 = _rotate(x, y, pairs[0], pairs[1], w, "r3")
    x, y, d2 = _givens(col2[0], col2[1], w, "g4")
    e2, d3 = _rotate(x, y, col3[0], col3[1], w, "r4")
    cols = [w(f"column{k}", (3, n)) for k in range(3)]
    cols[0][1:] = 0.0
    np.sqrt(d1, out=cols[0][0])
    np.sqrt(e1, out=cols[1][0])
    np.sqrt(d2, out=cols[1][1])
    cols[1][2] = 0.0
    cols[2][0] = 0.0
    np.abs(e2, out=cols[2][1])
    np.abs(d3, out=cols[2][2])
    return inv, cols


def singular_values_3x3(a, work: Workspace | None = None) -> np.ndarray:
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
    w = Workspace() if work is None else work
    flat = a.reshape(-1, 3, 3)
    n = flat.shape[0]
    inv, cols = _real_bidiagonal(flat, w)
    spares = [w("column3", (3, n)), w("column4", (3, n))]
    products = w("jacobi.products", (3, n))
    names = ("alpha", "beta", "gamma", "g2", "bound", "diff", "root", "c")
    alpha, beta, gamma, g2, bound, diff, root, c = (w("jacobi." + k, (n,)) for k in names)
    recent = deque(maxlen=3)  # the rotate masks of the latest three pair visits
    quiet = 0
    for p, q in islice(cycle(_JACOBI_PAIRS), 3 * JACOBI_MAX_SWEEPS):
        ap, aq = cols[p], cols[q]
        _column_dots(ap, ap, alpha, products)
        _column_dots(aq, aq, beta, products)
        _column_dots(ap, aq, gamma, products)
        np.multiply(gamma, gamma, out=g2)
        # written so that a NaN rotates, never settles, and goes to LAPACK
        done = g2 <= np.multiply(JACOBI_TOL**2, np.multiply(alpha, beta, out=bound), out=bound)
        done |= np.minimum(alpha, beta, out=bound) < JACOBI_NEGLIGIBLE**2
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
        np.subtract(beta, alpha, out=diff)
        np.multiply(diff, diff, out=root)
        root += np.multiply(4.0, np.multiply(gamma, gamma, out=g2), out=g2)
        root += 2.0**-1000
        np.sqrt(root, out=root)
        t = np.multiply(2.0, gamma, out=gamma)
        t /= np.add(diff, np.copysign(root, diff, out=root), out=root)
        np.multiply(t, t, out=c)
        np.divide(1.0, np.sqrt(np.add(1.0, c, out=c), out=c), out=c)
        s = np.multiply(c, t, out=t)
        new_p, new_q = spares
        np.multiply(c, ap, out=new_p)
        new_p -= np.multiply(s, aq, out=products)
        np.multiply(s, ap, out=new_q)
        new_q += np.multiply(c, aq, out=products)
        cols[p], cols[q], spares = new_p, new_q, [ap, aq]

    sigma = w("sigma", (n, 3))
    for k, col in enumerate(cols):
        norms = np.sqrt(_column_dots(col, col, sigma[:, k], products), out=sigma[:, k])
        np.divide(norms, inv, out=norms)
    # a sorting network puts each triple in descending order
    larger = w("jacobi.larger", (n,))
    for i, j in ((0, 1), (0, 2), (1, 2)):
        np.maximum(sigma[:, i], sigma[:, j], out=larger)
        np.minimum(sigma[:, i], sigma[:, j], out=sigma[:, j])
        sigma[:, i] = larger
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
    eye = np.eye(a.shape[-1])
    try:
        inv = np.linalg.inv(a)
    except np.linalg.LinAlgError:
        # An exactly zero pivot somewhere: decide every member by its SVD.
        singular = is_singular(np.linalg.svd(a, compute_uv=False))
        inv = np.linalg.inv(np.where(singular[..., None, None], eye, a))
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
    return inv, singular


@dataclass(frozen=True, eq=False)
class Inverse:
    """An inverse together with its max-abs residual ``|a @ inv - I|``."""

    matrix: np.ndarray
    residual: float


def solve_inverse(a: np.ndarray) -> Inverse | None:
    """LAPACK inverse of one square matrix; ``None`` signals a singular input
    (see :func:`is_singular`)."""
    a = a[None]
    inv, singular = inverse_stack(a)
    if singular[0]:
        return None
    residual = float(np.abs(a @ inv - np.eye(a.shape[-1])).max())
    return Inverse(inv[0], residual)


def spectral_norms(a: np.ndarray) -> np.ndarray:
    """Largest singular value of each matrix in a stack (..., n, n).

    A member with a non-finite entry (an overflowed power, or a NaN slot from
    :func:`inverse_stack`) has norm inf.
    """
    finite = np.isfinite(a).all(axis=(-2, -1))
    norms = np.full(finite.shape, np.inf)
    norms[finite] = np.linalg.svd(a[finite], compute_uv=False)[..., 0]
    return norms


def operator_norm(a: np.ndarray) -> float:
    """Spectral (2-)norm of one square matrix."""
    return float(spectral_norms(a))


# ---------------------------------------------------------------------------
# JSON form: {"dim": n, "re": [...], "im": [...]} with row-major entries


def matrix_to_dict(a: np.ndarray) -> dict:
    """Row-major JSON form of one square matrix."""
    flat = a.ravel()
    return {
        "dim": a.shape[0],
        "re": [float(v) for v in flat.real],
        "im": [float(v) for v in flat.imag],
    }


def matrix_from_dict(data: object, path: str = "") -> np.ndarray:
    """The matrix of a JSON form, checked and frozen by :class:`ComplexMatrix`;
    SchemaError names ``path``."""
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
    # 1j * inf is nan + inf j, with a warning: the check below reports it
    with np.errstate(invalid="ignore"):
        entries = re + 1j * im
    try:
        return ComplexMatrix(entries).array
    except BadParameter as exc:
        raise SchemaError(str(exc), path) from exc
