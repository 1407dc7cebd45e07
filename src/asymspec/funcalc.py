"""Holomorphic functional calculus by adaptive contour quadrature.

f(T) is computed as the trapezoid discretization of the Cauchy integral
over a circle: N nodes lambda_k = c + r e^{i theta_k} at the angles
theta_k = 2 pi k / N,

    Q_N = (r / N) * sum_k e^{i theta_k} f(lambda_k) (lambda_k I - T)^{-1}.

The trapezoid rule on a circle converges geometrically for holomorphic
integrands (Trefethen and Weideman, SIAM Review 56, 2014, sections 2-3),
so modest node counts give near machine accuracy once the contour clears
the spectrum. Whether the circle actually encloses the right eigenvalues
is the caller's responsibility; contour_encloses checks a circle against a
spectrum estimate.

Node counts are powers of two, so the node sets nest: the even nodes of
level 2N are the nodes of level N, bit for bit. The quadrature first sums
the MIN_NODES nodes of level 64, whose even nodes give Q_32 for free. While
the estimate misses QUADRATURE_RTOL and N is below contour.nodes, it
inverts only the N odd nodes of level 2N and adds their sum to level N's.
contour.nodes is therefore a cap, not a count. The result carries N and the
estimate.

The estimate has two parts. max |Q_N - Q_{N/2}| sees the integrand's
Fourier modes at odd multiples of N/2; under geometric convergence it is
about the error of Q_{N/2}, so it overstates the error of Q_N. Both rules
are blind to modes at multiples of N, and f can put its mass exactly there
(z^64 at level 64 sums to r^64 I plus f(T)). So before it stops, the
quadrature also samples f alone, no inverses, at level N's points turned by
ALIAS_SHIFT of a node spacing, and compares them with the level-N
interpolant of f: the difference is f's Taylor mass at degree N and above,
which level N folds onto lower degrees.

The weights e^{i theta_k} f(lambda_k) and the alias check read f alone,
not T, so a family image computes each level's once, on first use. The
weighted sum of each batch of inverses is an einsum loop, not a BLAS call.
This package loads no scipy, but a caller that does gets two OpenBLAS
copies, numpy's and scipy's, each with its own thread pool, and on two
CPUs the pools contend: an np.tensordot gemv of 64 weights with a
(64, 16, 16) stack took 16 us in a loop but about 4 ms right after a scipy
expm of an 8x8 matrix. The einsum loop costs under 5 % of its batch's
inverse_stack at d = 2-64 and wakes neither pool.

contour_funcalc and the family_funcalc image refuse a quadrature that
reached its cap unconverged with QuadratureUnresolved; family_quadratures
returns it with its estimate, for require_quadrature or a report to judge.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .errors import (
    BadParameter,
    NonEnclosing,
    QuadratureUnresolved,
    SingularOnContour,
    TraceError,
)
from .exprs import FuncExpr, eval_expr
from .families import FamilySpec, family_eval_stack
from .linalg import ComplexMatrix, inverse_stack

MIN_NODES = 64
DEFAULT_NODES = 256
# Doubling stops once the estimate is at most this fraction of the terms'
# size (Quadrature.scale), and require_quadrature refuses a quadrature that
# reached its cap without that. Under geometric convergence the error of Q_N
# is about the square of the estimate of Q_{N/2}'s, so sqrt(eps) leaves Q_N
# at rounding level; ||T|| <= r/2 meets it at 64 nodes for f = exp.
QUADRATURE_RTOL = math.sqrt(np.finfo(np.float64).eps)
# The estimate is at least this fraction of scale per dimension: the
# allowance for rounding in the inverses and the sum. On 600 random
# matrices of dimension 1-8 the rounding error stayed below 2 eps scale.
ROUNDING_RTOL = 8 * float(np.finfo(np.float64).eps)
# The alias check's points sit this fraction of a node spacing past level
# N's. A mode q N degrees above its level-N alias shows with gain
# |e^{2 pi i q ALIAS_SHIFT} - 1|, never 0 as sqrt(2) - 1 is irrational. A
# shift of 1/2 (level 2N's odd nodes) would miss every even q, z^128 at
# level 64 among them. ALIAS_GAIN is the least gain for q <= 8 (0.44, at
# q = 5); the check divides by it, so it bounds f's mass below degree 9N.
ALIAS_SHIFT = math.sqrt(2.0) - 1.0
ALIAS_GAIN = min(2.0 * abs(math.sin(math.pi * q * ALIAS_SHIFT)) for q in range(1, 9))
# contour_encloses admits a cluster only inside this fraction of the radius.
ENCLOSE_MARGIN = 0.95


def _circle(center: complex, radius: float, k: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The points c + r e^{i theta} at theta = 2 pi k / n, and the e^{i theta}.

    2 pi (2k) / (2n) rounds to the same double as 2 pi k / n, so level 2n's
    even points are level n's points bit for bit.
    """
    unit = np.exp(1j * (2.0 * np.pi * k / n))
    return center + radius * unit, unit


@dataclass(frozen=True)
class ContourSpec:
    """Circle |z - center| = radius, summed at up to ``nodes`` equispaced points.

    nodes is the cap of the adaptive quadrature: a power of two, at least
    MIN_NODES. Powers of two keep the node sets nested, so each doubling
    reuses every node already inverted.
    """

    center: complex
    radius: float
    nodes: int = DEFAULT_NODES

    def __post_init__(self) -> None:
        if not (math.isfinite(self.center.real) and math.isfinite(self.center.imag)):
            raise BadParameter("contour center must be finite")
        if not (math.isfinite(self.radius) and self.radius > 0):
            raise BadParameter("contour radius must be finite and positive")
        if self.nodes < MIN_NODES or self.nodes & (self.nodes - 1):
            raise BadParameter(f"nodes must be a power of two >= {MIN_NODES}")


ScalarFunc = Callable[[complex], complex]


def expr_function(ast: FuncExpr) -> ScalarFunc:
    """Close an expression AST over ``z``."""

    def f(z: complex) -> complex:
        return eval_expr(ast, {"z": z})

    return f


@dataclass(frozen=True, eq=False)
class Quadrature:
    """One adaptive quadrature: Q_N, the node count N, and its error estimate.

    ``error`` is the larger of max |Q_N - Q_{N/2}| over the entries and the
    alias check's bound r max|R_k| |D|_2 / ALIAS_GAIN (see _Levels.aliased),
    taken only where the quadrature stops, and is raised to the rounding
    allowance ROUNDING_RTOL * dim * scale where it falls below. ``scale`` is
    (r / N) sum_k |w_k| max|R_k|, the size of the terms summed, where
    R_k = (lambda_k I - T)^{-1}: rounding grows with it, not with Q_N, so
    the tolerances are fractions of it.
    """

    matrix: np.ndarray
    nodes: int
    error: float
    scale: float

    @property
    def converged(self) -> bool:
        # an alias check that overflows makes the error inf
        return math.isfinite(self.error) and self.error <= QUADRATURE_RTOL * self.scale


class _Levels:
    """What each quadrature level needs of f, computed on first use and kept.

    level(0) holds all MIN_NODES nodes of level 64; level(i > 0) holds the
    odd nodes of level 64 * 2^i, the ones the levels below it lack.
    """

    def __init__(self, f: ScalarFunc, contour: ContourSpec) -> None:
        self.f = f
        self.contour = contour
        self._levels: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
        self._values: dict[int, np.ndarray] = {}
        self._aliased: dict[int, float] = {}

    def _f_at(self, points: np.ndarray) -> np.ndarray:
        return np.array([self.f(lam) for lam in points], dtype=np.complex128)

    def level(self, i: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The indices k, points and weights e^{i theta_k} f(lambda_k)."""
        if i not in self._levels:
            n = MIN_NODES << i
            k = np.arange(n) if i == 0 else np.arange(1, n, 2)
            points, unit = _circle(self.contour.center, self.contour.radius, k, n)
            values = self._f_at(points)
            self._levels[i], self._values[i] = (k, points, unit * values), values
        return self._levels[i]

    def _level_values(self, i: int) -> np.ndarray:
        """f at all nodes of level i, in order of k."""
        self.level(i)
        if i == 0:
            return self._values[0]
        values = np.empty(MIN_NODES << i, dtype=np.complex128)
        values[::2], values[1::2] = self._level_values(i - 1), self._values[i]
        return values

    def aliased(self, i: int) -> float:
        """(sum_m |D_m|^2)^{1/2} / ALIAS_GAIN, a bound on f's Taylor mass that
        level N = 64 * 2^i folds onto lower degrees.

        On the circle f = sum_n c_n e^{i n theta} with c_n = a_n r^n, and
        level N sees only C_m = sum_q c_{m + qN} for m < N. Sampling f at the
        same points turned by ALIAS_SHIFT of a spacing gives
        D_m = sum_{q >= 1} c_{m + qN} (e^{2 pi i q ALIAS_SHIFT} - 1), which
        is 0 exactly when f has no mass at degree N or above. Those degrees
        put sum_{q >= 1} c_{m + qN} (T - c)^m / r^m into Q_N. The
        (T - c)^m / r^m are Fourier coefficients of r e^{i theta} R, so by
        Parseval their squared entries sum to at most (r max|R|)^2, and by
        Cauchy-Schwarz r max|R| times this bounds that error entrywise.
        """
        if i not in self._aliased:
            n = MIN_NODES << i
            k = np.arange(n)
            turned = _circle(self.contour.center, self.contour.radius, k + ALIAS_SHIFT, n)[0]
            # FFTs, not a BLAS product: see the module docstring
            shift = np.exp(-2j * np.pi * ALIAS_SHIFT * k / n)
            d = np.fft.fft(self._f_at(turned)) * shift - np.fft.fft(self._level_values(i))
            # hypot scales, so the squares neither underflow nor overflow
            self._aliased[i] = math.hypot(*np.abs(d).tolist()) / (n * ALIAS_GAIN)
        return self._aliased[i]


def _inverses(ta: np.ndarray, k: np.ndarray, points: np.ndarray, n: int) -> np.ndarray:
    """(lambda I - T)^{-1} at the given nodes of level n, as one stack."""
    invs, singular = inverse_stack(points[:, None, None] * np.eye(ta.shape[0]) - ta)
    if singular.any():
        j = int(np.argmax(singular))
        raise SingularOnContour(
            f"contour node {k[j]} of {n} at {points[j]:.6g} lies in the spectrum; "
            "adjust the radius"
        )
    return invs


def _weighted_sum(weights: np.ndarray, invs: np.ndarray) -> np.ndarray:
    # einsum's own loop, not a BLAS gemv: see the module docstring.
    return np.einsum("k,kij->ij", weights, invs)


@np.errstate(over="ignore", invalid="ignore")
def _quadrature(ta: np.ndarray, levels: _Levels) -> Quadrature:
    """Q_N for the finite square matrix ``ta`` over the nested levels,
    doubling N from MIN_NODES while the estimate misses QUADRATURE_RTOL and N
    is below contour.nodes.

    Raises QuadratureUnresolved when the sum or the terms' size overflows;
    numpy's warnings on the way there are silenced, the refusal says it.
    """
    radius = levels.contour.radius
    k, points, weights = levels.level(0)
    invs = _inverses(ta, k, points, MIN_NODES)
    even = _weighted_sum(weights[::2], invs[::2])
    total = even + _weighted_sum(weights[1::2], invs[1::2])
    largest = np.abs(invs).max(axis=(1, 2))
    size, r_max = float(np.sum(np.abs(weights) * largest)), float(largest.max())
    i, n = 0, MIN_NODES
    q_half, q = even * (2.0 * radius / n), total * (radius / n)
    while True:
        # radius / n first: size * radius can overflow where the scale does not
        scale = size * (radius / n)
        if not (math.isfinite(scale) and np.isfinite(q).all()):
            raise QuadratureUnresolved(
                f"the quadrature sum overflows at {n} nodes: f(z) times the resolvent "
                "leaves the float range on the contour; shrink the radius or recenter"
            )
        error = max(float(np.abs(q - q_half).max()), ROUNDING_RTOL * ta.shape[0] * scale)
        last = n >= levels.contour.nodes
        if last or error <= QUADRATURE_RTOL * scale:
            # about to stop: add the error of f's mass that both rules fold
            error = max(error, radius * r_max * levels.aliased(i))
        result = Quadrature(q, n, error, scale)
        if last or result.converged:
            return result
        i += 1
        k, points, weights = levels.level(i)
        n *= 2
        # the N new nodes in batches of MIN_NODES bound the stacked memory
        for start in range(0, len(points), MIN_NODES):
            batch = slice(start, start + MIN_NODES)
            invs = _inverses(ta, k[batch], points[batch], n)
            total = total + _weighted_sum(weights[batch], invs)
            largest = np.abs(invs).max(axis=(1, 2))
            size += float(np.sum(np.abs(weights[batch]) * largest))
            r_max = max(r_max, float(largest.max()))
        q_half, q = q, total * (radius / n)


def contour_funcalc(t: ComplexMatrix, f: ScalarFunc, contour: ContourSpec) -> ComplexMatrix:
    """Evaluate f(T) for one matrix by adaptive contour quadrature. ``t`` is a
    ComplexMatrix, or entries that one checks; f(T) is the result's ``array``.

    Raises SingularOnContour when a quadrature node hits the spectrum of T;
    the caller should nudge the radius, not this routine. Raises
    QuadratureUnresolved when the estimate misses its tolerance at the cap.
    """
    tm = t if isinstance(t, ComplexMatrix) else ComplexMatrix(t)
    q = _quadrature(tm.array, _Levels(f, contour))
    require_quadrature([q])
    return ComplexMatrix(q.matrix)


@dataclass(frozen=True)
class _Funcalc(FamilySpec):
    """Derived family: apply a scalar function to every member of a family.

    Not serializable to JSON; exists so functional-calculus images can be
    fed back into the classifiers and field sweeps like any other family.
    The inner family is evaluated once per call, as one stack, through
    :func:`family_eval_stack`, so its range and finiteness checks name the h
    that fails them. What the quadrature needs of ``func`` does not depend
    on h: each level's is computed on its first use (so errors from ``func``
    surface at the first evaluation) and kept.
    """

    inner: FamilySpec
    func: ScalarFunc = field(compare=False)
    contour: ContourSpec

    @property
    def dim(self) -> int:
        return self.inner.dim

    @cached_property
    def _levels(self) -> _Levels:
        return _Levels(self.func, self.contour)

    def quadratures(self, hs: Sequence[float]) -> list[Quadrature]:
        """One adaptive quadrature per h in ``hs``, each stopping at its own
        level; TraceError names the h whose contour meets the spectrum."""
        hs = np.asarray(hs, dtype=np.float64)
        quads = []
        for h, t in zip(hs.tolist(), family_eval_stack(self.inner, hs)):
            try:
                quads.append(_quadrature(t, self._levels))
            except SingularOnContour as exc:
                raise TraceError(h, f"functional calculus failed at h={h!r}: {exc}") from exc
        return quads

    def _eval(self, hs: np.ndarray) -> np.ndarray:
        quads = self.quadratures(hs)
        require_quadrature(quads, hs.tolist())
        return np.stack([q.matrix for q in quads])


def family_funcalc(tf: FamilySpec, f: ScalarFunc, contour: ContourSpec) -> FamilySpec:
    """The image family h -> f(T_h), evaluated by quadrature at each h asked for."""
    return _Funcalc(tf, f, contour)


def family_quadratures(
    tf: FamilySpec, f: ScalarFunc, contour: ContourSpec, hs: Sequence[float]
) -> list[Quadrature]:
    """f(T_h) at each h in ``hs``, with the node count it took and its error
    estimate: the values of the :func:`family_funcalc` image at ``hs``, before
    :func:`require_quadrature` judges them. ``tf`` is evaluated, and ``hs``
    checked, by :func:`family_eval_stack`.
    """
    return _Funcalc(tf, f, contour).quadratures(hs)


def require_quadrature(quads: Sequence[Quadrature], hs: Sequence[float] | None = None) -> None:
    """Refuse quadratures that reached their node cap unconverged; given the
    h of each, the refusal names the first unconverged one's."""
    for i, q in enumerate(quads):
        if not q.converged:
            at = "" if hs is None else f" at h={hs[i]!r}"
            raise QuadratureUnresolved(
                f"quadrature{at}: error estimate {q.error:.3g} at the {q.nodes}-node cap exceeds "
                f"{QUADRATURE_RTOL:.3g} of the terms' size {q.scale:.3g}; raise the node "
                "cap, widen the radius or recenter; if no cap converges, f may not be "
                "holomorphic inside the contour"
            )


def contour_encloses(contour: ContourSpec, clusters) -> bool:
    """Do all cluster blobs sit inside ENCLOSE_MARGIN times the circle?

    The margin shrinks the admissible disc so blobs hugging the contour
    count as NOT enclosed; quadrature accuracy degrades there anyway.
    """
    limit = ENCLOSE_MARGIN * contour.radius
    return all(abs(c.centroid - contour.center) + c.radius <= limit for c in clusters)


def require_enclosing(contour: ContourSpec, clusters) -> None:
    if not contour_encloses(contour, clusters):
        raise NonEnclosing(
            "contour does not enclose every spectrum cluster with margin "
            f"{ENCLOSE_MARGIN:g}; widen the radius or recenter"
        )


__all__ = [
    "ContourSpec",
    "Quadrature",
    "ScalarFunc",
    "expr_function",
    "contour_funcalc",
    "family_funcalc",
    "family_quadratures",
    "require_quadrature",
    "contour_encloses",
    "require_enclosing",
    "MIN_NODES",
    "DEFAULT_NODES",
]
