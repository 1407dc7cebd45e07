"""Holomorphic functional calculus by contour quadrature.

f(T) is computed as the trapezoid discretization of the Cauchy integral
over a circle: nodes lambda_k = c + r e^{i theta_k} at equispaced angles,

    f(T) ~ (r / N) * sum_k e^{i theta_k} f(lambda_k) (lambda_k I - T)^{-1}.

The trapezoid rule on a circle converges geometrically for holomorphic
integrands, so modest node counts give near machine accuracy once the
contour clears the spectrum. Whether the circle actually encloses the
right eigenvalues is the caller's responsibility; contour_encloses checks
a circle against a spectrum estimate.

The weights e^{i theta_k} f(lambda_k) do not depend on T, so a family
image computes them once. The weighted sum of each batch of inverses is an
einsum loop, not a BLAS call. numpy and scipy each load their own OpenBLAS,
each with its own thread pool, and on two CPUs the pools contend: an
np.tensordot gemv of 64 weights with a (64, 16, 16) stack took 16 us in a
loop but about 4 ms right after a scipy expm of an 8x8 matrix. The einsum
loop costs under 5 % of its batch's inverse_stack at d = 2-64 and wakes
neither pool.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import BadParameter, NonEnclosing, SingularOnContour, TraceError
from .exprs import FuncExpr, eval_expr
from .families import FamilyNode, FamilySpec
from .linalg import ComplexMatrix, inverse_stack

MIN_NODES = 64
DEFAULT_NODES = 256


@dataclass(frozen=True)
class ContourSpec:
    """Circle |z - center| = radius discretized at ``nodes`` equispaced points.

    nodes must be a power of two, at least 64: powers of two keep the node
    sets nested when refining, which makes convergence checks cheap.
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

    def points(self) -> np.ndarray:
        angles = 2.0 * np.pi * np.arange(self.nodes) / self.nodes
        return self.center + self.radius * np.exp(1j * angles)


ScalarFunc = Callable[[complex], complex]


def expr_function(ast: FuncExpr, extra: dict[str, complex] | None = None) -> ScalarFunc:
    """Close an expression AST over ``z``; extra bindings (e.g. h) are fixed."""
    fixed = dict(extra) if extra else {}

    def f(z: complex) -> complex:
        bindings = dict(fixed)
        bindings["z"] = z
        return eval_expr(ast, bindings)

    return f


def _contour_weights(f: ScalarFunc, contour: ContourSpec) -> np.ndarray:
    """The quadrature weights e^{i theta_k} f(lambda_k), one per node."""
    return np.array(
        [
            cmath.exp(2j * cmath.pi * k / contour.nodes) * f(lam)
            for k, lam in enumerate(contour.points())
        ],
        dtype=np.complex128,
    )


def _quadrature(t: ComplexMatrix, weights: np.ndarray, contour: ContourSpec) -> ComplexMatrix:
    """The trapezoid sum (r / N) sum_k w_k (lambda_k I - T)^{-1}."""
    ta = t.array
    eye = np.eye(ta.shape[0])
    nodes = contour.points()
    total = np.zeros_like(ta)
    # MIN_NODES nodes per batch bound the memory of the stacked (lambda I - T)
    # whatever the node count; node counts are multiples of MIN_NODES.
    for start in range(0, contour.nodes, MIN_NODES):
        batch = slice(start, start + MIN_NODES)
        invs, singular = inverse_stack(nodes[batch, None, None] * eye - ta)
        if singular.any():
            k = start + int(np.argmax(singular))
            raise SingularOnContour(
                f"contour node {k} at {nodes[k]:.6g} lies in the spectrum; adjust the radius"
            )
        # einsum's own loop, not a BLAS gemv: see the module docstring.
        total += np.einsum("k,kij->ij", weights[batch], invs)
    return ComplexMatrix(total * (contour.radius / contour.nodes))


def contour_funcalc(t, f: ScalarFunc, contour: ContourSpec) -> ComplexMatrix:
    """Evaluate f(T) for one matrix by contour quadrature.

    Raises SingularOnContour when a quadrature node hits the spectrum of T;
    the caller should nudge the radius, not this routine.
    """
    tm = t if isinstance(t, ComplexMatrix) else ComplexMatrix(t)
    return _quadrature(tm, _contour_weights(f, contour), contour)


@dataclass(frozen=True)
class _Funcalc(FamilyNode):
    """Derived node: apply a scalar function to every member of a family.

    Not serializable to JSON; exists so functional-calculus images can be
    fed back into the classifiers and field sweeps like any other family.
    The inner family is evaluated once per call, as one stack. The weights
    do not depend on h: they are computed on the first evaluation (so errors
    from ``func`` surface there) and kept.
    """

    inner: FamilySpec
    func: ScalarFunc = field(compare=False)
    contour: ContourSpec

    @property
    def dim(self) -> int:
        return self.inner.dim

    @cached_property
    def _weights(self) -> np.ndarray:
        return _contour_weights(self.func, self.contour)

    def _eval(self, hs: np.ndarray) -> np.ndarray:
        # One stack of the inner family, then one quadrature per member, in
        # _quadrature's batches of MIN_NODES nodes.
        return np.stack(
            [self._image(h, t) for h, t in zip(hs.tolist(), self.inner.node._eval(hs))]
        )

    def _image(self, h: float, t: np.ndarray) -> np.ndarray:
        try:
            return _quadrature(ComplexMatrix(t), self._weights, self.contour).array
        except SingularOnContour as exc:
            raise TraceError(h, f"functional calculus failed at h={h!r}: {exc}") from exc


def family_funcalc(tf: FamilySpec, f: ScalarFunc, contour: ContourSpec) -> FamilySpec:
    """The image family h -> f(T_h), evaluated by quadrature at each h asked for."""
    return FamilySpec(tf.dim, _Funcalc(tf, f, contour))


def contour_encloses(contour: ContourSpec, clusters, margin: float = 0.95) -> bool:
    """Do all cluster blobs sit strictly inside the circle (with slack)?

    margin < 1 shrinks the admissible disc so blobs hugging the contour
    count as NOT enclosed; quadrature accuracy degrades there anyway.
    """
    if not 0 < margin <= 1:
        raise BadParameter("margin must lie in (0, 1]")
    limit = margin * contour.radius
    return all(abs(c.centroid - contour.center) + c.radius <= limit for c in clusters)


def require_enclosing(contour: ContourSpec, clusters, margin: float = 0.95) -> None:
    if not contour_encloses(contour, clusters, margin):
        raise NonEnclosing(
            "contour does not enclose every spectrum cluster with margin "
            f"{margin:g}; widen the radius or recenter"
        )


__all__ = [
    "ContourSpec",
    "ScalarFunc",
    "expr_function",
    "contour_funcalc",
    "family_funcalc",
    "contour_encloses",
    "require_enclosing",
    "MIN_NODES",
    "DEFAULT_NODES",
]
