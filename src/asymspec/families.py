"""Operator families over the parameter interval (0, 1].

A family is a declarative recipe mapping the parameter ``h`` to a square
complex matrix of fixed dimension. Limits as ``h -> 0`` are replaced by
statistics over a finite geometric sampling grid: the value of a trace "in
the tail" is the maximum over the last ``tail_window`` samples, and its trend
is the sign of the least-squares slope of those samples against ``log h``.

Every recipe node evaluates a whole stack at once: ``_eval(hs)`` takes a 1-d
float array of k samples of h and returns the (k, n, n) complex stack of the
node's values at those samples, in the order of ``hs``. Fixed matrices
broadcast, ``h_scaled`` multiplies by ``hs``, and sums and products combine
their children's stacks. :func:`family_eval_stack` is the one evaluator: it
alone checks that every h lies in (0, 1] and that every value is finite.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from functools import reduce
from typing import Sequence

import numpy as np

from .errors import (
    BadParameter,
    DimensionMismatch,
    ExprError,
    LengthMismatch,
    SchemaError,
    TraceError,
)
from .exprs import FuncExpr, eval_expr, parse_expr
from .linalg import ComplexMatrix, jordan_block, matrix_from_dict, matrix_to_dict

# Dead-band on the window slope below which a trend counts as flat.
TREND_DEADBAND = 1e-10


# ---------------------------------------------------------------------------
# Sampling grid


@dataclass(frozen=True)
class HGrid:
    """Strictly decreasing samples of h in (0, 1] plus a tail window size."""

    samples: tuple[float, ...]
    tail_window: int

    def __post_init__(self) -> None:
        if len(self.samples) < 4:
            raise BadParameter("grid needs at least 4 samples")
        if not all(0.0 < h <= 1.0 for h in self.samples):
            raise BadParameter("grid samples must lie in (0, 1]")
        if not all(a > b for a, b in zip(self.samples, self.samples[1:])):
            raise BadParameter("grid samples must be strictly decreasing")
        if not 1 <= self.tail_window <= len(self.samples):
            raise BadParameter("tail_window must be between 1 and the sample count")

    @property
    def count(self) -> int:
        return len(self.samples)

    @property
    def window_samples(self) -> tuple[float, ...]:
        return self.samples[-self.tail_window :]


def geometric_grid(
    h0: float = 1.0, ratio: float = 0.5, count: int = 20, tail_window: int = 6
) -> HGrid:
    """Grid ``h0 * ratio**j`` for j = 0..count-1."""
    if not 0.0 < h0 <= 1.0:
        raise BadParameter("h0 must lie in (0, 1]")
    if not 0.0 < ratio < 1.0:
        raise BadParameter("ratio must lie strictly between 0 and 1")
    if count < 4:
        raise BadParameter("count must be at least 4")
    return HGrid(tuple(h0 * ratio**j for j in range(count)), tail_window)


# ---------------------------------------------------------------------------
# Tail estimation


class Trend(str, enum.Enum):
    DECREASING = "decreasing"
    FLAT = "flat"
    INCREASING = "increasing"


@dataclass(frozen=True)
class TailEstimate:
    """Max of the window values plus the direction they move as h -> 0."""

    value: float
    trend: Trend
    window_values: tuple[float, ...]


def _window_slope(hs: Sequence[float], values: Sequence[float]) -> float:
    # Least-squares slope of values against log h. Positive slope means the
    # values shrink as h -> 0 (log h runs to -infinity).
    if len(values) < 2:
        return 0.0
    xs = np.log(np.asarray(hs, dtype=np.float64))
    ys = np.asarray(values, dtype=np.float64)
    xdev = xs - xs.mean()
    denom = float(np.dot(xdev, xdev))
    if denom == 0.0:
        return 0.0
    return float(np.dot(xdev, ys - ys.mean()) / denom)


def tail_limsup(values: Sequence[float], grid: HGrid) -> TailEstimate:
    """Tail statistic of one value per grid sample (ordered like the grid).

    Only the window defines the estimate: values outside it, finite or not,
    are ignored (see :func:`window_limsup`).
    """
    if len(values) != grid.count:
        raise LengthMismatch(f"expected {grid.count} values, got {len(values)}")
    return window_limsup(values[-grid.tail_window :], grid)


def window_limsup(window: Sequence[float], grid: HGrid) -> TailEstimate:
    """Tail statistic of one value per tail-window sample (ordered like
    ``grid.window_samples``). Callers that need nothing but the tail compute
    these values alone.

    The value is :func:`window_sup`; a non-finite value forces a flat trend.
    """
    window = tuple(float(v) for v in window)
    if len(window) != grid.tail_window:
        raise LengthMismatch(f"expected {grid.tail_window} window values, got {len(window)}")
    value = window_sup(window)
    if not math.isfinite(value):
        return TailEstimate(value, Trend.FLAT, window)
    slope = _window_slope(grid.window_samples, window)
    if abs(slope) <= TREND_DEADBAND:
        trend = Trend.FLAT
    elif slope > 0.0:
        trend = Trend.DECREASING
    else:
        trend = Trend.INCREASING
    return TailEstimate(value, trend, window)


def window_sup(window: Sequence[float]) -> float:
    """The value of the tail statistic alone, for callers that read no trend:
    the largest of the window values, or inf when one of them is not finite."""
    values = [float(v) for v in window]
    return max(values) if all(math.isfinite(v) for v in values) else math.inf


def default_vanish_tol(values: Sequence[float]) -> float:
    """Scale-aware tolerance: 1e-4 times (1 + the trace magnitude at h0)."""
    first = float(values[0])
    if not math.isfinite(first):
        return 1e-4
    return 1e-4 * (1.0 + abs(first))


def tail_vanishes(estimate: TailEstimate, tol: float) -> bool:
    """True when the tail value is below ``tol`` and not trending upward."""
    return estimate.value <= tol and estimate.trend is not Trend.INCREASING


def vanishes(values: Sequence[float], grid: HGrid, tol: float) -> bool:
    """Same test as :func:`tail_vanishes`, starting from one value per sample."""
    return tail_vanishes(tail_limsup(values, grid), tol)


# ---------------------------------------------------------------------------
# Family recipe nodes


class FamilyNode:
    """Base for recipe nodes; subclasses define ``dim`` and ``_eval``."""

    @property
    def dim(self) -> int:  # pragma: no cover - overridden
        raise NotImplementedError

    def _eval(self, hs: np.ndarray) -> np.ndarray:  # pragma: no cover - overridden
        """The (k, n, n) stack of values at the k samples ``hs``. Do not mutate it."""
        raise NotImplementedError


def _fixed(matrix: ComplexMatrix, hs: np.ndarray) -> np.ndarray:
    """An h-independent matrix at every sample, as a read-only broadcast view."""
    return np.broadcast_to(matrix.array, (len(hs), matrix.dim, matrix.dim))


@dataclass(frozen=True)
class Constant(FamilyNode):
    matrix: ComplexMatrix

    @property
    def dim(self) -> int:
        return self.matrix.dim

    def _eval(self, hs: np.ndarray) -> np.ndarray:
        return _fixed(self.matrix, hs)


@dataclass(frozen=True)
class Jordan(FamilyNode):
    size: int
    eigenvalue: complex
    _matrix: ComplexMatrix = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_matrix", jordan_block(self.size, self.eigenvalue))

    @property
    def dim(self) -> int:
        return self.size

    def _eval(self, hs: np.ndarray) -> np.ndarray:
        return _fixed(self._matrix, hs)


@dataclass(frozen=True)
class DiagExpr(FamilyNode):
    """Diagonal family whose entries are expressions in the free variable h.

    The entries are scalar expressions, so they are evaluated one h at a
    time, in the order of ``hs``; an error names the entry and the h.
    """

    entries: tuple[str, ...]
    _asts: tuple[FuncExpr, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.entries:
            raise BadParameter("diag_expr needs at least one entry")
        object.__setattr__(self, "_asts", tuple(parse_expr(src) for src in self.entries))

    @property
    def dim(self) -> int:
        return len(self.entries)

    def _eval(self, hs: np.ndarray) -> np.ndarray:
        values = np.empty((len(hs), self.dim), dtype=np.complex128)
        for k, h in enumerate(hs.tolist()):
            for i, ast in enumerate(self._asts):
                try:
                    value = eval_expr(ast, {"h": complex(h)})
                except Exception as exc:
                    raise ExprError(f"entry {i} ({self.entries[i]!r}) at h={h!r}: {exc}") from exc
                values[k, i] = value
        out = np.zeros((len(hs), self.dim, self.dim), dtype=np.complex128)
        diagonal = np.arange(self.dim)
        out[:, diagonal, diagonal] = values
        return out


@dataclass(frozen=True)
class HScaled(FamilyNode):
    inner: FamilyNode

    @property
    def dim(self) -> int:
        return self.inner.dim

    def _eval(self, hs: np.ndarray) -> np.ndarray:
        return hs[:, None, None] * self.inner._eval(hs)


@dataclass(frozen=True)
class Sum(FamilyNode):
    children: tuple[FamilyNode, ...]

    def __post_init__(self) -> None:
        if not self.children:
            raise BadParameter("sum needs at least one child")
        dims = {c.dim for c in self.children}
        if len(dims) != 1:
            raise DimensionMismatch(f"sum children disagree on dimension: {sorted(dims)}")

    @property
    def dim(self) -> int:
        return self.children[0].dim

    def _eval(self, hs: np.ndarray) -> np.ndarray:
        return reduce(np.add, (child._eval(hs) for child in self.children))


@dataclass(frozen=True)
class Product(FamilyNode):
    children: tuple[FamilyNode, ...]

    def __post_init__(self) -> None:
        if not self.children:
            raise BadParameter("product needs at least one child")
        dims = {c.dim for c in self.children}
        if len(dims) != 1:
            raise DimensionMismatch(f"product children disagree on dimension: {sorted(dims)}")

    @property
    def dim(self) -> int:
        return self.children[0].dim

    def _eval(self, hs: np.ndarray) -> np.ndarray:
        return reduce(np.matmul, (child._eval(hs) for child in self.children))


@dataclass(frozen=True)
class SeededRandom(FamilyNode):
    """Fixed (h-independent) random matrix, reproducible from the seed.

    Entries are ``scale * (x + iy)`` with x, y independent standard normals
    drawn from ``numpy.random.default_rng(seed)``.
    """

    size: int
    seed: int
    scale_factor: float = 1.0
    _matrix: ComplexMatrix = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.size < 1:
            raise BadParameter("random node needs size >= 1")
        rng = np.random.default_rng(self.seed)
        a = rng.standard_normal((self.size, self.size)) + 1j * rng.standard_normal(
            (self.size, self.size)
        )
        object.__setattr__(self, "_matrix", ComplexMatrix(self.scale_factor * a))

    @property
    def dim(self) -> int:
        return self.size

    def _eval(self, hs: np.ndarray) -> np.ndarray:
        return _fixed(self._matrix, hs)


@dataclass(frozen=True)
class FamilySpec:
    """A recipe node plus its (validated) dimension."""

    dim: int
    node: FamilyNode

    def __post_init__(self) -> None:
        if self.dim != self.node.dim:
            raise DimensionMismatch(
                f"declared dim {self.dim} does not match node dim {self.node.dim}"
            )


def family_eval_stack(spec: FamilySpec, hs: Sequence[float]) -> np.ndarray:
    """The family at each h in ``hs``, stacked along a new first axis. Do not
    mutate it.

    Raises BadParameter naming the first h outside (0, 1], and TraceError
    naming the first h whose value has a non-finite entry (an overflow).
    """
    hs = np.asarray(hs, dtype=np.float64)
    outside = ~((hs > 0.0) & (hs <= 1.0))
    if outside.any():
        raise BadParameter(f"h must lie in (0, 1], got {float(hs[outside.argmax()])!r}")
    value = spec.node._eval(hs)
    finite = np.isfinite(value).all(axis=(1, 2))
    if not finite.all():
        raise TraceError(float(hs[finite.argmin()]), "the family value has a non-finite entry")
    return value


def family_eval(spec: FamilySpec, h: float) -> ComplexMatrix:
    """Evaluate the family at a parameter value in (0, 1]."""
    return ComplexMatrix(family_eval_array(spec, h))


def family_eval_array(spec: FamilySpec, h: float) -> np.ndarray:
    """Like :func:`family_eval` but returns the raw array. Do not mutate it."""
    return family_eval_stack(spec, (h,))[0]


def family_pair_stacks(
    sf: FamilySpec, tf: FamilySpec, hs: Sequence[float]
) -> tuple[np.ndarray, np.ndarray]:
    """Both families of a pair stacked at each h in ``hs``; DimensionMismatch if dims differ."""
    if sf.dim != tf.dim:
        raise DimensionMismatch(f"family dimensions differ: {sf.dim} vs {tf.dim}")
    return family_eval_stack(sf, hs), family_eval_stack(tf, hs)


# Convenience constructors


def constant_family(matrix) -> FamilySpec:
    m = matrix if isinstance(matrix, ComplexMatrix) else ComplexMatrix(matrix)
    return FamilySpec(m.dim, Constant(m))


def jordan_family(dim: int, eigenvalue: complex) -> FamilySpec:
    return FamilySpec(dim, Jordan(dim, complex(eigenvalue)))


def diag_family(entries: Sequence[str]) -> FamilySpec:
    node = DiagExpr(tuple(entries))
    return FamilySpec(node.dim, node)


def h_scaled(spec: FamilySpec) -> FamilySpec:
    return FamilySpec(spec.dim, HScaled(spec.node))


def family_sum(*specs: FamilySpec) -> FamilySpec:
    node = Sum(tuple(s.node for s in specs))
    return FamilySpec(node.dim, node)


def family_product(*specs: FamilySpec) -> FamilySpec:
    node = Product(tuple(s.node for s in specs))
    return FamilySpec(node.dim, node)


def random_family(dim: int, seed: int, scale: float = 1.0) -> FamilySpec:
    return FamilySpec(dim, SeededRandom(dim, seed, scale))


# ---------------------------------------------------------------------------
# JSON form: {"dim": n, "node": {"kind": ..., ...}}


def _complex_from_json(value: object, path: str) -> complex:
    if isinstance(value, (int, float)):
        return complex(value)
    if isinstance(value, dict) and set(value) <= {"re", "im"}:
        re_part = value.get("re", 0.0)
        im_part = value.get("im", 0.0)
        if isinstance(re_part, (int, float)) and isinstance(im_part, (int, float)):
            return complex(re_part, im_part)
    raise SchemaError("expected a number or {re, im} object", path)


def _complex_to_json(value: complex) -> dict:
    return {"re": float(value.real), "im": float(value.imag)}


def _require(data: dict, key: str, path: str) -> object:
    if key not in data:
        raise SchemaError(f"missing key {key!r}", path)
    return data[key]


def _node_from_dict(data: object, path: str) -> FamilyNode:
    if not isinstance(data, dict):
        raise SchemaError("expected a node object", path)
    kind = _require(data, "kind", path)
    if kind == "constant":
        return Constant(matrix_from_dict(_require(data, "matrix", path), f"{path}/matrix"))
    if kind == "jordan":
        size = _require(data, "dim", path)
        if not isinstance(size, int) or size < 1:
            raise SchemaError("dim must be a positive integer", f"{path}/dim")
        eig = _complex_from_json(_require(data, "eigenvalue", path), f"{path}/eigenvalue")
        return Jordan(size, eig)
    if kind == "diag_expr":
        entries = _require(data, "entries", path)
        if not isinstance(entries, list) or not all(isinstance(e, str) for e in entries):
            raise SchemaError("entries must be a list of strings", f"{path}/entries")
        try:
            return DiagExpr(tuple(entries))
        except Exception as exc:
            raise SchemaError(f"bad entry expression: {exc}", f"{path}/entries") from exc
    if kind == "h_scaled":
        return HScaled(_node_from_dict(_require(data, "inner", path), f"{path}/inner"))
    if kind in ("sum", "product"):
        children = _require(data, "children", path)
        if not isinstance(children, list) or not children:
            raise SchemaError("children must be a nonempty list", f"{path}/children")
        nodes = tuple(
            _node_from_dict(child, f"{path}/children/{i}") for i, child in enumerate(children)
        )
        try:
            return Sum(nodes) if kind == "sum" else Product(nodes)
        except DimensionMismatch as exc:
            raise SchemaError(str(exc), f"{path}/children") from exc
    if kind == "random":
        size = _require(data, "dim", path)
        seed = _require(data, "seed", path)
        scale = data.get("scale", 1.0)
        if not isinstance(size, int) or size < 1:
            raise SchemaError("dim must be a positive integer", f"{path}/dim")
        if not isinstance(seed, int):
            raise SchemaError("seed must be an integer", f"{path}/seed")
        if not isinstance(scale, (int, float)):
            raise SchemaError("scale must be a number", f"{path}/scale")
        return SeededRandom(size, seed, float(scale))
    raise SchemaError(f"unknown node kind {kind!r}", f"{path}/kind")


def family_from_dict(data: object) -> FamilySpec:
    if not isinstance(data, dict):
        raise SchemaError("expected a family object", "")
    dim = _require(data, "dim", "")
    if not isinstance(dim, int) or dim < 1:
        raise SchemaError("dim must be a positive integer", "/dim")
    node = _node_from_dict(_require(data, "node", ""), "/node")
    if node.dim != dim:
        raise SchemaError(f"node dimension {node.dim} does not match dim {dim}", "/dim")
    return FamilySpec(dim, node)


def _node_to_dict(node: FamilyNode) -> dict:
    if isinstance(node, Constant):
        return {"kind": "constant", "matrix": matrix_to_dict(node.matrix)}
    if isinstance(node, Jordan):
        return {"kind": "jordan", "dim": node.size, "eigenvalue": _complex_to_json(node.eigenvalue)}
    if isinstance(node, DiagExpr):
        return {"kind": "diag_expr", "entries": list(node.entries)}
    if isinstance(node, HScaled):
        return {"kind": "h_scaled", "inner": _node_to_dict(node.inner)}
    if isinstance(node, Sum):
        return {"kind": "sum", "children": [_node_to_dict(c) for c in node.children]}
    if isinstance(node, Product):
        return {"kind": "product", "children": [_node_to_dict(c) for c in node.children]}
    if isinstance(node, SeededRandom):
        return {
            "kind": "random",
            "dim": node.size,
            "seed": node.seed,
            "scale": float(node.scale_factor),
        }
    raise BadParameter(f"node {type(node).__name__} has no JSON form")


def family_to_dict(spec: FamilySpec) -> dict:
    return {"dim": spec.dim, "node": _node_to_dict(spec.node)}
