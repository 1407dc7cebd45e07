"""Operator families over the parameter interval (0, 1].

A family is a declarative recipe mapping the parameter ``h`` to a square
complex matrix of fixed dimension. Limits as ``h -> 0`` are replaced by
statistics over a finite geometric sampling grid: the value of a trace "in
the tail" is the maximum over the last ``tail_window`` samples, and its trend
is the sign of the least-squares slope of those samples against ``log h``.
:func:`window_limsup` reads one value per window sample, so a caller
evaluates its family at ``grid.window_samples`` alone.

A family is the root node of its recipe tree: every node kind is a
:class:`FamilySpec`, knows its dimension and evaluates a whole stack at once.
``_eval(hs)`` takes a 1-d float array of k samples of h and returns the
(k, n, n) complex stack of the node's values at those samples, in the order
of ``hs``. Fixed matrices broadcast, ``h_scaled`` multiplies by ``hs``, and
sums and products combine their children's stacks.
:func:`family_eval_stack` is the one evaluator, for every family, the
functional-calculus images of :mod:`asymspec.funcalc` included: it alone
checks that every h lies in (0, 1] and that every value is finite."""

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


def tail_to_dict(tail: TailEstimate) -> dict:
    """JSON form of a tail estimate. Non-finite values stay floats; the
    CLI's canonical JSON writes them as the strings "inf", "-inf", "nan"."""
    return {
        "value": tail.value,
        "trend": tail.trend.value,
        "window_values": list(tail.window_values),
    }


def _window_slope(hs: Sequence[float], values: Sequence[float]) -> float:
    # Least-squares slope of values against log h. Positive slope means the
    # values shrink as h -> 0 (log h runs to -infinity). The values are
    # centred on the first one after scaling by a power of two to at most 1,
    # so a constant window has slope 0 at any magnitude and nothing overflows
    # on the way; a slope past the float range is inf.
    if len(values) < 2:
        return 0.0
    xs = np.log(np.asarray(hs, dtype=np.float64))
    ys = np.asarray(values, dtype=np.float64)
    xdev = xs - xs.mean()
    denom = float(np.dot(xdev, xdev))
    if denom == 0.0:
        return 0.0
    exponent = math.frexp(float(np.abs(ys).max()))[1]
    scaled = np.ldexp(ys, -exponent)
    with np.errstate(over="ignore"):
        return float(np.ldexp(np.dot(xdev, scaled - scaled[0]) / denom, exponent))


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


# ---------------------------------------------------------------------------
# Family recipe nodes


class FamilySpec:
    """A family h -> S_h: the root node of its recipe tree. Every node kind
    derives from it and defines ``dim`` and ``_eval``; evaluate a family
    through :func:`family_eval_stack`."""

    @property
    def dim(self) -> int:  # pragma: no cover - overridden
        raise NotImplementedError

    def _eval(self, hs: np.ndarray) -> np.ndarray:  # pragma: no cover - overridden
        """The (k, n, n) stack of values at the k samples ``hs``. Do not mutate it."""
        raise NotImplementedError


class _Fixed(FamilySpec):
    """Base for h-independent nodes: ``matrix``, a read-only array that
    :class:`ComplexMatrix` checked, at every sample, as a broadcast view."""

    matrix: np.ndarray

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def _eval(self, hs: np.ndarray) -> np.ndarray:
        return np.broadcast_to(self.matrix, (len(hs), self.dim, self.dim))


@dataclass(frozen=True, eq=False)
class Constant(_Fixed):
    """A fixed matrix. It compares and hashes by identity (eq=False), as its
    array field supports neither."""

    matrix: np.ndarray


@dataclass(frozen=True)
class Jordan(_Fixed):
    size: int
    eigenvalue: complex
    matrix: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "matrix", jordan_block(self.size, self.eigenvalue))


@dataclass(frozen=True)
class DiagExpr(FamilySpec):
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
class HScaled(FamilySpec):
    inner: FamilySpec

    @property
    def dim(self) -> int:
        return self.inner.dim

    def _eval(self, hs: np.ndarray) -> np.ndarray:
        return hs[:, None, None] * self.inner._eval(hs)


@dataclass(frozen=True)
class _Combined(FamilySpec):
    """Base for sums and products: the children's stacks folded left to right
    by the subclass's ufunc ``_combine``; ``kind`` names it."""

    children: tuple[FamilySpec, ...]

    def __post_init__(self) -> None:
        if not self.children:
            raise BadParameter(f"{self.kind} needs at least one child")
        dims = {c.dim for c in self.children}
        if len(dims) != 1:
            raise DimensionMismatch(f"{self.kind} children disagree on dimension: {sorted(dims)}")

    @property
    def dim(self) -> int:
        return self.children[0].dim

    def _eval(self, hs: np.ndarray) -> np.ndarray:
        # an overflow is left to family_eval_stack, which names its h
        with np.errstate(over="ignore", invalid="ignore"):
            return reduce(self._combine, (child._eval(hs) for child in self.children))


class Sum(_Combined):
    kind, _combine = "sum", np.add


class Product(_Combined):
    kind, _combine = "product", np.matmul


@dataclass(frozen=True)
class SeededRandom(_Fixed):
    """Fixed (h-independent) random matrix, reproducible from the seed.

    Entries are ``scale * (x + iy)`` with x, y independent standard normals
    drawn from ``numpy.random.default_rng(seed)``.
    """

    size: int
    seed: int
    scale_factor: float = 1.0
    matrix: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.size < 1:
            raise BadParameter("random node needs size >= 1")
        rng = np.random.default_rng(self.seed)
        a = rng.standard_normal((self.size, self.size)) + 1j * rng.standard_normal(
            (self.size, self.size)
        )
        object.__setattr__(self, "matrix", ComplexMatrix(self.scale_factor * a).array)


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
    value = spec._eval(hs)
    finite = np.isfinite(value).all(axis=(1, 2))
    if not finite.all():
        raise TraceError(float(hs[finite.argmin()]), "the family value has a non-finite entry")
    return value


def family_eval(spec: FamilySpec, h: float) -> ComplexMatrix:
    """Evaluate the family at a parameter value in (0, 1]; the value is in the
    result's ``array``."""
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
    return Constant(ComplexMatrix(matrix).array)


def jordan_family(dim: int, eigenvalue: complex) -> FamilySpec:
    return Jordan(dim, complex(eigenvalue))


def diag_family(entries: Sequence[str]) -> FamilySpec:
    return DiagExpr(tuple(entries))


def h_scaled(spec: FamilySpec) -> FamilySpec:
    return HScaled(spec)


def family_sum(*specs: FamilySpec) -> FamilySpec:
    return Sum(specs)


def family_product(*specs: FamilySpec) -> FamilySpec:
    return Product(specs)


def random_family(dim: int, seed: int, scale: float = 1.0) -> FamilySpec:
    return SeededRandom(dim, seed, scale)


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


def _node_from_dict(data: object, path: str) -> FamilySpec:
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
    return node


def _node_to_dict(node: FamilySpec) -> dict:
    if isinstance(node, Constant):
        return {"kind": "constant", "matrix": matrix_to_dict(node.matrix)}
    if isinstance(node, Jordan):
        return {"kind": "jordan", "dim": node.size, "eigenvalue": _complex_to_json(node.eigenvalue)}
    if isinstance(node, DiagExpr):
        return {"kind": "diag_expr", "entries": list(node.entries)}
    if isinstance(node, HScaled):
        return {"kind": "h_scaled", "inner": _node_to_dict(node.inner)}
    if isinstance(node, _Combined):
        return {"kind": node.kind, "children": [_node_to_dict(c) for c in node.children]}
    if isinstance(node, SeededRandom):
        return {
            "kind": "random",
            "dim": node.size,
            "seed": node.seed,
            "scale": float(node.scale_factor),
        }
    raise BadParameter(f"node {type(node).__name__} has no JSON form")


def family_to_dict(spec: FamilySpec) -> dict:
    return {"dim": spec.dim, "node": _node_to_dict(spec)}
