"""Iterated difference brackets of matrix pairs and their growth rates.

The order-n bracket of an ordered pair (t, s) is the alternating binomial sum
``sum_k (-1)^(n-k) C(n,k) t^k s^(n-k)``; it collapses to ``(t-s)^n`` exactly
when t and s commute. For a pair of families the per-order tail norms and
their n-th roots drive the equivalence classifiers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from itertools import islice
from typing import Iterator

import numpy as np

from .errors import BadParameter, DimensionMismatch, OutOfRange
from .families import FamilySpec, HGrid, constant_family, family_pair_stacks, window_sup
from .linalg import ComplexMatrix, matrix_power, operator_norm, spectral_norms, sub

MAX_ORDER = 60
MAX_SEQUENCE_ORDER = 40
MAX_COMPOSE_ORDER = 30
# Dead-band for the "roots are not increasing" reading in root_limit: the
# classification accepts a window whose least-squares slope is non-positive.
ROOT_SLOPE_DEADBAND = 1e-9


def binom(n: int, k: int) -> int:
    """Exact binomial coefficient with the package's range policy (n <= 60)."""
    if n < 0 or n > MAX_ORDER:
        raise OutOfRange(f"binom order n={n} outside 0..{MAX_ORDER}")
    if k < 0 or k > n:
        raise OutOfRange(f"binom index k={k} outside 0..{n}")
    return math.comb(n, k)


def _check_order(n: int, cap: int) -> None:
    if n < 0 or n > cap:
        raise OutOfRange(f"bracket order n={n} outside 0..{cap}")


def bracket_direct(t: ComplexMatrix, s: ComplexMatrix, n: int) -> ComplexMatrix:
    """Order-n bracket by the alternating binomial sum."""
    if t.dim != s.dim:
        raise DimensionMismatch(f"dimensions differ: {t.dim} vs {s.dim}")
    _check_order(n, MAX_ORDER)
    acc = np.zeros((t.dim, t.dim), dtype=np.complex128)
    for k in range(n + 1):
        sign = -1.0 if (n - k) % 2 else 1.0
        term = matrix_power(t, k).array @ matrix_power(s, n - k).array
        acc += (sign * binom(n, k)) * term
    return ComplexMatrix(acc)


def iter_brackets(t: np.ndarray, s: np.ndarray) -> Iterator[np.ndarray]:
    """Brackets of orders 0, 1, 2, ... of (t, s), endlessly, by the recurrence
    ``B -> t B - B s`` from I; t and s are matrices or stacks of them."""
    b = np.eye(t.shape[-1], dtype=np.complex128)
    while True:
        yield b
        b = t @ b - b @ s


def bracket_recurrence(t: ComplexMatrix, s: ComplexMatrix, n: int) -> ComplexMatrix:
    """Order-n bracket by the two-sided recurrence ``B -> t B - B s`` from I."""
    if t.dim != s.dim:
        raise DimensionMismatch(f"dimensions differ: {t.dim} vs {s.dim}")
    _check_order(n, MAX_ORDER)
    return ComplexMatrix(next(islice(iter_brackets(t.array, s.array), n, None)))


def bracket_compose_check(
    t: ComplexMatrix, s: ComplexMatrix, p: ComplexMatrix, n: int
) -> float:
    """Residual norm of the through-a-midpoint expansion of the bracket.

    The order-n bracket of (t, s) equals the binomial convolution
    ``sum_k C(n,k) B_k(t,p) B_{n-k}(p,s)``; the residual is the spectral norm
    of the difference and vanishes up to rounding for every triple.
    """
    if not (t.dim == s.dim == p.dim):
        raise DimensionMismatch("bracket_compose_check wants equal dimensions")
    _check_order(n, MAX_COMPOSE_ORDER)
    lhs = bracket_direct(t, s, n)
    acc = np.zeros((t.dim, t.dim), dtype=np.complex128)
    for k in range(n + 1):
        left = bracket_direct(t, p, k)
        right = bracket_direct(p, s, n - k)
        acc += binom(n, k) * (left.array @ right.array)
    return operator_norm(sub(lhs, ComplexMatrix(acc)))


@dataclass(frozen=True)
class BracketSequence:
    """Tail norms a_n of the order-n brackets of a family pair, with roots."""

    n_max: int
    norms: tuple[float, ...]  # a_1 .. a_{n_max}
    roots: tuple[float, ...]  # a_n ** (1/n)

    def __post_init__(self) -> None:
        if len(self.norms) != self.n_max or len(self.roots) != self.n_max:
            raise BadParameter("sequence length must equal n_max")


def bracket_sequence(
    sf: FamilySpec, tf: FamilySpec, grid: HGrid, n_max: int = 24
) -> BracketSequence:
    """Per-order tail norms of the brackets of (S_h, T_h) over the grid.

    Both families are evaluated at every grid sample, so an evaluation error
    anywhere on the grid raises. The recurrence ``B -> S_h B - B T_h`` then
    runs on the stack of the tail-window samples alone, with one batched
    norm per order.
    """
    return stack_bracket_sequence(*family_pair_stacks(sf, tf, grid.samples), grid, n_max)


def stack_bracket_sequence(
    sa: np.ndarray, ta: np.ndarray, grid: HGrid, n_max: int
) -> BracketSequence:
    """:func:`bracket_sequence` of a pair already evaluated into grid stacks;
    only their last ``grid.tail_window`` members are read."""
    if not 1 <= n_max <= MAX_SEQUENCE_ORDER:
        raise OutOfRange(f"n_max={n_max} outside 1..{MAX_SEQUENCE_ORDER}")
    w = grid.tail_window
    orders = islice(iter_brackets(sa[-w:], ta[-w:]), 1, n_max + 1)
    norms = tuple(window_sup(spectral_norms(b)) for b in orders)
    roots = tuple(a ** (1.0 / n) for n, a in enumerate(norms, start=1))
    return BracketSequence(n_max, norms, roots)


def power_norm_sequence(uf: FamilySpec, grid: HGrid, n_max: int = 24) -> BracketSequence:
    """Tail norms of the plain powers ``U_h^n``: the bracket against zero."""
    return bracket_sequence(uf, constant_family(ComplexMatrix.zeros(uf.dim)), grid, n_max)


class RootClass(str, Enum):
    ZERO = "zero"
    POSITIVE = "positive"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class RootLimit:
    classification: RootClass
    estimate: float | None  # the band center for POSITIVE, else None


def root_limit(sequence: BracketSequence, tol: float) -> RootLimit:
    """Classify the limiting behavior of the root sequence.

    ``ZERO``: the last four roots all sit below ``tol`` and are not trending
    upward (least-squares slope at most a small dead-band). ``POSITIVE``: the
    last four roots agree to within 10% of their mean, which exceeds ``tol``.
    Anything else is ``INCONCLUSIVE``.
    """
    if sequence.n_max < 8:
        raise BadParameter("root_limit wants a sequence of order at least 8")
    last = sequence.roots[-4:]
    mean = sum(last) / 4.0
    xs = np.arange(4.0)
    slope = float(np.dot(xs - 1.5, np.asarray(last) - mean) / np.dot(xs - 1.5, xs - 1.5))
    deadband = ROOT_SLOPE_DEADBAND * max(1.0, mean)
    if all(r <= tol for r in last) and slope <= deadband:
        return RootLimit(RootClass.ZERO, None)
    if mean > tol and all(abs(r - mean) <= 0.1 * mean for r in last):
        return RootLimit(RootClass.POSITIVE, mean)
    return RootLimit(RootClass.INCONCLUSIVE, None)


def sequence_to_csv(sequence: BracketSequence) -> str:
    """CSV with columns n, a_n, a_n^(1/n)."""
    lines = ["n,a_n,a_n^(1/n)"]
    for n in range(1, sequence.n_max + 1):
        a = sequence.norms[n - 1]
        r = sequence.roots[n - 1]
        lines.append("%d,%.17g,%.17g" % (n, a, r))
    return "\n".join(lines) + "\n"


# Re-exported convenience: the collapse comparison used by tests.


def commuting_collapse_residual(t: ComplexMatrix, s: ComplexMatrix, n: int) -> float:
    """Norm distance between the order-n bracket and the plain power (t-s)^n."""
    return operator_norm(sub(bracket_direct(t, s, n), matrix_power(sub(t, s), n)))


__all__ = [
    "MAX_ORDER",
    "MAX_SEQUENCE_ORDER",
    "MAX_COMPOSE_ORDER",
    "binom",
    "bracket_direct",
    "bracket_recurrence",
    "bracket_compose_check",
    "BracketSequence",
    "bracket_sequence",
    "power_norm_sequence",
    "RootClass",
    "RootLimit",
    "root_limit",
    "sequence_to_csv",
    "commuting_collapse_residual",
]
