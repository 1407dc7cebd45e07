"""Iterated difference brackets of matrix pairs and their growth rates.

The order-n bracket of an ordered pair (t, s) is the alternating binomial sum
``sum_k (-1)^(n-k) C(n,k) t^k s^(n-k)``; it collapses to ``(t-s)^n`` exactly
when t and s commute. The library forms it by the recurrence
``B -> t B - B s`` (:func:`iter_brackets`); the ``verify`` suites hold that
recurrence to the binomial sum. For a pair of families the per-order tail
norms and their n-th roots drive the equivalence classifiers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from itertools import islice
from typing import Iterator

import numpy as np

from .errors import BadParameter, LengthMismatch, OutOfRange
from .families import FamilySpec, HGrid, family_eval_stack, family_pair_stacks, window_sup
from .linalg import spectral_norms

MAX_SEQUENCE_ORDER = 40
# The order n_max that bracket and power sequences and the classifiers read
# by default: a constant quasinilpotent-equivalent pair of dimension d has
# B_{2d-1} = 0, so 24 covers d <= 12.
DEFAULT_SEQUENCE_ORDER = 24
# Dead-band for the "roots are not increasing" reading in root_limit: the
# classification accepts a window whose least-squares slope is non-positive.
ROOT_SLOPE_DEADBAND = 1e-9


def iter_brackets(t: np.ndarray, s: np.ndarray) -> Iterator[np.ndarray]:
    """Brackets of orders 0, 1, 2, ... of (t, s), endlessly, by the recurrence
    ``B -> t B - B s`` from I; t and s are matrices or stacks of them. Each
    order is formed from the array yielded for the one before it, so a
    caller that rescales that array in place rescales every later order."""
    b = np.eye(t.shape[-1], dtype=np.complex128)
    while True:
        yield b
        b = t @ b - b @ s


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
    sf: FamilySpec, tf: FamilySpec, grid: HGrid, n_max: int = DEFAULT_SEQUENCE_ORDER
) -> BracketSequence:
    """Per-order tail norms of the brackets of (S_h, T_h).

    Both families are evaluated at the tail-window samples alone, so an
    evaluation error raises only where it names a window h. The recurrence
    ``B -> S_h B - B T_h`` runs on those stacks, with one batched norm per
    order.
    """
    return stack_bracket_sequence(*family_pair_stacks(sf, tf, grid.window_samples), grid, n_max)


def stack_bracket_sequence(
    sa: np.ndarray, ta: np.ndarray, grid: HGrid, n_max: int
) -> BracketSequence:
    """:func:`bracket_sequence` of a pair already evaluated into stacks at
    ``grid.window_samples``; LengthMismatch for stacks of another length.

    The recurrence carries the bracket as b 2^E with an integer E, which
    stays 0 until an order's norm passes 2^500; b is then divided by the
    power of two just above its norm, so the next orders cannot overflow
    while the roots ``|b|^(1/n) 2^(E/n)`` are finite. A norm whose true value
    passes the float range is reported as inf.
    """
    if not 1 <= n_max <= MAX_SEQUENCE_ORDER:
        raise OutOfRange(f"n_max={n_max} outside 1..{MAX_SEQUENCE_ORDER}")
    if not len(sa) == len(ta) == grid.tail_window:
        raise LengthMismatch(f"expected stacks of {grid.tail_window} window samples")
    exponent = 0
    norms, roots = [], []
    for n, b in enumerate(islice(iter_brackets(sa, ta), 1, n_max + 1), start=1):
        a = window_sup(spectral_norms(b))
        mantissa, shift = math.frexp(a)
        # math.ldexp raises where the product leaves the float range
        fits = shift + exponent <= 1024
        norms.append(math.ldexp(mantissa, shift + exponent) if fits else math.inf)
        roots.append(a ** (1.0 / n) * 2.0 ** (exponent / n))
        if 2.0**500 < a < math.inf:
            b *= 2.0**-shift
            exponent += shift
    return BracketSequence(n_max, tuple(norms), tuple(roots))


def power_norm_sequence(
    uf: FamilySpec, grid: HGrid, n_max: int = DEFAULT_SEQUENCE_ORDER
) -> BracketSequence:
    """Tail norms of the plain powers ``U_h^n``: the bracket against zero."""
    ua = family_eval_stack(uf, grid.window_samples)
    return stack_bracket_sequence(ua, np.zeros_like(ua), grid, n_max)


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


__all__ = [
    "MAX_SEQUENCE_ORDER",
    "DEFAULT_SEQUENCE_ORDER",
    "BracketSequence",
    "bracket_sequence",
    "power_norm_sequence",
    "RootClass",
    "RootLimit",
    "root_limit",
]
