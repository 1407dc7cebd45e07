"""Verdict-valued classifiers for asymptotic relations between families.

Each classifier reduces a limit statement to finite evidence (a tail
estimate or a bracket root sequence) and returns a verdict rather than a
bare boolean: numerical tails can support or contradict a limit, but they
cannot always decide it, so INCONCLUSIVE is a first-class outcome.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

from .brackets import (
    DEFAULT_SEQUENCE_ORDER,
    BracketSequence,
    RootClass,
    power_norm_sequence,
    root_limit,
    stack_bracket_sequence,
)
from .families import (
    FamilySpec,
    HGrid,
    TailEstimate,
    default_vanish_tol,
    family_pair_stacks,
    tail_to_dict,
    tail_vanishes,
    window_limsup,
)
from .linalg import spectral_norms

DEFAULT_ROOT_TOL = 1e-3


class VerdictKind(str, Enum):
    ASYMPTOTIC_EQUIV = "asymptotic_equiv"
    ASYMPTOTIC_COMMUTING = "asymptotic_commuting"
    QUASINILPOTENT_EQUIV = "quasinilpotent_equiv"
    QUASINILPOTENT_SINGLE = "quasinilpotent_single"


class VerdictResult(str, Enum):
    HOLDS = "holds"
    FAILS = "fails"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class EquivalenceVerdict:
    kind: VerdictKind
    result: VerdictResult
    both_directions: bool
    tail: TailEstimate | None = None
    sequences: tuple[BracketSequence, ...] = ()


def _vanishing_verdict(
    kind: VerdictKind,
    sf: FamilySpec,
    tf: FamilySpec,
    grid: HGrid,
    tol: float | None,
    combine: Callable[[np.ndarray, np.ndarray], np.ndarray],
) -> EquivalenceVerdict:
    """HOLDS when the norm of ``combine(S_h, T_h)`` vanishes in the tail,
    else FAILS.

    Both families are evaluated where they are read: at the tail-window
    samples, and at the grid's first sample h0 when the tolerance is omitted,
    since default_vanish_tol scales with the norm there.
    """
    if tol is None:
        first = family_pair_stacks(sf, tf, (grid.h0,))
        tol = default_vanish_tol(spectral_norms(combine(*first))[0])
    window = family_pair_stacks(sf, tf, grid.window_samples)
    tail = window_limsup(spectral_norms(combine(*window)), grid)
    return EquivalenceVerdict(
        kind,
        VerdictResult.HOLDS if tail_vanishes(tail, tol) else VerdictResult.FAILS,
        both_directions=True,
        tail=tail,
    )


def asymptotic_equiv(
    sf: FamilySpec, tf: FamilySpec, grid: HGrid, tol: float | None = None
) -> EquivalenceVerdict:
    """Does the norm of S_h - T_h vanish in the tail?

    The difference norm is symmetric, so one trace certifies both directions.
    """
    return _vanishing_verdict(VerdictKind.ASYMPTOTIC_EQUIV, sf, tf, grid, tol, np.subtract)


def asymptotic_commuting(
    sf: FamilySpec, tf: FamilySpec, grid: HGrid, tol: float | None = None
) -> EquivalenceVerdict:
    """Does the commutator norm of (S_h, T_h) vanish in the tail?"""
    return _vanishing_verdict(VerdictKind.ASYMPTOTIC_COMMUTING, sf, tf, grid, tol, _commutator)


def _commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a @ b - b @ a


def _roots_verdict(limits: list[RootClass]) -> VerdictResult:
    if all(c is RootClass.ZERO for c in limits):
        return VerdictResult.HOLDS
    if any(c is RootClass.POSITIVE for c in limits):
        return VerdictResult.FAILS
    return VerdictResult.INCONCLUSIVE


def quasinilpotent_equiv(
    sf: FamilySpec,
    tf: FamilySpec,
    grid: HGrid,
    n_max: int = DEFAULT_SEQUENCE_ORDER,
    tol: float = DEFAULT_ROOT_TOL,
) -> EquivalenceVerdict:
    """Do the bracket root sequences of BOTH orderings tend to zero?"""
    sa, ta = family_pair_stacks(sf, tf, grid.window_samples)
    seq_st = stack_bracket_sequence(sa, ta, grid, n_max)
    seq_ts = stack_bracket_sequence(ta, sa, grid, n_max)
    result = _roots_verdict(
        [root_limit(seq_st, tol).classification, root_limit(seq_ts, tol).classification]
    )
    return EquivalenceVerdict(
        VerdictKind.QUASINILPOTENT_EQUIV,
        result,
        both_directions=True,
        sequences=(seq_st, seq_ts),
    )


def is_asymptotic_quasinilpotent(
    uf: FamilySpec,
    grid: HGrid,
    n_max: int = DEFAULT_SEQUENCE_ORDER,
    tol: float = DEFAULT_ROOT_TOL,
) -> EquivalenceVerdict:
    """Does the power-norm root sequence of a single family tend to zero?

    Equivalent to the pair classifier against the zero family: the order-n
    bracket of (U_h, 0) is exactly U_h^n, and the reversed ordering only
    flips signs, so one power sequence carries all the evidence.
    """
    seq = power_norm_sequence(uf, grid, n_max)
    result = _roots_verdict([root_limit(seq, tol).classification])
    return EquivalenceVerdict(
        VerdictKind.QUASINILPOTENT_SINGLE,
        result,
        both_directions=False,
        sequences=(seq,),
    )


def verdict_to_dict(verdict: EquivalenceVerdict) -> dict:
    """JSON form: kind, result, evidence summary, and the direction flag."""
    evidence: dict = {}
    if verdict.tail is not None:
        evidence["tail"] = tail_to_dict(verdict.tail)
    if verdict.sequences:
        evidence["root_sequences"] = [
            {"n_max": seq.n_max, "roots": list(seq.roots)} for seq in verdict.sequences
        ]
    return {
        "kind": verdict.kind.value,
        "result": verdict.result.value,
        "both_directions": verdict.both_directions,
        "evidence_summary": evidence,
    }

