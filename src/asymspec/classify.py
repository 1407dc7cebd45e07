"""Verdict-valued classifiers for asymptotic relations between families.

Each classifier reduces a limit statement to finite evidence (a tail
estimate or a bracket root sequence) and returns a verdict rather than a
bare boolean: numerical tails can support or contradict a limit, but they
cannot always decide it, so INCONCLUSIVE is a first-class outcome.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .brackets import BracketSequence, RootClass, bracket_sequence, power_norm_sequence, root_limit
from .errors import DimensionMismatch
from .families import (
    FamilySpec,
    HGrid,
    TailEstimate,
    default_vanish_tol,
    family_eval_stack,
    tail_limsup,
    vanishes,
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


def _difference_norms(sf: FamilySpec, tf: FamilySpec, grid: HGrid) -> np.ndarray:
    if sf.dim != tf.dim:
        raise DimensionMismatch(f"family dimensions differ: {sf.dim} vs {tf.dim}")
    return spectral_norms(family_eval_stack(sf, grid.samples) - family_eval_stack(tf, grid.samples))


def asymptotic_equiv(
    sf: FamilySpec, tf: FamilySpec, grid: HGrid, tol: float | None = None
) -> EquivalenceVerdict:
    """Does the norm of S_h - T_h vanish in the tail?

    The difference norm is symmetric, so one trace certifies both directions.
    """
    values = _difference_norms(sf, tf, grid)
    if tol is None:
        tol = default_vanish_tol(values)
    holds = vanishes(values, grid, tol)
    return EquivalenceVerdict(
        VerdictKind.ASYMPTOTIC_EQUIV,
        VerdictResult.HOLDS if holds else VerdictResult.FAILS,
        both_directions=True,
        tail=tail_limsup(values, grid),
    )


def asymptotic_commuting(
    sf: FamilySpec, tf: FamilySpec, grid: HGrid, tol: float | None = None
) -> EquivalenceVerdict:
    """Does the commutator norm of (S_h, T_h) vanish in the tail?"""
    if sf.dim != tf.dim:
        raise DimensionMismatch(f"family dimensions differ: {sf.dim} vs {tf.dim}")
    sa = family_eval_stack(sf, grid.samples)
    ta = family_eval_stack(tf, grid.samples)
    values = spectral_norms(sa @ ta - ta @ sa)
    if tol is None:
        tol = default_vanish_tol(values)
    holds = vanishes(values, grid, tol)
    return EquivalenceVerdict(
        VerdictKind.ASYMPTOTIC_COMMUTING,
        VerdictResult.HOLDS if holds else VerdictResult.FAILS,
        both_directions=True,
        tail=tail_limsup(values, grid),
    )


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
    n_max: int = 24,
    tol: float = DEFAULT_ROOT_TOL,
) -> EquivalenceVerdict:
    """Do the bracket root sequences of BOTH orderings tend to zero?"""
    seq_st = bracket_sequence(sf, tf, grid, n_max)
    seq_ts = bracket_sequence(tf, sf, grid, n_max)
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
    uf: FamilySpec, grid: HGrid, n_max: int = 24, tol: float = DEFAULT_ROOT_TOL
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
        evidence["tail"] = {
            "value": _json_float(verdict.tail.value),
            "trend": verdict.tail.trend.value,
            "window_values": [_json_float(v) for v in verdict.tail.window_values],
        }
    if verdict.sequences:
        evidence["root_sequences"] = [
            {
                "n_max": seq.n_max,
                "roots": [_json_float(r) for r in seq.roots],
            }
            for seq in verdict.sequences
        ]
    return {
        "kind": verdict.kind.value,
        "result": verdict.result.value,
        "both_directions": verdict.both_directions,
        "evidence_summary": evidence,
    }


def _json_float(x: float) -> float | str:
    if np.isfinite(x):
        return float(x)
    if np.isnan(x):
        return "nan"
    return "inf" if x > 0 else "-inf"
