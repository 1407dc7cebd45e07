"""Named property suites behind the ``verify`` command.

Every suite checks one advertised property of the toolkit on fixed or
seeded fixtures and reports pass/fail plus a small dictionary of numeric
evidence. Suites never look at wall-clock time and draw all randomness
from the given seed, so a report is a pure function of (seed, suite set).

Fixture conventions: the default geometric grid (20 samples, ratio 1/2,
window 6) unless a property needs a deeper tail, dimensions at most 8,
and explicit regions chosen so the expected cluster locations land on
grid points whenever exactness matters.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .brackets import iter_brackets
from .classify import (
    VerdictResult,
    asymptotic_equiv,
    is_asymptotic_quasinilpotent,
    quasinilpotent_equiv,
)
from .errors import BadParameter, DimensionMismatch, OutOfRange
from .families import (
    FamilySpec,
    HGrid,
    constant_family,
    diag_family,
    family_sum,
    h_scaled,
    jordan_family,
    random_family,
    tail_vanishes,
)
from .funcalc import ContourSpec, contour_encloses, contour_funcalc, family_funcalc
from .linalg import operator_norm
from .spectrum import (
    ComplexRegion,
    clusters_match,
    resolvent_commutation_residual,
    resolvent_equation_residual,
    resolvent_at,
    resolvent_defect,
    resolvent_norm_field,
    series_resolvent,
    spectrum_estimate,
)

DEFAULT_SEED = 42

# The grid of every suite but the one that needs a deeper tail.
GRID = HGrid()


@dataclass(frozen=True)
class SuiteResult:
    name: str
    passed: bool
    details: dict


def _rng(seed: int, salt: int) -> np.random.Generator:
    return np.random.default_rng([seed, salt])


def _random_matrix(rng: np.random.Generator, dim: int, scale: float) -> np.ndarray:
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return scale * a


def _random_diagonal(rng: np.random.Generator, dim: int, scale: float) -> np.ndarray:
    d = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return np.diag(scale * d)


def _taylor_exp(a: np.ndarray, terms: int = 40) -> np.ndarray:
    """Plain Taylor partial sum for exp; the independent route against quadrature."""
    acc = np.eye(a.shape[0], dtype=np.complex128)
    term = acc
    for k in range(1, terms + 1):
        term = term @ a / k
        acc = acc + term
    return acc


# ---------------------------------------------------------------------------
# binomial-sum references for the bracket suites: the order-n bracket of
# (t, s) is sum_k (-1)^(n-k) C(n,k) t^k s^(n-k), on single matrices

_MAX_ORDER = 60
_MAX_COMPOSE_ORDER = 30


def _binom(n: int, k: int) -> int:
    """Exact binomial coefficient for 0 <= k <= n <= _MAX_ORDER."""
    if n < 0 or n > _MAX_ORDER:
        raise OutOfRange(f"binom order n={n} outside 0..{_MAX_ORDER}")
    if k < 0 or k > n:
        raise OutOfRange(f"binom index k={k} outside 0..{n}")
    return math.comb(n, k)


def _matrix_power(a: np.ndarray, n: int) -> np.ndarray:
    """``a**n`` for n >= 0 by binary exponentiation; ``a**0`` is the identity."""
    if n < 0:
        raise OutOfRange("matrix_power wants n >= 0")
    result = np.eye(a.shape[0], dtype=np.complex128)
    while n:
        if n & 1:
            result = result @ a
        n >>= 1
        if n:
            a = a @ a
    return result


def _bracket_direct(t: np.ndarray, s: np.ndarray, n: int) -> np.ndarray:
    """Order-n bracket by the alternating binomial sum."""
    if t.shape != s.shape:
        raise DimensionMismatch(f"dimensions differ: {t.shape[0]} vs {s.shape[0]}")
    if n < 0 or n > _MAX_ORDER:
        raise OutOfRange(f"bracket order n={n} outside 0..{_MAX_ORDER}")
    acc = np.zeros(t.shape, dtype=np.complex128)
    for k in range(n + 1):
        sign = -1.0 if (n - k) % 2 else 1.0
        term = _matrix_power(t, k) @ _matrix_power(s, n - k)
        acc += (sign * _binom(n, k)) * term
    return acc


def _bracket_compose_check(t: np.ndarray, s: np.ndarray, p: np.ndarray, n: int) -> float:
    """Spectral norm of the order-n bracket of (t, s) minus its expansion
    through the midpoint p, ``sum_k C(n,k) B_k(t,p) B_{n-k}(p,s)``, which
    vanishes up to rounding for every triple."""
    if n < 0 or n > _MAX_COMPOSE_ORDER:
        raise OutOfRange(f"bracket order n={n} outside 0..{_MAX_COMPOSE_ORDER}")
    lhs = _bracket_direct(t, s, n)
    acc = np.zeros(t.shape, dtype=np.complex128)
    for k in range(n + 1):
        acc += _binom(n, k) * (_bracket_direct(t, p, k) @ _bracket_direct(p, s, n - k))
    return operator_norm(lhs - acc)


def _commuting_collapse_residual(t: np.ndarray, s: np.ndarray, n: int) -> float:
    """Norm distance between the order-n bracket and the plain power (t-s)^n."""
    return operator_norm(_bracket_direct(t, s, n) - _matrix_power(t - s, n))


# ---------------------------------------------------------------------------
# suites


def _suite_bracket_consistency(seed: int) -> SuiteResult:
    rng = _rng(seed, 1)
    worst_rel = 0.0
    for _ in range(50):
        t = _random_matrix(rng, 4, 0.5)
        s = _random_matrix(rng, 4, 0.5)
        for n, rec in zip(range(11), iter_brackets(t, s)):
            direct = _bracket_direct(t, s, n)
            rel = float(np.abs(rec - direct).max()) / max(1.0, float(np.abs(direct).max()))
            worst_rel = max(worst_rel, rel)
    pairs_ok = worst_rel <= 1e-9

    worst_compose = 0.0
    for _ in range(20):
        t = _random_matrix(rng, 4, 0.5)
        s = _random_matrix(rng, 4, 0.5)
        p = _random_matrix(rng, 4, 0.5)
        mass = operator_norm(t) + operator_norm(s) + 2.0 * operator_norm(p)
        for n in range(7):
            scale = 1.0 + mass**n
            worst_compose = max(worst_compose, _bracket_compose_check(t, s, p, n) / scale)
    compose_ok = worst_compose <= 1e-9

    return SuiteResult(
        "bracket_consistency",
        pairs_ok and compose_ok,
        {
            "pair_count": 50,
            "max_relative_error": worst_rel,
            "triple_count": 20,
            "max_compose_residual_over_scale": worst_compose,
        },
    )


def _suite_commuting_collapse(seed: int) -> SuiteResult:
    rng = _rng(seed, 2)
    worst = 0.0
    for _ in range(20):
        t = _random_diagonal(rng, 5, 0.8)
        s = _random_diagonal(rng, 5, 0.8)
        mass = 1.0 + float(np.abs(t).max()) + float(np.abs(s).max())
        for n in range(11):
            worst = max(worst, _commuting_collapse_residual(t, s, n) / mass**n)
    return SuiteResult(
        "commuting_collapse",
        worst <= 1e-9,
        {"pair_count": 20, "max_residual_over_scale": worst},
    )


def _suite_equivalence_relation(seed: int) -> SuiteResult:
    rng = _rng(seed, 3)
    base = _random_diagonal(rng, 4, 1.0)
    d1 = _random_diagonal(rng, 4, 0.8)
    d2 = _random_diagonal(rng, 4, 0.8)
    fam_a = constant_family(base)
    fam_b = family_sum(fam_a, h_scaled(constant_family(d1)))
    fam_c = family_sum(fam_a, h_scaled(constant_family(d1)), h_scaled(constant_family(d2)))

    def holds(verdict) -> bool:
        return verdict.result is VerdictResult.HOLDS

    equiv_checks = {
        "reflexive": holds(asymptotic_equiv(fam_a, fam_a, GRID)),
        "symmetry_ab": holds(asymptotic_equiv(fam_a, fam_b, GRID)),
        "symmetry_ba": holds(asymptotic_equiv(fam_b, fam_a, GRID)),
        "step_bc": holds(asymptotic_equiv(fam_b, fam_c, GRID)),
        "transitive_ac": holds(asymptotic_equiv(fam_a, fam_c, GRID)),
    }
    qequiv_checks = {
        "reflexive": holds(quasinilpotent_equiv(fam_a, fam_a, GRID)),
        "symmetry_ab": holds(quasinilpotent_equiv(fam_a, fam_b, GRID)),
        "symmetry_ba": holds(quasinilpotent_equiv(fam_b, fam_a, GRID)),
        "step_bc": holds(quasinilpotent_equiv(fam_b, fam_c, GRID)),
        "transitive_ac": holds(quasinilpotent_equiv(fam_a, fam_c, GRID)),
    }
    passed = all(equiv_checks.values()) and all(qequiv_checks.values())
    return SuiteResult(
        "equivalence_relation",
        passed,
        {
            "asymptotic": {k: bool(v) for k, v in equiv_checks.items()},
            "quasinilpotent": {k: bool(v) for k, v in qequiv_checks.items()},
        },
    )


def _suite_equiv_implies_qequiv(seed: int) -> SuiteResult:
    rng = _rng(seed, 4)
    equiv_all = True
    qequiv_all = True
    worst_root = 0.0
    for _ in range(10):
        base = constant_family(_random_diagonal(rng, 4, 1.0))
        bump = h_scaled(constant_family(_random_diagonal(rng, 4, 1.0)))
        pert = family_sum(base, bump)
        equiv_all &= asymptotic_equiv(pert, base, GRID).result is VerdictResult.HOLDS
        verdict = quasinilpotent_equiv(pert, base, GRID)
        qequiv_all &= verdict.result is VerdictResult.HOLDS
        for seq in verdict.sequences:
            worst_root = max(worst_root, seq.roots[-1])
    return SuiteResult(
        "equiv_implies_qequiv",
        bool(equiv_all and qequiv_all),
        {
            "pair_count": 10,
            "all_equiv_hold": bool(equiv_all),
            "all_qequiv_hold": bool(qequiv_all),
            "max_final_root": worst_root,
        },
    )


def _suite_spectrum_two_point(seed: int) -> SuiteResult:
    fam = diag_family(["1", "2+h"])
    region = ComplexRegion(0j, 2.5, 101)
    field = resolvent_norm_field(fam, region, GRID)
    estimate = spectrum_estimate(field, 1e-3)
    count = len(estimate.clusters)
    offsets = []
    if count == 2:
        offsets = [
            abs(estimate.clusters[0].centroid - 1.0),
            abs(estimate.clusters[1].centroid - 2.0),
        ]
    passed = count == 2 and all(off <= region.spacing for off in offsets)
    return SuiteResult(
        "spectrum_two_point",
        passed,
        {
            "cluster_count": count,
            "centroid_offsets": [float(o) for o in offsets],
            "grid_spacing": region.spacing,
        },
    )


def _fixture_perturbation(seed: int) -> list[tuple[str, FamilySpec, ComplexRegion]]:
    diag3 = np.diag([-1.0 + 0j, 0.5 + 0.5j, 2.0 + 0j])
    return [
        ("diag_expr", diag_family(["1", "2+h"]), ComplexRegion(1.5 + 0j, 2.0, 41)),
        ("constant_diag", constant_family(diag3), ComplexRegion(0.5 + 0j, 2.0, 41)),
        ("jordan", jordan_family(3, 0.8), ComplexRegion(0.8 + 0j, 2.0, 41)),
    ]


def _suite_perturbation_invariance(seed: int) -> SuiteResult:
    epsilon = 1.0 / 3000.0
    per_fixture: dict = {}
    passed = True
    for k, (name, base, region) in enumerate(_fixture_perturbation(seed)):
        pert = family_sum(base, h_scaled(random_family(base.dim, seed + 601 + k, 0.5)))
        equiv_ok = asymptotic_equiv(pert, base, GRID).result is VerdictResult.HOLDS
        est_base = spectrum_estimate(resolvent_norm_field(base, region, GRID), epsilon)
        est_pert = spectrum_estimate(resolvent_norm_field(pert, region, GRID), epsilon)
        match = clusters_match(est_base, est_pert)
        per_fixture[name] = {
            "equiv_holds": bool(equiv_ok),
            "base_clusters": len(est_base.clusters),
            "perturbed_clusters": len(est_pert.clusters),
            "clusters_match": bool(match),
        }
        passed = passed and equiv_ok and match
    return SuiteResult("perturbation_invariance", passed, per_fixture)


def _suite_qequiv_spectrum_transport(seed: int) -> SuiteResult:
    fam_t = constant_family(np.diag([0.5 + 0j, 0.5 + 0j, 0.5 + 0j]))
    fam_s = jordan_family(3, 0.5)  # 0.5 I + N with N^3 = 0, and N commutes with 0.5 I

    qv = quasinilpotent_equiv(fam_s, fam_t, GRID)
    qequiv_ok = qv.result is VerdictResult.HOLDS

    region = ComplexRegion(0.5 + 0j, 2.0, 41)
    epsilon = 1.0 / 3000.0
    est_t = spectrum_estimate(resolvent_norm_field(fam_t, region, GRID), epsilon)
    est_s = spectrum_estimate(resolvent_norm_field(fam_s, region, GRID), epsilon)
    match = clusters_match(est_t, est_s)

    probes = [1.7 + 0j, 0.5 + 1.2j, -0.6 + 0j]
    defects = []
    series_ok = True
    for lam in probes:
        transport = series_resolvent(fam_s, fam_t, lam, GRID, n_terms=12)
        ok = tail_vanishes(transport.left_defect, 1e-6) and tail_vanishes(
            transport.right_defect, 1e-6
        )
        series_ok = series_ok and ok
        defects.append(max(transport.left_defect.value, transport.right_defect.value))

    passed = qequiv_ok and match and series_ok
    return SuiteResult(
        "qequiv_spectrum_transport",
        passed,
        {
            "qequiv_holds": bool(qequiv_ok),
            "clusters_match": bool(match),
            "cluster_counts": [len(est_t.clusters), len(est_s.clusters)],
            "series_defects": [float(d) for d in defects],
        },
    )


def _suite_spectral_mapping(seed: int) -> SuiteResult:
    src = diag_family(["1", "2+h"])
    contour = ContourSpec(1.5 + 0j, 1.8, 256)

    src_est = spectrum_estimate(
        resolvent_norm_field(src, ComplexRegion(1.5 + 0j, 2.0, 41), GRID), 1e-3
    )
    enclosed = contour_encloses(contour, src_est.clusters)

    cases = [
        ("square", lambda z: z * z, ComplexRegion(2.5 + 0j, 4.0, 61), 0.08, [1.0, 4.0]),
        ("exp", cmath.exp, ComplexRegion(4.0 + 0j, 4.5, 61), 0.1, [cmath.e, cmath.e**2]),
    ]
    per_case: dict = {}
    passed = enclosed
    for name, func, region, epsilon, targets in cases:
        image = family_funcalc(src, func, contour)
        est = spectrum_estimate(resolvent_norm_field(image, region, GRID), epsilon)
        count_ok = len(est.clusters) == len(targets)
        offsets = [
            abs(c.centroid - t) for c, t in zip(est.clusters, targets)
        ] if count_ok else []
        within = count_ok and all(off <= region.spacing for off in offsets)
        per_case[name] = {
            "cluster_count": len(est.clusters),
            "centroid_offsets": [float(o) for o in offsets],
            "grid_spacing": region.spacing,
            "within_one_cell": bool(within),
        }
        passed = passed and within
    per_case["contour_encloses_source"] = bool(enclosed)
    return SuiteResult("spectral_mapping", passed, per_case)


def _suite_quasinilpotent_spectrum(seed: int) -> SuiteResult:
    deep = replace(GRID, count=36)
    fam_nil = family_sum(jordan_family(4, 0.0), h_scaled(random_family(4, seed + 901, 1.0)))
    v_nil = is_asymptotic_quasinilpotent(fam_nil, deep, n_max=24, tol=0.05)

    region = ComplexRegion(0j, 1.25, 41)
    est_nil = spectrum_estimate(resolvent_norm_field(fam_nil, region, deep), 1e-5)
    nil_cluster_ok = (
        len(est_nil.clusters) == 1 and abs(est_nil.clusters[0].centroid) <= region.spacing
    )

    fam_pos = constant_family([[0.5 + 0j]])
    v_pos = is_asymptotic_quasinilpotent(fam_pos, GRID)
    est_pos = spectrum_estimate(resolvent_norm_field(fam_pos, region, GRID), 1e-3)
    pos_cluster_ok = (
        len(est_pos.clusters) == 1
        and abs(est_pos.clusters[0].centroid - 0.5) <= region.spacing
    )

    passed = (
        v_nil.result is VerdictResult.HOLDS
        and nil_cluster_ok
        and v_pos.result is VerdictResult.FAILS
        and pos_cluster_ok
    )
    return SuiteResult(
        "quasinilpotent_spectrum",
        passed,
        {
            "nilpotent_verdict": v_nil.result.value,
            "nilpotent_final_root": v_nil.sequences[0].roots[-1],
            "nilpotent_cluster_ok": bool(nil_cluster_ok),
            "positive_verdict": v_pos.result.value,
            "positive_cluster_ok": bool(pos_cluster_ok),
        },
    )


def _funcalc_case(t: np.ndarray, contour: ContourSpec) -> tuple[float, float]:
    ident = contour_funcalc(t, lambda z: z, contour)
    id_err = float(np.abs(ident.array - t).max())
    image = contour_funcalc(t, cmath.exp, contour)
    exp_err = float(np.max(np.abs(image.array - _taylor_exp(t))))
    return id_err, exp_err


def _suite_funcalc_accuracy(seed: int) -> SuiteResult:
    t1 = np.diag([1.0 + 0j, 2.0 + 0j])
    id1, exp1 = _funcalc_case(t1, ContourSpec(1.5 + 0j, 2.0, 256))

    rng = _rng(seed, 10)
    raw = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    t2 = raw / operator_norm(raw)
    id2, exp2 = _funcalc_case(t2, ContourSpec(0j, 2.0, 256))

    passed = id1 <= 1e-8 and id2 <= 1e-8 and exp1 <= 1e-6 and exp2 <= 1e-6
    return SuiteResult(
        "funcalc_accuracy",
        passed,
        {
            "identity_error_diag": id1,
            "identity_error_nonnormal": id2,
            "exp_vs_taylor_diag": exp1,
            "exp_vs_taylor_nonnormal": exp2,
        },
    )


def _suite_resolvent_identities(seed: int) -> SuiteResult:
    entries = np.diag([0.3 + 0.2j, -0.6 + 0j, 1.1 - 0.4j, 0.05 + 0.9j])
    fam_t = constant_family(entries)
    lam = 2.2 + 0j
    mu = -1.7 + 0.8j

    sweep_lam = resolvent_at(fam_t, lam, GRID)
    sweep_mu = resolvent_at(fam_t, mu, GRID)
    scale = 1.0 + sweep_lam.tail.value * sweep_mu.tail.value

    eq_res = resolvent_equation_residual(fam_t, lam, mu, GRID)
    comm_res = resolvent_commutation_residual(fam_t, lam, GRID)
    pair_res = resolvent_commutation_residual(fam_t, lam, GRID, mu)
    exact_ok = (
        eq_res.value <= 1e-9 * scale
        and comm_res.value <= 1e-9 * scale
        and pair_res.value <= 1e-9 * scale
    )

    rng = _rng(seed, 11)
    eye = np.eye(4, dtype=np.complex128)
    bump = 0.3 * (rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    exact = sweep_lam.inverses
    perturbed = exact + np.multiply.outer(GRID.window_samples, bump)
    left_p, right_p = resolvent_defect(fam_t, perturbed, lam, GRID)
    perturbed_ok = tail_vanishes(left_p, 1e-3) and tail_vanishes(right_p, 1e-3)

    shift = 0.5 * (rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    fam_s = family_sum(fam_t, h_scaled(constant_family(shift)))
    left_t, right_t = resolvent_defect(fam_s, exact, lam, GRID)
    transfer_ok = tail_vanishes(left_t, 1e-3) and tail_vanishes(right_t, 1e-3)

    passed = exact_ok and perturbed_ok and transfer_ok
    return SuiteResult(
        "resolvent_identities",
        passed,
        {
            "first_identity_residual": eq_res.value,
            "commutation_residual": comm_res.value,
            "pair_commutation_residual": pair_res.value,
            "exact_scale": scale,
            "perturbed_defect": max(left_p.value, right_p.value),
            "transfer_defect": max(left_t.value, right_t.value),
        },
    )


_SUITES: dict[str, Callable[[int], SuiteResult]] = {
    "bracket_consistency": _suite_bracket_consistency,
    "commuting_collapse": _suite_commuting_collapse,
    "equivalence_relation": _suite_equivalence_relation,
    "equiv_implies_qequiv": _suite_equiv_implies_qequiv,
    "spectrum_two_point": _suite_spectrum_two_point,
    "perturbation_invariance": _suite_perturbation_invariance,
    "qequiv_spectrum_transport": _suite_qequiv_spectrum_transport,
    "spectral_mapping": _suite_spectral_mapping,
    "quasinilpotent_spectrum": _suite_quasinilpotent_spectrum,
    "funcalc_accuracy": _suite_funcalc_accuracy,
    "resolvent_identities": _suite_resolvent_identities,
}

SUITE_NAMES = tuple(_SUITES)


def run_all_suites(
    seed: int = DEFAULT_SEED, names: tuple[str, ...] | None = None
) -> list[SuiteResult]:
    chosen = SUITE_NAMES if names is None else tuple(names)
    for name in chosen:
        if name not in _SUITES:
            raise BadParameter(
                f"unknown suite {name!r}; choose from {', '.join(SUITE_NAMES)}"
            )
    return [_SUITES[name](seed) for name in chosen]


__all__ = [
    "DEFAULT_SEED",
    "SUITE_NAMES",
    "SuiteResult",
    "run_all_suites",
]
