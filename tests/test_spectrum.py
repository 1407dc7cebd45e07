"""Resolvent fields, spectrum estimation, identities, and series transport."""

import math

import numpy as np
import pytest

import asymspec as ax
from asymspec import families, linalg
from asymspec.errors import BadParameter, UnresolvedPoint
from asymspec.linalg import ComplexMatrix
from asymspec.spectrum import ComplexRegion


@pytest.fixture(scope="module")
def grid20():
    return ax.geometric_grid()


@pytest.fixture(scope="module")
def const_two_point():
    return ax.constant_family(ComplexMatrix.diagonal([1.0, 2.0]))


@pytest.fixture(scope="module")
def const_field(const_two_point, grid20):
    # spacing 0.1 puts both eigenvalues exactly on grid nodes
    region = ComplexRegion(1.5 + 0j, 2.0, 41)
    return ax.resolvent_norm_field(const_two_point, region, grid20)


@pytest.fixture(scope="module")
def expr_field(grid20):
    region = ComplexRegion(1.5 + 0j, 2.0, 41)
    return ax.resolvent_norm_field(ax.diag_family(["1", "2+h"]), region, grid20)


def flagged_points(field, estimate):
    iys, ixs = np.nonzero(estimate.flagged)
    return field.region.xs[ixs] + 1j * field.region.ys[iys]


class TestComplexRegion:
    def test_even_resolution_rejected(self):
        with pytest.raises(BadParameter):
            ComplexRegion(0j, 1.0, 40)

    def test_too_coarse_rejected(self):
        with pytest.raises(BadParameter):
            ComplexRegion(0j, 1.0, 19)

    def test_nonpositive_half_width_rejected(self):
        with pytest.raises(BadParameter):
            ComplexRegion(0j, -1.0, 41)

    def test_center_sits_on_the_grid(self):
        region = ComplexRegion(1.5 + 0.5j, 2.0, 41)
        assert region.xs[20] == pytest.approx(1.5)
        assert region.ys[20] == pytest.approx(0.5)
        assert region.spacing == pytest.approx(0.1)


class TestResolventAt:
    def test_diagonal_inverse_and_tail(self, const_two_point, grid20):
        sweep = ax.resolvent_at(const_two_point, 0j, grid20)
        assert ax.point_resolved(sweep)
        # (0 - diag(1,2))^-1 = diag(-1, -0.5), norm 1
        assert np.allclose(sweep.inverses[0].matrix.array, np.diag([-1.0, -0.5]))
        assert sweep.tail.value == pytest.approx(1.0)

    def test_eigenvalue_is_singular_at_every_h(self, const_two_point, grid20):
        sweep = ax.resolvent_at(const_two_point, 1.0 + 0j, grid20)
        assert all(entry is None for entry in sweep.inverses)
        assert not ax.point_resolved(sweep)
        assert math.isinf(sweep.tail.value)

    def test_moving_eigenvalue_gives_one_over_h(self, grid20):
        sweep = ax.resolvent_at(ax.diag_family(["2+h"]), 2.0 + 0j, grid20)
        assert np.allclose(sweep.norms, [1.0 / h for h in grid20.samples])
        window_edge = grid20.samples[-grid20.tail_window]
        assert sweep.tail.value == pytest.approx(1.0 / grid20.samples[-1])
        assert sweep.tail.value >= 1.0 / window_edge


class TestResolventDefect:
    def test_exact_inverses_have_no_defect(self, const_two_point, grid20):
        sweep = ax.resolvent_at(const_two_point, 0j, grid20)
        exact = [inv.matrix.array for inv in sweep.inverses]
        left, right = ax.resolvent_defect(const_two_point, exact, 0j, grid20)
        assert left.value <= 1e-10 and right.value <= 1e-10

    def test_equivalent_family_inverses_pass(self, const_two_point, grid20, rng):
        bump = ComplexMatrix(0.4 * (rng.normal(size=(2, 2)) + 0j))
        nearby = ax.family_sum(const_two_point, ax.h_scaled(ax.constant_family(bump)))
        sweep = ax.resolvent_at(nearby, 0j, grid20)
        candidates = [inv.matrix.array for inv in sweep.inverses]
        left, right = ax.resolvent_defect(const_two_point, candidates, 0j, grid20)
        assert families.tail_vanishes(left, tol=1e-3)
        assert families.tail_vanishes(right, tol=1e-3)

    def test_zero_candidate_defect_is_one(self, const_two_point, grid20):
        zeros = [np.zeros((2, 2), dtype=complex)] * grid20.count
        left, right = ax.resolvent_defect(const_two_point, zeros, 0j, grid20)
        assert left.value == pytest.approx(1.0)
        assert right.value == pytest.approx(1.0)


class TestNormField:
    def test_infinite_exactly_on_eigenvalues(self, const_field):
        region = const_field.region
        infinite = {
            (region.xs[ix], region.ys[iy])
            for iy, ix in zip(*np.nonzero(np.isinf(const_field.values)))
        }
        assert infinite == {(1.0, 0.0), (2.0, 0.0)}

    def test_normal_family_field_is_inverse_distance(self, const_field):
        region = const_field.region
        for iy in range(0, region.resolution, 7):
            for ix in range(0, region.resolution, 7):
                lam = region.xs[ix] + 1j * region.ys[iy]
                d = min(abs(lam - 1.0), abs(lam - 2.0))
                if d == 0.0:
                    continue
                assert const_field.values[iy, ix] == pytest.approx(1.0 / d, rel=1e-9)

    def test_h_perturbation_drifts_by_order_h(self, const_two_point, grid20):
        region = ComplexRegion(1.5 + 0j, 2.0, 21)
        base = ax.resolvent_norm_field(const_two_point, region, grid20)
        bump = ax.random_family(2, seed=404, scale=0.5)
        perturbed_family = ax.family_sum(const_two_point, ax.h_scaled(bump))
        perturbed = ax.resolvent_norm_field(perturbed_family, region, grid20)
        h_edge = grid20.samples[-grid20.tail_window]
        bump_norm = linalg.operator_norm(ax.family_eval(bump, 1.0))
        drift = np.abs(perturbed.values - base.values)
        envelope = 4.0 * h_edge * bump_norm * base.values ** 2
        assert np.all(drift <= envelope + 1e-9)

    def test_matches_pointwise_inverse_norms(self, grid20):
        fam = ax.family_sum(
            ax.jordan_family(3, 0.2), ax.h_scaled(ax.random_family(3, seed=5, scale=0.7))
        )
        region = ComplexRegion(0.1 + 0.05j, 1.5, 21)
        field = ax.resolvent_norm_field(fam, region, grid20)
        for iy in range(0, region.resolution, 4):
            for ix in range(0, region.resolution, 4):
                lam = region.point(ix, iy)
                shifted = [
                    lam * np.eye(3) - families.family_eval_array(fam, h)
                    for h in grid20.window_samples
                ]
                want = max(np.linalg.norm(np.linalg.inv(a), 2) for a in shifted)
                assert field.values[iy, ix] == pytest.approx(want, rel=1e-10)

    def test_singular_value_tie_is_exact(self, grid20):
        # at 1.5 - 0.2i both diagonal entries of the resolvent have nearly the
        # same modulus for every window sample
        region = ComplexRegion(1.5 + 0j, 2.0, 21)
        field = ax.resolvent_norm_field(ax.diag_family(["1", "2+h"]), region, grid20)
        assert region.point(10, 9) == pytest.approx(1.5 - 0.2j)
        assert field.values[9, 10] == pytest.approx(1.8569533817705184, rel=1e-12)


class TestSpectrumEstimate:
    def test_off_grid_swap_spectrum_has_both_eigenvalues(self, grid20):
        # the all-ones vector is an eigenvector of the swap matrix, and no
        # grid point of this region sits on -1 or +1
        swap = ax.constant_family(ComplexMatrix([[0.0, 1.0], [1.0, 0.0]]))
        region = ComplexRegion(0.013 + 0.007j, 1.5, 41)
        field = ax.resolvent_norm_field(swap, region, grid20)
        estimate = ax.spectrum_estimate(field, 0.75 * region.spacing)
        assert ax.cluster_near(estimate, -1.0 + 0j) is not None
        assert ax.cluster_near(estimate, 1.0 + 0j) is not None
        assert len(estimate.clusters) == 2

    def test_two_point_family_clusters_at_limits(self, expr_field):
        estimate = ax.spectrum_estimate(expr_field, 1e-3)
        assert len(estimate.clusters) == 2
        spacing = expr_field.region.spacing
        assert abs(estimate.clusters[0].centroid - 1.0) <= spacing
        assert abs(estimate.clusters[1].centroid - 2.0) <= spacing

    def test_perturbed_nilpotent_concentrates_at_zero(self, grid20):
        fam = ax.family_sum(
            ax.jordan_family(3, 0.0), ax.h_scaled(ax.random_family(3, seed=77, scale=1.0))
        )
        field = ax.resolvent_norm_field(fam, ComplexRegion(0j, 1.25, 41), grid20)
        estimate = ax.spectrum_estimate(field, 1e-3)
        assert len(estimate.clusters) == 1
        assert abs(estimate.clusters[0].centroid) <= 2 * field.region.spacing
        # cross-check with the single-family classifier; the root sequence
        # decays like h^(n/3) so it needs a deep grid to clear the threshold
        deep = ax.geometric_grid(1.0, 0.5, 36, 6)
        verdict = ax.is_asymptotic_quasinilpotent(fam, deep, n_max=16, tol=0.05)
        assert verdict.result.value == "holds"

    def test_region_beyond_norm_bound_is_empty(self, const_two_point, grid20):
        field = ax.resolvent_norm_field(
            const_two_point, ComplexRegion(7.0 + 0j, 1.0, 21), grid20
        )
        estimate = ax.spectrum_estimate(field, 1e-3)
        assert estimate.clusters == ()
        assert not estimate.flagged.any()

    def test_epsilon_must_be_positive(self, const_field):
        with pytest.raises(BadParameter):
            ax.spectrum_estimate(const_field, 0.0)


class TestFieldInvariants:
    def test_flagged_points_respect_norm_bound(self, const_two_point, const_field, grid20):
        bounds = ax.quotient_norm_bounds(const_two_point, grid20)
        estimate = ax.spectrum_estimate(const_field, 1e-3)
        for lam in flagged_points(const_field, estimate):
            assert abs(lam) <= bounds.upper + const_field.region.spacing

    def test_resolved_points_have_resolved_neighborhoods(self, const_field):
        # a point with tail norm v keeps distance >= 1/v from the spectrum,
        # so neighbors within 0.5/v must be resolved too
        values = const_field.values
        spacing = const_field.region.spacing
        res = const_field.region.resolution
        for iy in range(res):
            for ix in range(res):
                v = values[iy, ix]
                if not np.isfinite(v):
                    continue
                reach = int(0.5 / (v * spacing))
                for dy in range(-reach, reach + 1):
                    for dx in range(-reach, reach + 1):
                        jy, jx = iy + dy, ix + dx
                        if not (0 <= jy < res and 0 <= jx < res):
                            continue
                        if spacing * math.hypot(dx, dy) <= 0.5 / v:
                            assert np.isfinite(values[jy, jx])

    def test_field_floor_from_distance_to_origin(self, const_two_point, const_field, grid20):
        upper = ax.quotient_norm_bounds(const_two_point, grid20).upper
        region = const_field.region
        for iy in range(0, region.resolution, 5):
            for ix in range(0, region.resolution, 5):
                lam = region.xs[ix] + 1j * region.ys[iy]
                assert const_field.values[iy, ix] >= 1.0 / (abs(lam) + upper) - 1e-12


class TestResolventIdentities:
    def test_equation_residual_exact(self, const_two_point, grid20):
        lam, mu = 0j, 3.5 + 0.5j
        scale = 1.0 + (
            ax.resolvent_at(const_two_point, lam, grid20).tail.value
            * ax.resolvent_at(const_two_point, mu, grid20).tail.value
        )
        residual = ax.resolvent_equation_residual(const_two_point, lam, mu, grid20)
        assert residual.value <= 1e-9 * scale

    def test_equation_residual_degenerate_pair(self, const_two_point, grid20):
        residual = ax.resolvent_equation_residual(const_two_point, 0j, 0j, grid20)
        assert residual.value == 0.0

    def test_equation_residual_perturbed_candidates_vanish(
        self, const_two_point, grid20, rng
    ):
        lam, mu = 0j, 3.5 + 0.5j
        noise = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        sweep_lam = ax.resolvent_at(const_two_point, lam, grid20)
        sweep_mu = ax.resolvent_at(const_two_point, mu, grid20)
        values = []
        for h, inv_lam, inv_mu in zip(grid20.samples, sweep_lam.inverses, sweep_mu.inverses):
            r_lam = inv_lam.matrix.array + h * 0.3 * noise
            r_mu = inv_mu.matrix.array + h * 0.3 * noise
            gap = r_lam - r_mu - (mu - lam) * (r_lam @ r_mu)
            values.append(linalg.operator_norm(ComplexMatrix(gap)))
        assert families.vanishes(values, grid20, tol=1e-3)

    def test_unresolved_point_rejected(self, const_two_point, grid20):
        with pytest.raises(UnresolvedPoint):
            ax.resolvent_equation_residual(const_two_point, 1.0 + 0j, 0j, grid20)

    def test_commutation_residual_exact(self, const_two_point, grid20):
        residual = ax.resolvent_commutation_residual(
            const_two_point, 0j, grid20, mu=3.5 + 0.5j
        )
        assert residual.value <= 1e-10

    def test_operator_commutes_with_own_resolvent(self, const_two_point, grid20):
        residual = ax.resolvent_commutation_residual(const_two_point, 0j, grid20)
        assert residual.value <= 1e-10

    def test_commutation_unresolved_rejected(self, const_two_point, grid20):
        with pytest.raises(UnresolvedPoint):
            ax.resolvent_commutation_residual(const_two_point, 2.0 + 0j, grid20)


class TestPointSeparation:
    def test_distinct_points_have_distinct_resolvents(self, const_two_point, grid20):
        lam, mu = 0j, 3.5 + 0.5j
        sweep_lam = ax.resolvent_at(const_two_point, lam, grid20)
        sweep_mu = ax.resolvent_at(const_two_point, mu, grid20)
        diffs = []
        products = []
        for inv_lam, inv_mu in zip(sweep_lam.inverses, sweep_mu.inverses):
            a, b = inv_lam.matrix, inv_mu.matrix
            diffs.append(linalg.operator_norm(linalg.sub(a, b)))
            products.append(linalg.operator_norm(linalg.mul(a, b)))
        diff_tail = families.tail_limsup(diffs, grid20)
        product_tail = families.tail_limsup(products, grid20)
        # first resolvent identity makes these exactly proportional
        assert diff_tail.value == pytest.approx(abs(lam - mu) * product_tail.value, rel=1e-9)
        assert diff_tail.value > 0.0


class TestCandidateUniqueness:
    def test_all_passing_candidates_agree_in_the_tail(self, const_two_point, grid20, rng):
        lam = 0j
        sweep = ax.resolvent_at(const_two_point, lam, grid20)
        noise = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        exact = [inv.matrix.array for inv in sweep.inverses]
        perturbed = [
            r + h * 0.3 * noise for h, r in zip(grid20.samples, exact)
        ]
        for candidate in (exact, perturbed):
            left, right = ax.resolvent_defect(const_two_point, candidate, lam, grid20)
            assert families.tail_vanishes(left, tol=1e-3)
            assert families.tail_vanishes(right, tol=1e-3)
        mutual = [
            linalg.operator_norm(ComplexMatrix(a - b)) for a, b in zip(exact, perturbed)
        ]
        assert families.vanishes(mutual, grid20, tol=1e-3)

    def test_exact_inverses_transfer_to_equivalent_family(
        self, const_two_point, grid20, rng
    ):
        bump = ComplexMatrix(0.5 * (rng.normal(size=(2, 2)) + 0j))
        nearby = ax.family_sum(const_two_point, ax.h_scaled(ax.constant_family(bump)))
        sweep = ax.resolvent_at(const_two_point, 0j, grid20)
        exact = [inv.matrix.array for inv in sweep.inverses]
        left, right = ax.resolvent_defect(nearby, exact, 0j, grid20)
        assert families.tail_vanishes(left, tol=1e-3)
        assert families.tail_vanishes(right, tol=1e-3)


@pytest.fixture(scope="module")
def nilpotent_pair():
    nil = linalg.jordan_block(3, 0.0)
    base = linalg.add(
        linalg.scale(ComplexMatrix.identity(3), 0.7), linalg.scale(nil, 0.3)
    )
    tf = ax.constant_family(base)
    sf = ax.constant_family(linalg.add(base, nil))
    return sf, tf


class TestSeriesResolvent:
    def test_same_family_series_is_exact(self, const_two_point, grid20):
        transport = ax.series_resolvent(const_two_point, const_two_point, 0j, grid20, 4)
        assert transport.left_defect.value <= 1e-10
        assert transport.right_defect.value <= 1e-10

    def test_nilpotent_difference_terminates(self, grid20, nilpotent_pair):
        sf, tf = nilpotent_pair
        transport = ax.series_resolvent(sf, tf, 2.2 + 0j, grid20, 3)
        # bracket order 3 is already the zero matrix, so truncation is exact
        assert transport.last_term_tail == 0.0
        assert transport.left_defect.value <= 1e-10
        assert transport.right_defect.value <= 1e-10
        assert len(transport.matrices) == grid20.count

    def test_term_norms_respect_envelope(self, grid20):
        # summand n is bounded by a_n * M^(n+1): a_n the tail bracket norm,
        # M the tail resolvent norm of the source family
        tf = ax.constant_family(ComplexMatrix.diagonal([0.5, 0.5, 0.5]))
        sf = ax.jordan_family(3, 0.5)
        lam = 1.7 + 0j
        measured = ax.series_resolvent(sf, tf, lam, grid20, 6).term_tails
        big_m = ax.resolvent_at(tf, lam, grid20).tail.value
        seq = ax.bracket_sequence(sf, tf, grid20, 6)
        envelope = [big_m] + [seq.norms[n - 1] * big_m ** (n + 1) for n in range(1, 7)]
        assert len(measured) == 7
        for got, bound in zip(measured, envelope):
            assert got <= bound * (1 + 1e-9) + 1e-12

    def test_singular_sample_outside_window_is_ignored(self, grid20):
        # lam = 1 is an eigenvalue of diag(h, 3) only at h = 1, the first sample
        fam = ax.diag_family(["h", "3"])
        transport = ax.series_resolvent(fam, fam, 1.0 + 0j, grid20, 2)
        assert np.isnan(transport.matrices[0]).all()
        assert np.isfinite(transport.matrices[1]).all()
        assert transport.left_defect.value <= 1e-12
        assert transport.right_defect.value <= 1e-12

    def test_unresolved_source_point_rejected(self, const_two_point, grid20):
        with pytest.raises(UnresolvedPoint):
            ax.series_resolvent(const_two_point, const_two_point, 1.0 + 0j, grid20, 4)

    def test_term_cap(self, const_two_point, grid20):
        with pytest.raises(BadParameter):
            ax.series_resolvent(const_two_point, const_two_point, 0j, grid20, 31)


class TestQuotientNormBounds:
    def test_constant_family_bounds_coincide(self, rng):
        a = ComplexMatrix(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
        grid = ax.geometric_grid()
        bounds = ax.quotient_norm_bounds(ax.constant_family(a), grid)
        norm = linalg.operator_norm(a)
        assert abs(bounds.lower - norm) <= 1e-12 * norm
        assert abs(bounds.upper - norm) <= 1e-12 * norm

    def test_h_scaled_family_collapses_to_zero(self, grid20):
        a = ComplexMatrix.diagonal([2.0, -1.0])
        bounds = ax.quotient_norm_bounds(ax.h_scaled(ax.constant_family(a)), grid20)
        window_edge = grid20.samples[-grid20.tail_window]
        assert bounds.upper == pytest.approx(2.0)
        assert bounds.lower == pytest.approx(2.0 * window_edge, rel=1e-9)

    def test_moving_diagonal_entry(self, grid20):
        bounds = ax.quotient_norm_bounds(ax.diag_family(["2+h"]), grid20)
        assert bounds.upper == pytest.approx(3.0)
        assert bounds.lower == pytest.approx(2.0, abs=1e-3)


class TestSerializationHelpers:
    def test_field_csv_shape(self, const_field):
        lines = ax.field_to_csv(const_field).strip().split("\n")
        assert lines[0] == "re,im,value"
        assert len(lines) == 1 + 41 * 41
        # row-major over y: the second row advances re, not im
        first = lines[1].split(",")
        second = lines[2].split(",")
        assert first[1] == second[1]
        assert float(second[0]) > float(first[0])

    def test_field_csv_marks_singular_points(self, const_field):
        assert any(line.endswith(",inf") for line in ax.field_to_csv(const_field).split("\n"))

    def test_spectrum_dict_shape(self, expr_field):
        estimate = ax.spectrum_estimate(expr_field, 1e-3)
        data = ax.spectrum_to_dict(estimate)
        assert set(data) == {"epsilon", "region", "clusters"}
        assert len(data["clusters"]) == 2
        assert set(data["clusters"][0]) == {
            "centroid_re",
            "centroid_im",
            "radius",
            "cell_count",
        }


class TestClusterHelpers:
    def test_cluster_near_finds_and_misses(self, expr_field):
        estimate = ax.spectrum_estimate(expr_field, 1e-3)
        assert ax.cluster_near(estimate, 1.0 + 0j) is not None
        assert ax.cluster_near(estimate, 1.5 + 0j) is None

    def test_clusters_match_is_symmetric(self, expr_field, const_field):
        a = ax.spectrum_estimate(expr_field, 1e-3)
        b = ax.spectrum_estimate(const_field, 1e-3)
        assert ax.clusters_match(a, b)
        assert ax.clusters_match(b, a)

    def test_clusters_match_detects_disagreement(self, expr_field, grid20):
        a = ax.spectrum_estimate(expr_field, 1e-3)
        shifted = ax.constant_family(ComplexMatrix.diagonal([1.0, 2.7]))
        field = ax.resolvent_norm_field(shifted, expr_field.region, grid20)
        b = ax.spectrum_estimate(field, 1e-3)
        assert not ax.clusters_match(a, b)


class TestDefaults:
    def test_default_epsilon_scales_with_norm(self):
        assert ax.default_epsilon(3.0) == pytest.approx(4e-3)

    def test_default_region_covers_norm_disk(self):
        region = ax.default_region(2.0)
        assert region.center == 0j
        assert region.half_width == pytest.approx(2.5)
        assert region.resolution == 101
