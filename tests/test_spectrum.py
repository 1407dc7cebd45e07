"""Resolvent fields, spectrum estimation, identities, and series transport."""

import math
import threading
from itertools import islice

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import asymspec as ax
import oracles
from asymspec import brackets, families, funcalc, linalg, spectrum
from asymspec.errors import BadParameter, DimensionMismatch, ExprError, UnresolvedPoint
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


def rowwise_field(sf, region, grid):
    """Single-threaded reference: one batched SVD per region row."""
    window = families.family_eval_stack(sf, grid.window_samples)
    eye = np.eye(sf.dim)
    values = np.empty((region.resolution, region.resolution))
    for iy, y in enumerate(region.ys):
        lams = region.xs + 1j * y
        s = np.linalg.svd(lams[:, None, None, None] * eye - window, compute_uv=False)
        sigma_min = s[..., -1]
        norms = np.divide(
            1.0, sigma_min, out=np.full_like(sigma_min, math.inf), where=~linalg.is_singular(s)
        )
        values[iy] = norms.max(axis=1)
    return values


class TestThreadedSweep:
    @pytest.fixture
    def threaded(self, monkeypatch):
        # put every dimension on the thread pool, the small ones included
        monkeypatch.setattr(spectrum, "THREAD_MIN_DIM", 1)

    @pytest.mark.parametrize("resolution", [21, 101])
    @pytest.mark.parametrize("dim", [2, 3, 16])
    def test_field_is_bit_identical_for_any_cpu_count(
        self, monkeypatch, threaded, dim, resolution
    ):
        # a two-sample window keeps the dim-16, 101-point case cheap
        grid = ax.geometric_grid(1.0, 0.5, 8, 2)
        fam = ax.family_sum(
            ax.jordan_family(dim, 0.5), ax.h_scaled(ax.random_family(dim, seed=11, scale=0.8))
        )
        region = ComplexRegion(0.4 + 0.1j, 1.5, resolution)
        want = rowwise_field(fam, region, grid)
        for cpus in (1, 2, 3, 8):
            monkeypatch.setattr(spectrum, "_cpu_count", lambda: cpus)
            field = ax.resolvent_norm_field(fam, region, grid)
            assert np.array_equal(field.values, want), cpus

    def test_singular_cells_do_not_depend_on_cpu_count(self, grid20, monkeypatch, threaded):
        fam = ax.diag_family(["0", "1"])
        region = ComplexRegion(0j, 2.0, 21)
        infinite = []
        for cpus in (1, 2, 3, 8):
            monkeypatch.setattr(spectrum, "_cpu_count", lambda: cpus)
            infinite.append(np.isinf(ax.resolvent_norm_field(fam, region, grid20).values))
        assert set(zip(*np.nonzero(infinite[0]))) == {(10, 10), (10, 15)}
        for mask in infinite[1:]:
            assert np.array_equal(mask, infinite[0])

    def test_window_is_evaluated_once_in_the_calling_thread(self, grid20, monkeypatch, threaded):
        calls = []
        real_eval = funcalc._Funcalc._eval

        def recording_eval(node, hs):
            calls.append((tuple(hs.tolist()), threading.get_ident()))
            return real_eval(node, hs)

        monkeypatch.setattr(funcalc._Funcalc, "_eval", recording_eval)
        monkeypatch.setattr(spectrum, "_cpu_count", lambda: 3)
        image = ax.family_funcalc(
            ax.diag_family(["1", "2+h"]), lambda z: z * z, ax.ContourSpec(1.5 + 0j, 1.2, 256)
        )
        ax.resolvent_norm_field(image, ComplexRegion(2.5 + 0j, 2.0, 21), grid20)
        caller = threading.get_ident()
        assert calls == [(grid20.window_samples, caller)]

    @pytest.mark.parametrize("dim", [2, 3])
    def test_small_dims_sweep_in_the_calling_thread(self, grid20, monkeypatch, dim):
        def no_pool(*args, **kwargs):
            raise AssertionError("thread pool started")

        monkeypatch.setattr(spectrum, "ThreadPoolExecutor", no_pool)
        monkeypatch.setattr(spectrum, "_cpu_count", lambda: 8)
        fam = ax.jordan_family(dim, 0.5)
        region = ComplexRegion(0.4 + 0.1j, 1.5, 21)
        field = ax.resolvent_norm_field(fam, region, grid20)
        assert np.array_equal(field.values, rowwise_field(fam, region, grid20))

    def test_cpu_count_is_positive(self):
        assert spectrum._cpu_count() >= 1


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


@st.composite
def resolvent_cases(draw):
    """A triangular family diag(d) + N + h diag(e), a grid and a point lam.

    Half the cases put lam on an eigenvalue at one grid sample, so that the
    shifted matrix there has an exact zero on its diagonal.
    """
    dim = draw(st.integers(1, 8))
    count = draw(st.integers(4, 20))
    ratio = draw(st.sampled_from([0.5, 0.8]))
    grid = ax.geometric_grid(1.0, ratio, count, draw(st.integers(1, count)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def cplx(*shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    upper = draw(st.sampled_from([0.0, 1.0])) * np.triu(cplx(dim, dim), 1)
    fam = ax.family_sum(
        ax.constant_family(np.diag(cplx(dim)) + upper),
        ax.h_scaled(ax.constant_family(np.diag(rng.normal(size=dim)))),
    )
    if draw(st.booleans()):
        h = grid.samples[draw(st.integers(0, count - 1))]
        k = draw(st.integers(0, dim - 1))
        lam = complex(families.family_eval_array(fam, h)[k, k])
    else:
        part = st.floats(-3.0, 3.0, allow_nan=False)
        lam = complex(draw(part), draw(part))
    return fam, lam, grid, rng


class TestStackedResolvents:
    @settings(max_examples=80, deadline=None)
    @given(resolvent_cases())
    def test_match_per_sample_reference(self, case):
        fam, lam, grid, rng = case
        sweep = ax.resolvent_at(fam, lam, grid)
        inverses, norms = oracles.resolvent_at_per_sample(fam, lam, grid)
        assert sweep.norms == norms
        assert sweep.tail == ax.tail_limsup(norms, grid)
        assert [inv is None for inv in sweep.inverses] == [inv is None for inv in inverses]
        for got, want in zip(sweep.inverses, inverses):
            if want is not None:
                assert np.array_equal(got.matrix.array, want.matrix.array)
                assert got.residual == want.residual

        # candidates: the exact inverses, bumped by O(h), with some dropped
        bump = rng.normal(size=(fam.dim, fam.dim))
        rf = [
            None if inv is None or rng.random() < 0.2 else inv.matrix.array + h * bump
            for inv, h in zip(inverses, grid.samples)
        ]
        left, right = oracles.resolvent_defect_per_sample(fam, rf, lam, grid)
        assert ax.resolvent_defect(fam, rf, lam, grid) == (
            ax.tail_limsup(left, grid),
            ax.tail_limsup(right, grid),
        )


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

    def test_singular_sample_outside_window_is_ignored(self, grid20):
        # lam = 1 is an eigenvalue of diag(h) only at h = 1, the first sample
        fam = ax.diag_family(["h"])
        residuals = [
            ax.resolvent_equation_residual(fam, 1.0, 3.0, grid20),
            ax.resolvent_commutation_residual(fam, 1.0, grid20),
            ax.resolvent_commutation_residual(fam, 1.0, grid20, mu=3.0),
        ]
        for residual in residuals:
            assert math.isfinite(residual.value)
            assert residual.value <= 1e-12


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
            products.append(linalg.operator_norm(a.array @ b.array))
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
    base = 0.7 * np.eye(3) + 0.3 * nil.array
    tf = ax.constant_family(base)
    sf = ax.constant_family(base + nil.array)
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

    def test_dimension_mismatch(self, grid20):
        sf = ax.diag_family(["1", "2"])
        tf = ax.diag_family(["1"])
        with pytest.raises(DimensionMismatch):
            ax.series_resolvent(sf, tf, 4.0 + 0j, grid20, 2)

    def test_term_cap(self, const_two_point, grid20):
        with pytest.raises(BadParameter):
            ax.series_resolvent(const_two_point, const_two_point, 0j, grid20, 31)


@st.composite
def window_cases(draw):
    """T + hR and T for random T and R at dims 2-8, on the default or a deep
    grid, with two points |lam| = 3 and |mu| = 2.5 in both resolvent sets."""
    dim = draw(st.integers(2, 8))
    scale = 0.3 / np.sqrt(dim)
    tf = ax.random_family(dim, draw(st.integers(0, 2**31 - 1)), scale)
    rf = ax.random_family(dim, draw(st.integers(0, 2**31 - 1)), scale)
    sf = ax.family_sum(tf, ax.h_scaled(rf))
    grid = draw(st.sampled_from([ax.geometric_grid(), ax.geometric_grid(1.0, 0.5, 36, 6)]))
    angle = st.floats(0.0, 2.0 * math.pi)
    lam = 3.0 * complex(math.cos(draw(angle)), math.sin(draw(angle)))
    mu = 2.5 * complex(math.cos(draw(angle)), math.sin(draw(angle)))
    return sf, tf, grid, lam, mu


def full_grid_tail(stack, grid):
    """Reference: the norm at every grid sample, then the tail statistic."""
    return ax.tail_limsup(linalg.spectral_norms(stack), grid)


class TestWindowOnlyTails:
    @settings(max_examples=30, deadline=None)
    @given(window_cases())
    def test_identities_equal_full_grid_reference(self, case):
        sf, _, grid, lam, mu = case
        a = families.family_eval_stack(sf, grid.samples)
        eye = np.eye(sf.dim)
        r_lam = linalg.inverse_stack(lam * eye - a)[0]
        r_mu = linalg.inverse_stack(mu * eye - a)[0]
        assert ax.resolvent_equation_residual(sf, lam, mu, grid) == full_grid_tail(
            r_lam - r_mu - (mu - lam) * (r_lam @ r_mu), grid
        )
        assert ax.resolvent_commutation_residual(sf, lam, grid) == full_grid_tail(
            a @ r_lam - r_lam @ a, grid
        )
        assert ax.resolvent_commutation_residual(sf, lam, grid, mu) == full_grid_tail(
            r_mu @ r_lam - r_lam @ r_mu, grid
        )
        # candidates: the resolvents at mu, off by O(|lam - mu|)
        assert ax.resolvent_defect(sf, list(r_mu), lam, grid) == (
            full_grid_tail((lam * eye - a) @ r_mu - eye, grid),
            full_grid_tail(r_mu @ (lam * eye - a) - eye, grid),
        )

    @settings(max_examples=30, deadline=None)
    @given(window_cases())
    def test_series_equals_full_grid_reference(self, case):
        sf, tf, grid, lam, _ = case
        sa, ta = families.family_pair_stacks(sf, tf, grid.samples)
        eye = np.eye(sf.dim)
        r = linalg.inverse_stack(lam * eye - ta)[0]
        term = total = r_pow = r
        term_tails = [full_grid_tail(term, grid).value]
        for bracket in islice(brackets.iter_brackets(sa, ta), 1, 9):
            r_pow = r_pow @ r
            term = bracket @ r_pow
            total = total + term
            term_tails.append(full_grid_tail(term, grid).value)
        tr = ax.series_resolvent(sf, tf, lam, grid, 8)
        assert tr.term_tails == tuple(term_tails)
        assert (tr.left_defect, tr.right_defect) == (
            full_grid_tail((lam * eye - sa) @ total - eye, grid),
            full_grid_tail(total @ (lam * eye - sa) - eye, grid),
        )
        assert len(tr.matrices) == grid.count
        assert all(np.array_equal(m, want) for m, want in zip(tr.matrices, total))

    def test_evaluation_error_outside_window_still_raises(self, grid20):
        # exp(1000 h) overflows at h = 1 only, far outside the tail window
        fam = ax.diag_family(["exp(1000*h)"])
        with pytest.raises(ExprError):
            ax.bracket_sequence(fam, fam, grid20)
        with pytest.raises(ExprError):
            ax.resolvent_equation_residual(fam, 0.5j, 1j, grid20)
        with pytest.raises(ExprError):
            ax.series_resolvent(fam, fam, 0.5j, grid20, 3)


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

    def test_field_csv_pins_the_float_formatting(self):
        def old_fmt(x):
            if math.isinf(x):
                return "inf" if x > 0 else "-inf"
            if math.isnan(x):
                return "nan"
            return "%.17g" % x

        region = ComplexRegion(-0.1 + 0.3j, 1.0, 21)
        values = np.linspace(-2.0, 3.0, 21 * 21).reshape(21, 21) / 3.0
        values[0, :5] = [math.inf, -math.inf, math.nan, -0.0, 5e-324]
        values[7, 7] = 0.0
        field = ax.ResolventField(region, values)
        want = ["re,im,value"] + [
            f"{old_fmt(float(region.xs[ix]))},{old_fmt(float(region.ys[iy]))},"
            f"{old_fmt(float(values[iy, ix]))}"
            for iy in range(21)
            for ix in range(21)
        ]
        text = ax.field_to_csv(field)
        assert text == "\n".join(want) + "\n"
        assert text.split("\n")[1:6] == [
            "-1.1000000000000001,-0.69999999999999996,inf",
            "-1,-0.69999999999999996,-inf",
            "-0.90000000000000002,-0.69999999999999996,nan",
            "-0.79999999999999993,-0.69999999999999996,-0",
            "-0.69999999999999996,-0.69999999999999996,4.9406564584124654e-324",
        ]

    def test_field_csv_equals_per_cell_formula(self, rng):
        region = ComplexRegion(0j, 1.6, 101)
        values = np.exp(3.0 * rng.normal(size=(101, 101)))
        values[50, 50] = values[0, 100] = values[37, :3] = math.inf
        field = ax.ResolventField(region, values)
        lines = ["re,im,value"]
        for iy, y in enumerate(region.ys):
            for ix, x in enumerate(region.xs):
                lines.append("%.17g,%.17g,%.17g" % (x, y, values[iy, ix]))
        want = ("\n".join(lines) + "\n").encode()
        assert ax.field_to_csv(field).encode() == want

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
