"""Resolvent fields, spectrum estimation, identities, and series transport."""

import cmath
import json
import math
import re
import threading
import types
import warnings
from concurrent.futures import ThreadPoolExecutor
from itertools import islice

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage

import asymspec as ax
import oracles
from asymspec import brackets, classify, cli, families, funcalc, linalg, spectrum
from asymspec.errors import BadParameter, DimensionMismatch, ExprError, UnresolvedPoint
from asymspec.spectrum import ComplexRegion


@pytest.fixture(scope="module")
def grid20():
    return ax.geometric_grid()


@pytest.fixture(scope="module")
def const_two_point():
    return ax.constant_family(np.diag([1.0, 2.0]))


@pytest.fixture(scope="module")
def const_field(const_two_point, grid20):
    # spacing 0.1 puts both eigenvalues exactly on grid nodes
    region = ComplexRegion(1.5 + 0j, 2.0, 41)
    return ax.resolvent_norm_field(const_two_point, region, grid20)


@pytest.fixture(scope="module")
def expr_field(grid20):
    region = ComplexRegion(1.5 + 0j, 2.0, 41)
    return ax.resolvent_norm_field(ax.diag_family(["1", "2+h"]), region, grid20)


def cluster_near(estimate, point):
    """Cluster whose centroid lies within radius + grid spacing of the point."""
    spacing = estimate.region.spacing
    near = [c for c in estimate.clusters if abs(c.centroid - point) <= c.radius + spacing + 1e-9]
    return min(near, key=lambda c: abs(c.centroid - point), default=None)


def grid_norm_sup(fam, grid):
    """The largest ||S_h|| over every sample of the grid."""
    return float(linalg.spectral_norms(families.family_eval_stack(fam, grid.samples)).max())


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

    @pytest.mark.parametrize(
        "center, half_width", [(1.7e308 + 0j, 1e308), (-1.7e308j, 1e308), (0j, 1e308)]
    )
    def test_overflowing_grid_rejected(self, center, half_width):
        # finite inputs whose grid extremes or grid width overflow to inf
        with pytest.raises(BadParameter, match="overflows"):
            ComplexRegion(center, half_width, 21)

    def test_widest_finite_grid_accepted(self):
        region = ComplexRegion(8e307 + 8e307j, 8e307, 21)
        assert np.isfinite(region.xs).all() and np.isfinite(region.ys).all()
        assert math.isfinite(region.spacing)

    def test_center_sits_on_the_grid(self):
        region = ComplexRegion(1.5 + 0.5j, 2.0, 41)
        assert region.xs[20] == pytest.approx(1.5)
        assert region.ys[20] == pytest.approx(0.5)
        assert region.spacing == pytest.approx(0.1)


class TestResolventAt:
    def test_diagonal_inverse_and_tail(self, const_two_point, grid20):
        sweep = ax.resolvent_at(const_two_point, 0j, grid20)
        assert math.isfinite(sweep.tail.value)
        # (0 - diag(1,2))^-1 = diag(-1, -0.5), norm 1
        assert np.allclose(sweep.inverses[0], np.diag([-1.0, -0.5]))
        assert sweep.tail.value == pytest.approx(1.0)

    def test_eigenvalue_is_singular_at_every_h(self, const_two_point, grid20):
        sweep = ax.resolvent_at(const_two_point, 1.0 + 0j, grid20)
        assert np.isnan(sweep.inverses).all()
        assert math.isinf(sweep.tail.value)

    def test_moving_eigenvalue_gives_one_over_h(self, grid20):
        sweep = ax.resolvent_at(ax.diag_family(["2+h"]), 2.0 + 0j, grid20)
        assert np.allclose(sweep.norms, [1.0 / h for h in grid20.window_samples])
        window_edge = grid20.samples[-grid20.tail_window]
        assert sweep.tail.value == pytest.approx(1.0 / grid20.samples[-1])
        assert sweep.tail.value >= 1.0 / window_edge


class TestResolventDefect:
    def test_exact_inverses_have_no_defect(self, const_two_point, grid20):
        sweep = ax.resolvent_at(const_two_point, 0j, grid20)
        left, right = ax.resolvent_defect(const_two_point, sweep.inverses, 0j, grid20)
        assert left.value <= 1e-10 and right.value <= 1e-10

    def test_equivalent_family_inverses_pass(self, const_two_point, grid20, rng):
        bump = 0.4 * (rng.normal(size=(2, 2)) + 0j)
        nearby = ax.family_sum(const_two_point, ax.h_scaled(ax.constant_family(bump)))
        sweep = ax.resolvent_at(nearby, 0j, grid20)
        left, right = ax.resolvent_defect(const_two_point, sweep.inverses, 0j, grid20)
        assert families.tail_vanishes(left, tol=1e-3)
        assert families.tail_vanishes(right, tol=1e-3)

    def test_zero_candidate_defect_is_one(self, const_two_point, grid20):
        zeros = np.zeros((grid20.tail_window, 2, 2), dtype=complex)
        left, right = ax.resolvent_defect(const_two_point, zeros, 0j, grid20)
        assert left.value == pytest.approx(1.0)
        assert right.value == pytest.approx(1.0)


class TestNormField:
    @pytest.mark.parametrize(
        "fam",
        [ax.constant_family([[1e308]]), ax.diag_family(["1e308", "1e308"])],
        ids=["dim1", "dim2"],
    )
    def test_overflowing_shift_is_refused(self, fam, grid20):
        # lambda - 1e308 leaves the float range on this region
        region = ComplexRegion(-1.5e308, 1e307, 21)
        with pytest.raises(UnresolvedPoint, match="overflows"):
            ax.resolvent_norm_field(fam, region, grid20)
        # the same region shifted by -1e308 stays in range
        field = ax.resolvent_norm_field(ax.constant_family([[-1e308]]), region, grid20)
        assert np.isfinite(field.values).all()

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
        bump_norm = linalg.operator_norm(ax.family_eval(bump, 1.0).array)
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
                lam = region.xs[ix] + 1j * region.ys[iy]
                shifted = [
                    lam * np.eye(3) - families.family_eval_array(fam, h)
                    for h in grid20.window_samples
                ]
                want = max(np.linalg.norm(np.linalg.inv(a), 2) for a in shifted)
                assert field.values[iy, ix] == pytest.approx(want, rel=1e-10)

    def test_dim_two_sweep_takes_no_lapack_svd(self, const_two_point, grid20, monkeypatch):
        def no_svd(*args, **kwargs):
            raise AssertionError("the dim-2 sweep took an SVD")

        monkeypatch.setattr(spectrum.np.linalg, "svd", no_svd)
        field = ax.resolvent_norm_field(const_two_point, ComplexRegion(1.5 + 0j, 2.0, 41), grid20)
        assert np.isinf(field.values).sum() == 2

    def test_dim_one_sweep_takes_no_lapack_svd(self, grid20, monkeypatch):
        def no_svd(*args, **kwargs):
            raise AssertionError("the dim-1 sweep took an SVD")

        fam = ax.diag_family(["0.5+0.25i+h*(1-i)"])
        region = ComplexRegion(0.5 + 0.25j, 1.0, 41)
        want = rowwise_field(fam, region, grid20)
        monkeypatch.setattr(linalg.np.linalg, "svd", no_svd)
        field = ax.resolvent_norm_field(fam, region, grid20)
        assert_matches_rowwise(field.values, want, 1)

    @pytest.mark.parametrize("entry", ["1", "0.5+0.25i+h*(1-i)"])
    def test_dim_one_field_is_inverse_distance(self, grid20, entry):
        # exactly 1 / min_h |lam - s_h|, inf where lam is a window sample's s_h
        fam = ax.diag_family([entry])
        region = ComplexRegion(1.0 + 0j, 1.0, 21)
        field = ax.resolvent_norm_field(fam, region, grid20)
        s = families.family_eval_stack(fam, grid20.window_samples)[:, 0, 0]
        lams = region.xs[None, :, None] + 1j * region.ys[:, None, None]
        with np.errstate(divide="ignore"):
            want = 1.0 / np.abs(lams - s).min(axis=-1)
        assert np.array_equal(field.values, want)
        assert np.isinf(want).sum() == (entry == "1")

    def test_dim_three_sweep_takes_no_lapack_svd(self, grid20, monkeypatch):
        def no_svd(*args, **kwargs):
            raise AssertionError("the dim-3 sweep took an SVD")

        # a non-normal family, whose shifted matrices take several Jacobi sweeps
        fam = ax.family_sum(
            ax.jordan_family(3, 0.5), ax.h_scaled(ax.random_family(3, seed=11, scale=0.8))
        )
        region = ComplexRegion(0.5 + 0j, 1.0, 41)
        want = rowwise_field(fam, region, grid20)
        monkeypatch.setattr(linalg.np.linalg, "svd", no_svd)
        field = ax.resolvent_norm_field(fam, region, grid20)
        assert_matches_rowwise(field.values, want, 3)

    def test_singular_value_tie_is_exact(self, grid20):
        # at 1.5 - 0.2i both diagonal entries of the resolvent have nearly the
        # same modulus for every window sample
        region = ComplexRegion(1.5 + 0j, 2.0, 21)
        field = ax.resolvent_norm_field(ax.diag_family(["1", "2+h"]), region, grid20)
        assert region.xs[10] + 1j * region.ys[9] == pytest.approx(1.5 - 0.2j)
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


def assert_matches_rowwise(values, want, dim):
    """The LAPACK reference bit for bit from dim 4 up; at dims 1-3, whose
    sweeps take singular values without LAPACK, to rounding on finite cells
    with the same inf cells."""
    if dim >= 4:
        assert np.array_equal(values, want)
        return
    infinite = np.isinf(want)
    assert np.array_equal(np.isinf(values), infinite)
    assert values[~infinite] == pytest.approx(want[~infinite], rel=1e-12)


class TestThreadedSweep:
    @pytest.mark.parametrize("resolution", [21, 101])
    @pytest.mark.parametrize("dim", [2, 3, 16])
    def test_field_is_bit_identical_for_any_cpu_count(self, monkeypatch, dim, resolution):
        # a two-sample window keeps the dim-16, 101-point case cheap
        grid = ax.geometric_grid(1.0, 0.5, 8, 2)
        fam = ax.family_sum(
            ax.jordan_family(dim, 0.5), ax.h_scaled(ax.random_family(dim, seed=11, scale=0.8))
        )
        region = ComplexRegion(0.4 + 0.1j, 1.5, resolution)
        fields = []
        for cpus in (1, 2, 3, 8):
            monkeypatch.setattr(spectrum, "_cpu_count", lambda: cpus)
            fields.append(ax.resolvent_norm_field(fam, region, grid).values)
        for cpus, values in zip((2, 3, 8), fields[1:]):
            assert np.array_equal(values, fields[0]), cpus
        assert_matches_rowwise(fields[0], rowwise_field(fam, region, grid), dim)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("kind", ["jordan", "singular"])
    def test_small_dim_field_does_not_depend_on_slice_size(self, grid20, monkeypatch, kind, dim):
        if kind == "jordan":
            fam = ax.family_sum(
                ax.jordan_family(dim, 0.5), ax.h_scaled(ax.random_family(dim, seed=11, scale=0.8))
            )
            region = ComplexRegion(0.4 + 0.1j, 1.5, 21)
        else:
            # singular matrices at the grid points 0 and 1 (at dim 3 they
            # settle by the Jacobi kernel's negligible-column rule), beside
            # ordinary ones
            fam = ax.diag_family(["0", "1", "0.5+0.5i+h"][:dim])
            region = ComplexRegion(0j, 1.0, 21)
        fields = []
        for rows in (1, 3, spectrum.ROWS_PER_SLICE, region.resolution):
            monkeypatch.setattr(spectrum, "ROWS_PER_SLICE", rows)
            fields.append(ax.resolvent_norm_field(fam, region, grid20).values)
        for rows, values in zip((3, spectrum.ROWS_PER_SLICE, region.resolution), fields[1:]):
            assert np.array_equal(values, fields[0]), rows
        assert_matches_rowwise(fields[0], rowwise_field(fam, region, grid20), dim)

    @staticmethod
    def small_dim_sweeps():
        """Sweeps of dimensions 1 to 3 at two resolutions, singular cells included."""
        jordan3 = ax.family_sum(
            ax.jordan_family(3, 0.5), ax.h_scaled(ax.random_family(3, seed=11, scale=0.8))
        )
        return [
            (ax.diag_family(["0.5+h"]), ComplexRegion(0.4 + 0.1j, 1.5, 21)),
            (jordan3, ComplexRegion(0.4 + 0.1j, 1.5, 41)),
            (ax.diag_family(["0", "1"]), ComplexRegion(0j, 1.0, 21)),
            (ax.random_family(2, seed=3, scale=1.0), ComplexRegion(0.1j, 2.0, 41)),
            (jordan3, ComplexRegion(0.4 + 0.1j, 1.5, 21)),
        ]

    def test_sweeps_in_one_thread_equal_sweeps_in_fresh_threads(self, grid20):
        # the thread's workspace carries over from sweep to sweep, across
        # dimensions and resolutions; a fresh thread starts with an empty one
        for fam, region in self.small_dim_sweeps():
            with ThreadPoolExecutor(1) as pool:
                fresh = pool.submit(ax.resolvent_norm_field, fam, region, grid20).result()
            here = ax.resolvent_norm_field(fam, region, grid20)
            assert np.array_equal(here.values, fresh.values)

    def test_concurrent_sweeps_keep_their_own_workspaces(self, grid20):
        sweeps = self.small_dim_sweeps()
        want = [ax.resolvent_norm_field(fam, region, grid20).values for fam, region in sweeps]
        with ThreadPoolExecutor(3) as pool:
            got = pool.map(lambda case: ax.resolvent_norm_field(*case, grid20).values, sweeps * 3)
            for values, expected in zip(got, want * 3):
                assert np.array_equal(values, expected)

    def test_thread_keeps_its_workspace_up_to_the_cap(self, grid20, monkeypatch):
        def kept_after_a_sweep(cap):
            monkeypatch.setattr(spectrum, "KEPT_WORKSPACE_BYTES", cap)

            def sweep():
                ax.resolvent_norm_field(ax.diag_family(["0", "1"]), ComplexRegion(0j, 1.0, 21), grid20)
                return getattr(spectrum._thread_state, "work", None)

            with ThreadPoolExecutor(1) as pool:
                return pool.submit(sweep).result()

        assert kept_after_a_sweep(spectrum.KEPT_WORKSPACE_BYTES) is not None
        assert kept_after_a_sweep(1024) is None

    def test_singular_cells_do_not_depend_on_cpu_count(self, grid20, monkeypatch):
        fam = ax.diag_family(["0", "1", "0.5+0.5i+h", "2"])
        region = ComplexRegion(0j, 2.0, 21)
        infinite = []
        for cpus in (1, 2, 3, 8):
            monkeypatch.setattr(spectrum, "_cpu_count", lambda: cpus)
            infinite.append(np.isinf(ax.resolvent_norm_field(fam, region, grid20).values))
        assert set(zip(*np.nonzero(infinite[0]))) == {(10, 10), (10, 15), (10, 20)}
        for mask in infinite[1:]:
            assert np.array_equal(mask, infinite[0])

    def test_window_is_evaluated_once_in_the_calling_thread(self, grid20, monkeypatch):
        calls = []
        real_eval = funcalc._Funcalc._eval

        def recording_eval(node, hs):
            calls.append((tuple(hs.tolist()), threading.get_ident()))
            return real_eval(node, hs)

        monkeypatch.setattr(funcalc._Funcalc, "_eval", recording_eval)
        monkeypatch.setattr(spectrum, "_cpu_count", lambda: 3)
        # dimension 4, so the sweep runs on the thread pool
        image = ax.family_funcalc(
            ax.diag_family(["1", "2+h", "1.2", "1.8+h"]),
            lambda z: z * z,
            ax.ContourSpec(1.5 + 0j, 1.2, 256),
        )
        ax.resolvent_norm_field(image, ComplexRegion(2.5 + 0j, 2.0, 21), grid20)
        caller = threading.get_ident()
        assert calls == [(grid20.window_samples, caller)]

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_small_dims_sweep_in_the_calling_thread(self, grid20, monkeypatch, dim):
        def no_pool(*args, **kwargs):
            raise AssertionError("thread pool started")

        monkeypatch.setattr(spectrum, "ThreadPoolExecutor", no_pool)
        monkeypatch.setattr(spectrum, "_cpu_count", lambda: 8)
        fam = ax.jordan_family(dim, 0.5)
        region = ComplexRegion(0.4 + 0.1j, 1.5, 21)
        field = ax.resolvent_norm_field(fam, region, grid20)
        assert_matches_rowwise(field.values, rowwise_field(fam, region, grid20), dim)

    def test_cpu_count_is_positive(self):
        assert spectrum._cpu_count() >= 1


class TestSpectrumEstimate:
    def test_off_grid_swap_spectrum_has_both_eigenvalues(self, grid20):
        # the all-ones vector is an eigenvector of the swap matrix, and no
        # grid point of this region sits on -1 or +1
        swap = ax.constant_family(np.array([[0.0, 1.0], [1.0, 0.0]]))
        region = ComplexRegion(0.013 + 0.007j, 1.5, 41)
        field = ax.resolvent_norm_field(swap, region, grid20)
        estimate = ax.spectrum_estimate(field, 0.75 * region.spacing)
        assert cluster_near(estimate, -1.0 + 0j) is not None
        assert cluster_near(estimate, 1.0 + 0j) is not None
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


def reference_labels(mask):
    """scipy's 8-connected labelling, the reference for spectrum._label_cells."""
    return ndimage.label(mask, structure=np.ones((3, 3), dtype=int))


def assert_labels_match(mask):
    """spectrum._label_cells gives ndimage's labels, label for label."""
    got, count = spectrum._label_cells(mask)
    want, want_count = reference_labels(mask)
    assert count == want_count
    assert np.array_equal(got, want)


def reference_clusters(field, flagged):
    """Clusters as scipy's labels and a per-blob scan give them."""
    labels, count = reference_labels(flagged)
    clusters = []
    for blob in range(1, count + 1):
        iys, ixs = np.nonzero(labels == blob)
        pts = field.region.xs[ixs] + 1j * field.region.ys[iys]
        centroid = complex(pts.mean())
        clusters.append(spectrum.Cluster(centroid, float(np.abs(pts - centroid).max()), pts.size))
    return tuple(sorted(clusters, key=lambda c: (c.centroid.real, c.centroid.imag)))


def checkerboard(n):
    return np.add.outer(np.arange(n), np.arange(n)) % 2 == 0


def snake(n):
    """One path through every other row, joined at alternating ends."""
    mask = np.zeros((n, n), dtype=bool)
    mask[::2, 1:-1] = True
    for row in range(1, n - 1, 2):
        mask[row, -2 if row % 4 == 1 else 1] = True
    return mask


def diagonal_chains(n):
    """Three chains whose cells touch only at corners: a diagonal, an
    anti-diagonal and a two-row zigzag, one blank row apart."""
    zigzag = np.zeros((2, n), dtype=bool)
    zigzag[np.arange(n) % 2, np.arange(n)] = True
    blank = np.zeros((1, n), dtype=bool)
    eye = np.eye(n, dtype=bool)
    return np.vstack([eye, blank, np.fliplr(eye), blank, zigzag])


STRUCTURED = {
    "checkerboard": checkerboard(101),
    "snake": snake(101),
    "single-row": np.random.default_rng(1).random((1, 101)) < 0.5,
    "single-column": np.random.default_rng(2).random((101, 1)) < 0.5,
    "diagonal-chains": diagonal_chains(41),
    "full": np.ones((21, 21), dtype=bool),
    "empty": np.zeros((21, 21), dtype=bool),
}


@st.composite
def random_masks(draw):
    """Masks of 21-101 rows and columns at any fill."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (draw(st.integers(21, 101)), draw(st.integers(21, 101)))
    return rng.random(shape) < draw(st.floats(0.0, 1.0))


class TestClusterLabelling:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(random_masks())
    def test_labels_equal_ndimage(self, mask):
        assert_labels_match(mask)

    @pytest.mark.parametrize("name", STRUCTURED)
    def test_structured_labels_equal_ndimage(self, name):
        assert_labels_match(STRUCTURED[name])

    def test_structured_masks_are_what_they_claim(self):
        assert reference_labels(STRUCTURED["snake"])[1] == 1
        assert reference_labels(STRUCTURED["checkerboard"])[1] == 1
        assert reference_labels(STRUCTURED["diagonal-chains"])[1] == 3

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(random_masks())
    def test_clusters_are_bit_identical_to_the_reference(self, mask):
        n = min(mask.shape)
        n -= 1 - n % 2  # a square of odd resolution
        flagged = mask[:n, :n]
        region = ComplexRegion(0.3 - 0.2j, 1.7, n)
        field = ax.ResolventField(region, np.where(flagged, 2.0, 0.5))
        estimate = ax.spectrum_estimate(field, 1.0)
        assert np.array_equal(estimate.flagged, flagged)
        assert estimate.clusters == reference_clusters(field, flagged)


class TestFieldInvariants:
    def test_flagged_points_respect_norm_bound(self, const_two_point, const_field, grid20):
        upper = grid_norm_sup(const_two_point, grid20)
        estimate = ax.spectrum_estimate(const_field, 1e-3)
        for lam in flagged_points(const_field, estimate):
            assert abs(lam) <= upper + const_field.region.spacing

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
        upper = grid_norm_sup(const_two_point, grid20)
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
        w = grid.tail_window
        sweep = ax.resolvent_at(fam, lam, grid)
        inverses, norms = oracles.resolvent_at_per_sample(fam, lam, grid)
        assert sweep.norms.tolist() == norms[-w:]
        assert sweep.tail == oracles.tail_limsup(norms, grid)
        missing = np.isnan(sweep.inverses).all(axis=(1, 2))
        assert missing.tolist() == [inv is None for inv in inverses[-w:]]
        assert np.isnan(sweep.inverses).any(axis=(1, 2)).tolist() == missing.tolist()
        eye = np.eye(fam.dim)
        for got, want, h in zip(sweep.inverses, inverses[-w:], grid.window_samples):
            if want is not None:
                assert np.array_equal(got, want.matrix)
                a = lam * eye - families.family_eval_array(fam, h)
                assert np.abs(a[None] @ got - eye).max() == want.residual

        # candidates at every grid sample: the exact inverses, bumped by
        # O(h), with some dropped; resolvent_defect takes the window's
        bump = rng.normal(size=(fam.dim, fam.dim))
        rf = np.stack([
            np.full((fam.dim, fam.dim), np.nan) if inv is None or rng.random() < 0.2
            else inv.matrix + h * bump
            for inv, h in zip(inverses, grid.samples)
        ])
        left, right = oracles.resolvent_defect_per_sample(fam, rf, lam, grid)
        assert ax.resolvent_defect(fam, rf[-w:], lam, grid) == (
            oracles.tail_limsup(left, grid),
            oracles.tail_limsup(right, grid),
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
        samples = zip(grid20.window_samples, sweep_lam.inverses, sweep_mu.inverses)
        for h, inv_lam, inv_mu in samples:
            r_lam = inv_lam + h * 0.3 * noise
            r_mu = inv_mu + h * 0.3 * noise
            gap = r_lam - r_mu - (mu - lam) * (r_lam @ r_mu)
            values.append(linalg.operator_norm(gap))
        assert families.tail_vanishes(families.window_limsup(values, grid20), tol=1e-3)

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
            diffs.append(linalg.operator_norm(inv_lam - inv_mu))
            products.append(linalg.operator_norm(inv_lam @ inv_mu))
        diff_tail = families.window_limsup(diffs, grid20)
        product_tail = families.window_limsup(products, grid20)
        # first resolvent identity makes these exactly proportional
        assert diff_tail.value == pytest.approx(abs(lam - mu) * product_tail.value, rel=1e-9)
        assert diff_tail.value > 0.0


class TestCandidateUniqueness:
    def test_all_passing_candidates_agree_in_the_tail(self, const_two_point, grid20, rng):
        lam = 0j
        sweep = ax.resolvent_at(const_two_point, lam, grid20)
        noise = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        exact = sweep.inverses
        perturbed = np.stack([r + h * 0.3 * noise for h, r in zip(grid20.window_samples, exact)])
        for candidate in (exact, perturbed):
            left, right = ax.resolvent_defect(const_two_point, candidate, lam, grid20)
            assert families.tail_vanishes(left, tol=1e-3)
            assert families.tail_vanishes(right, tol=1e-3)
        mutual = [
            linalg.operator_norm(a - b) for a, b in zip(exact, perturbed)
        ]
        assert families.tail_vanishes(families.window_limsup(mutual, grid20), tol=1e-3)

    def test_exact_inverses_transfer_to_equivalent_family(
        self, const_two_point, grid20, rng
    ):
        bump = 0.5 * (rng.normal(size=(2, 2)) + 0j)
        nearby = ax.family_sum(const_two_point, ax.h_scaled(ax.constant_family(bump)))
        sweep = ax.resolvent_at(const_two_point, 0j, grid20)
        left, right = ax.resolvent_defect(nearby, sweep.inverses, 0j, grid20)
        assert families.tail_vanishes(left, tol=1e-3)
        assert families.tail_vanishes(right, tol=1e-3)


@pytest.fixture(scope="module")
def nilpotent_pair():
    nil = linalg.jordan_block(3, 0.0)
    base = 0.7 * np.eye(3) + 0.3 * nil
    tf = ax.constant_family(base)
    sf = ax.constant_family(base + nil)
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
        assert transport.matrices.shape == (grid20.tail_window, 3, 3)

    def test_term_norms_respect_envelope(self, grid20):
        # summand n is bounded by a_n * M^(n+1): a_n the tail bracket norm,
        # M the tail resolvent norm of the source family
        tf = ax.constant_family(np.diag([0.5, 0.5, 0.5]))
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
        assert transport.matrices.shape == (grid20.tail_window, 2, 2)
        assert np.isfinite(transport.matrices).all()
        assert transport.left_defect.value <= 1e-12
        assert transport.right_defect.value <= 1e-12

    def test_unresolved_source_point_rejected(self, const_two_point, grid20):
        with pytest.raises(UnresolvedPoint):
            ax.series_resolvent(const_two_point, const_two_point, 1.0 + 0j, grid20, 4)

    def test_converging_series_of_overflowing_brackets(self, grid20):
        # B_16 of diag(1e20, 3e19) against 0 overflows and R^17 = 1e-425 I
        # underflows, but the summands shrink by 1e-5 an order
        big = np.diag([1e20, 3e19])
        sf, tf = ax.constant_family(big), ax.constant_family(np.zeros((2, 2)))
        lam = 1e25 + 0j
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            transport = ax.series_resolvent(sf, tf, lam, grid20, 20)
        want = np.linalg.inv(lam * np.eye(2) - big)
        assert np.abs(transport.matrices - want).max() <= 2.0**-52 * np.abs(want).max()
        assert transport.left_defect.value <= 1e-15
        assert transport.right_defect.value <= 1e-15

    def test_diverging_series_is_an_unresolved_point(self, grid20):
        # at lambda = 1 the summands of 1e200 against 0 are 1e200^n: the
        # partial sum of order 2 overflows at the first window sample
        sf, tf = ax.constant_family([[1e200]]), ax.constant_family([[0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(UnresolvedPoint) as err:
                ax.series_resolvent(sf, tf, 1.0 + 0j, grid20, 3)
        assert str(err.value) == (
            "the bracket series at lam=(1+0j) diverges: its partial sum of order 2 "
            f"leaves the float range at h={grid20.window_samples[0]!r}"
        )

    def test_overflowing_defect_products_read_inf(self, grid20):
        # (lam - 1e300) times the partial sum, about 1e280, overflows
        sf, tf = ax.constant_family([[1e300]]), ax.constant_family([[0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            transport = ax.series_resolvent(sf, tf, 1e10 + 0j, grid20, 1)
        assert transport.left_defect.value == transport.right_defect.value == math.inf

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
    lam_angle, mu_angle = draw(angle), draw(angle)
    lam = 3.0 * complex(math.cos(lam_angle), math.sin(lam_angle))
    mu = 2.5 * complex(math.cos(mu_angle), math.sin(mu_angle))
    return sf, tf, grid, lam, mu


def full_grid_tail(stack, grid):
    """Reference: the norm at every grid sample, then the tail statistic."""
    return oracles.tail_limsup(linalg.spectral_norms(stack), grid)


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
        assert ax.resolvent_defect(sf, r_mu[-grid.tail_window :], lam, grid) == (
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
        # the summands X_n = B_n R^(n+1) by X_{n+1} = (S X_n - X_n T) R
        term = total = r
        term_tails = [full_grid_tail(term, grid).value]
        for _ in range(8):
            term = (sa @ term - term @ ta) @ r
            total = total + term
            term_tails.append(full_grid_tail(term, grid).value)
        tr = ax.series_resolvent(sf, tf, lam, grid, 8)
        assert tr.term_tails == tuple(term_tails)
        assert (tr.left_defect, tr.right_defect) == (
            full_grid_tail((lam * eye - sa) @ total - eye, grid),
            full_grid_tail(total @ (lam * eye - sa) - eye, grid),
        )
        assert tr.matrices.shape == (grid.tail_window, sf.dim, sf.dim)
        assert np.array_equal(tr.matrices, total[-grid.tail_window :])

    @settings(max_examples=30, deadline=None)
    @given(window_cases(), st.floats(0.0, 2.0 * math.pi))
    def test_series_equals_bracket_form(self, case, angle):
        # Sigma_N = sum_n B_n R^(n+1), with the brackets and the powers of R
        # formed apart, as the series is written; at |lam| = 3 the series
        # converges, so both forms agree to rounding
        sf, tf, grid, _, _ = case
        lam = 3.0 * cmath.exp(1j * angle)
        sa, ta = families.family_pair_stacks(sf, tf, grid.window_samples)
        r = linalg.inverse_stack(lam * np.eye(sf.dim) - ta)[0]
        term = total = r_pow = r
        term_tails = [families.window_sup(linalg.spectral_norms(term))]
        for bracket in islice(brackets.iter_brackets(sa, ta), 1, 9):
            r_pow = r_pow @ r
            term = bracket @ r_pow
            total = total + term
            term_tails.append(families.window_sup(linalg.spectral_norms(term)))
        tr = ax.series_resolvent(sf, tf, lam, grid, 8)
        assert np.abs(tr.matrices - total).max() <= 1e-12 * np.abs(total).max()
        # a summand whose bracket cancels to rounding level (S and T commute
        # when R = T) is rounding noise in both forms
        rounding = 1e-15 * term_tails[0]
        assert np.allclose(tr.term_tails, term_tails, rtol=1e-12, atol=rounding)

    def test_only_window_evaluation_errors_raise(self, grid20, tmp_path, monkeypatch, capsys):
        window_h = f"h={grid20.window_samples[0]!r}"

        def command(*argv):
            # a CLI command with default grid and region flags, by its handler,
            # which raises where main would print the error
            def run(fam):
                path = tmp_path / "family.json"
                path.write_text(json.dumps(ax.family_to_dict(fam)))
                args = cli._build_parser().parse_args([argv[0], "--family", str(path), *argv[1:]])
                return args.handler(args)

            return run

        statistics = [
            lambda fam: ax.bracket_sequence(fam, fam, grid20),
            lambda fam: ax.asymptotic_equiv(fam, fam, grid20, tol=1e-6),
            lambda fam: ax.asymptotic_commuting(fam, fam, grid20, tol=1e-6),
            lambda fam: ax.quasinilpotent_equiv(fam, fam, grid20),
            lambda fam: ax.is_asymptotic_quasinilpotent(fam, grid20),
            lambda fam: ax.resolvent_equation_residual(fam, 0.5j, 1j, grid20),
            lambda fam: ax.resolvent_commutation_residual(fam, 0.5j, grid20, 1j),
            lambda fam: ax.resolvent_defect(
                fam, np.zeros((grid20.tail_window, 1, 1)), 0.5j, grid20
            ),
            lambda fam: ax.series_resolvent(fam, fam, 0.5j, grid20, 3),
            lambda fam: ax.default_region(fam, grid20),
            command("spectrum"),
            command("field"),
            command("funcalc", "--expr", "exp(z)", "--contour-center", "1", "--contour-radius", "0.5"),
        ]
        # every h a statistic evaluates a family at
        evaluated = []
        evaluate = families.family_eval_stack

        def recording(spec, hs):
            evaluated.extend(float(h) for h in hs)
            return evaluate(spec, hs)

        for module in (families, brackets, classify, funcalc, spectrum):
            if hasattr(module, "family_eval_stack"):
                monkeypatch.setattr(module, "family_eval_stack", recording)
        # exp(1000 h) overflows at h = 1 only, far outside the tail window;
        # exp(1/h) overflows at every window h
        outside = ax.diag_family(["exp(1000*h)"])
        inside = ax.diag_family(["exp(1/h)"])
        for statistic in statistics:
            evaluated.clear()
            assert statistic(outside) is not None
            assert evaluated and set(evaluated) <= set(grid20.window_samples)
            with pytest.raises(ExprError, match=re.escape(window_h)):
                statistic(inside)
        capsys.readouterr()
        # the default tolerance scales with the value at h0 = 1
        with pytest.raises(ExprError, match=re.escape("h=1.0")):
            ax.asymptotic_equiv(outside, outside, grid20)


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

    def test_field_csv_row_templates_match_per_cell_formatting(self, rng):
        # coordinates no ComplexRegion produces today (inf, nan, negative
        # zero) beside subnormal and huge ones: a row template must format
        # every coordinate and value exactly as "%.17g" of the cell does
        xs = np.array([-0.0, 0.0, 5e-324, -2.5e-310, 1.7976931348623157e308, -math.inf, 0.1])
        ys = np.array([-0.0, math.inf, math.nan, 1e-320, -1e300, 3.0, -7.25])
        values = np.exp(3.0 * rng.normal(size=(7, 7)))
        values[0, :4] = [math.inf, -0.0, 5e-324, 1e308]
        values[3, 3] = math.nan
        region = types.SimpleNamespace(xs=xs, ys=ys)
        text = ax.field_to_csv(types.SimpleNamespace(region=region, values=values))
        cells = [(x, y, v) for y, row in zip(ys, values) for x, v in zip(xs, row)]
        want = "re,im,value\n" + "".join("%.17g,%.17g,%.17g\n" % cell for cell in cells)
        assert text.encode() == want.encode()

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
        assert cluster_near(estimate, 1.0 + 0j) is not None
        assert cluster_near(estimate, 1.5 + 0j) is None

    def test_clusters_match_is_symmetric(self, expr_field, const_field):
        a = ax.spectrum_estimate(expr_field, 1e-3)
        b = ax.spectrum_estimate(const_field, 1e-3)
        assert ax.clusters_match(a, b)
        assert ax.clusters_match(b, a)

    def test_clusters_match_detects_disagreement(self, expr_field, grid20):
        a = ax.spectrum_estimate(expr_field, 1e-3)
        shifted = ax.constant_family(np.diag([1.0, 2.7]))
        field = ax.resolvent_norm_field(shifted, expr_field.region, grid20)
        b = ax.spectrum_estimate(field, 1e-3)
        assert not ax.clusters_match(a, b)


class TestDefaults:
    def test_omitted_epsilon_flags_an_eigenvalue_at_a_cell_center(self, grid20):
        # the farthest an eigenvalue can sit from every grid point: spacing/sqrt(2)
        region = ComplexRegion(0j, 1.0, 21)
        eigenvalue = 0.05 + 0.05j
        field = ax.resolvent_norm_field(ax.constant_family([[eigenvalue]]), region, grid20)
        estimate = ax.spectrum_estimate(field)
        assert estimate.epsilon == 0.75 * region.spacing
        assert len(estimate.clusters) == 1
        assert estimate.clusters[0].cell_count == 4
        assert abs(estimate.clusters[0].centroid - eigenvalue) <= 1e-12

    def test_omitted_epsilon_finds_the_two_point_spectrum_on_the_default_region(self, grid20):
        fam = ax.diag_family(["1", "2+h"])
        region = ax.default_region(fam, grid20)
        estimate = ax.spectrum_estimate(ax.resolvent_norm_field(fam, region, grid20))
        assert len(estimate.clusters) == 2
        assert cluster_near(estimate, 1.0 + 0j) is estimate.clusters[0]
        assert cluster_near(estimate, 2.0 + 0j) is estimate.clusters[1]

    def test_default_half_width_is_the_window_norm_sup(self, grid20):
        # N + hR: the grid's norm sup, at h = 1, is more than four times the
        # window's, and every window spectrum lies within |lam| <= 0.11
        fam = ax.family_sum(ax.jordan_family(4, 0), ax.h_scaled(ax.random_family(4, 943)))
        window = linalg.spectral_norms(families.family_eval_stack(fam, grid20.window_samples))
        assert ax.default_region(fam, grid20).half_width == 1.25 * window.max()
        assert grid_norm_sup(fam, grid20) > 4.0 * window.max()

    @pytest.mark.parametrize("matrix", [np.full((2, 2), 1e308), [[1e308]]])
    def test_overflowing_default_region_is_an_unresolved_point(self, grid20, matrix):
        # the window norm overflows for the first, the region's width for the
        # second
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(UnresolvedPoint, match=re.escape("--region-half-width")):
                ax.default_region(ax.constant_family(matrix), grid20)

    def test_default_region_covers_norm_disk(self, grid20):
        region = ax.default_region(ax.constant_family(np.diag([2.0, -1.0])), grid20)
        assert region.center == 0j
        assert region.half_width == pytest.approx(2.5)
        assert region.resolution == 101
