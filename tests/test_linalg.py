"""Matrix ring operations, LAPACK inversion, and the spectral norm."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from asymspec import families, linalg
from asymspec.errors import BadParameter, OutOfRange, SchemaError
from asymspec.linalg import ComplexMatrix
from asymspec.verification import _matrix_power as matrix_power


def random_matrix(rng, dim, scale=1.0):
    data = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return scale * data


def rel_gap(a: np.ndarray, b: np.ndarray) -> float:
    scale = 1.0 + np.abs(a).max() + np.abs(b).max()
    return np.abs(a - b).max() / scale


class TestRingOps:
    def test_nilpotent_block_squares_to_zero(self):
        j = linalg.jordan_block(2, 0.0)
        assert np.abs(j @ j).max() == 0.0


class TestMatrixPower:
    def test_zeroth_power_is_identity(self, rng):
        a = random_matrix(rng, 4)
        assert np.array_equal(matrix_power(a, 0), np.eye(4))

    def test_nilpotent_cube_vanishes(self):
        j = linalg.jordan_block(3, 0.0)
        assert np.abs(matrix_power(j, 3)).max() == 0.0

    def test_diagonal_powers(self):
        a = np.diag([2.0, 3.0])
        got = matrix_power(a, 5)
        assert np.allclose(got, np.diag([32.0, 243.0]))

    def test_power_addition_law(self, rng):
        for m, n in [(2, 3), (1, 4), (0, 5), (3, 3)]:
            a = random_matrix(rng, 4, scale=0.7)
            combined = matrix_power(a, m + n)
            split = matrix_power(a, m) @ matrix_power(a, n)
            assert rel_gap(combined, split) <= 1e-10

    def test_negative_exponent_rejected(self):
        with pytest.raises(OutOfRange):
            matrix_power(np.eye(2), -1)


class TestSolveInverse:
    def test_identity_inverts_to_itself(self):
        inv = linalg.solve_inverse(np.eye(4))
        assert inv is not None
        assert np.allclose(inv.matrix, np.eye(4))
        assert inv.residual <= 1e-12

    def test_nilpotent_block_is_singular(self):
        assert linalg.solve_inverse(linalg.jordan_block(2, 0.0)) is None

    def test_diagonal_reciprocal(self):
        inv = linalg.solve_inverse(np.diag([1.0, 2.0]))
        assert inv is not None
        assert np.allclose(inv.matrix, np.diag([1.0, 0.5]))

    def test_reported_residual_matches_product(self, rng):
        for _ in range(5):
            a = random_matrix(rng, 4)
            inv = linalg.solve_inverse(a)
            assert inv is not None
            recomputed = np.abs(a @ inv.matrix - np.eye(4)).max()
            assert inv.residual == recomputed
            assert inv.residual <= 1e-9

    def test_pivot_threshold_is_relative(self):
        # 1e-10 is far above the 1e-14 relative cutoff; 1e-20 is far below.
        assert linalg.solve_inverse(np.diag([1.0, 1e-10])) is not None
        assert linalg.solve_inverse(np.diag([1.0, 1e-20])) is None

    def test_stack_marks_singular_members(self, rng):
        good = random_matrix(rng, 3)
        stack = np.stack([good, linalg.jordan_block(3, 0.0), 2.0 * good])
        inv, singular = linalg.inverse_stack(stack)
        assert list(singular) == [False, True, False]
        assert np.isnan(inv[1]).all()
        assert np.allclose(inv[0] @ good, np.eye(3), atol=1e-12)
        assert np.allclose(inv[2], 0.5 * inv[0], atol=1e-12)


# sigma_min / sigma_max of the members the inverse property draws: exactly
# singular, far below, at and around, and above the SINGULAR_RTOL cutoff,
# including the ratios the residual certificate leaves undecided (1e-10).
CONDITION_RATIOS = [
    0.0,
    1e-17,
    1e-15,
    *(linalg.SINGULAR_RTOL + k * np.spacing(linalg.SINGULAR_RTOL) for k in (-3, -1, 0, 1, 3)),
    1e-12,
    1e-10,
    1e-8,
    1.0,
]


def random_unitary(rng, dim):
    q, r = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    return q * (r.diagonal() / np.abs(r.diagonal()))


@st.composite
def conditioned_stacks(draw):
    """Stacks of U diag(sigma) V^H with a drawn sigma_min / sigma_max and
    scale; some members get a zero row, which LAPACK's inv refuses."""
    dim = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    members = []
    for ratio in draw(st.lists(st.sampled_from(CONDITION_RATIOS), min_size=1, max_size=6)):
        sigma = np.sort(rng.uniform(ratio, 1.0, dim))[::-1]
        sigma[0] = 1.0
        sigma[-1] = ratio
        scale = draw(st.sampled_from([1e-100, 1.0, 1e100]))
        m = scale * (random_unitary(rng, dim) * sigma) @ random_unitary(rng, dim).conj().T
        if draw(st.integers(0, 9)) == 0:
            m[draw(st.integers(0, dim - 1))] = 0.0
        members.append(m)
    return np.stack(members)


class TestCertifiedInverse:
    @settings(max_examples=300, deadline=None)
    @given(conditioned_stacks())
    def test_matches_svd_rule_reference(self, stack):
        inv, singular = linalg.inverse_stack(stack)
        want_inv, want_singular = oracles.svd_rule_inverse_stack(stack)
        assert (singular == want_singular).all()
        assert np.array_equal(inv, want_inv, equal_nan=True)

    def test_well_conditioned_stack_takes_no_svd(self, rng, monkeypatch):
        stack = np.stack([random_matrix(rng, 6) for _ in range(20)])
        want_inv, _ = oracles.svd_rule_inverse_stack(stack)

        def no_svd(*args, **kwargs):
            raise AssertionError("inverse_stack took an SVD")

        monkeypatch.setattr(linalg.np.linalg, "svd", no_svd)
        inv, singular = linalg.inverse_stack(stack)
        assert not singular.any()
        assert np.array_equal(inv, want_inv)


class TestOperatorNorm:
    def test_diagonal_norm_is_largest_magnitude(self):
        assert abs(linalg.operator_norm(np.diag([1.0, -3.0])) - 3.0) <= 1e-12

    def test_zero_matrix_has_zero_norm(self):
        assert linalg.operator_norm(np.zeros((3, 3))) == 0.0

    def test_matches_jacobi_gram_oracle(self, rng):
        a = random_matrix(rng, 5)
        want = oracles.spectral_norm_oracle(a.tolist())
        got = linalg.operator_norm(a)
        assert abs(got - want) <= 1e-9 * want

    def test_small_dims_match_oracle(self, rng):
        for dim in (1, 2, 3, 4):
            for _ in range(4):
                a = random_matrix(rng, dim)
                want = oracles.spectral_norm_oracle(a.tolist())
                assert abs(linalg.operator_norm(a) - want) <= 1e-9 * (1.0 + want)

    def test_submultiplicative(self, rng):
        for _ in range(8):
            a = random_matrix(rng, 4)
            b = random_matrix(rng, 4)
            lhs = linalg.operator_norm(a @ b)
            assert lhs <= (1 + 1e-9) * linalg.operator_norm(a) * linalg.operator_norm(b)

    def test_adjoint_preserves_norm(self, rng):
        for _ in range(5):
            a = random_matrix(rng, 4)
            na = linalg.operator_norm(a)
            assert abs(linalg.operator_norm(a.conj().T) - na) <= 1e-10 * na

    def test_repeated_top_value_is_exact(self):
        assert linalg.operator_norm(np.diag([2.0, 2.0])) == pytest.approx(
            2.0, rel=1e-15
        )

    def test_near_tie_is_exact(self):
        # a relative gap of 1e-5 between the top two singular values
        got = linalg.operator_norm(np.diag([1.0, 1.0 + 1e-5]))
        assert got == pytest.approx(1.0 + 1e-5, rel=1e-15)

    def test_top_singular_vector_orthogonal_to_ones(self):
        # the all-ones vector spans the kernel of this matrix
        a = np.array([[-1.0, 1.0], [1.0, -1.0]])
        assert linalg.operator_norm(a) == pytest.approx(2.0, rel=1e-15)
        assert oracles.spectral_norm_oracle(a.tolist()) == pytest.approx(2.0, rel=1e-15)

    def test_tiny_matrix_does_not_underflow(self):
        a = 1e-100 * np.eye(3)
        want = pytest.approx(1e-100, rel=1e-15, abs=0.0)
        assert linalg.operator_norm(a) == want
        assert oracles.spectral_norm_oracle(a.tolist()) == want

    def test_stack_norms_match_single_norms(self, rng):
        stack = np.stack([random_matrix(rng, 3) for _ in range(5)])
        got = linalg.spectral_norms(stack)
        assert got.shape == (5,)
        for a, norm in zip(stack, got):
            assert norm == pytest.approx(oracles.spectral_norm_oracle(a.tolist()), rel=1e-12)

    def test_non_finite_member_has_infinite_norm(self):
        stack = np.stack([np.eye(2), np.full((2, 2), np.nan)]).astype(np.complex128)
        assert list(linalg.spectral_norms(stack)) == [1.0, np.inf]


@st.composite
def two_by_two_stacks(draw):
    """Stacks of 2x2 matrices: Gaussian entries at scales from 1e-150 to
    1e150, the same for the whole matrix or entry by entry; rank one; a
    scalar times a unitary (a tie); a zero column; zero; and entries of
    1e200, whose products overflow."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["scaled", "rank_one", "tie", "zero_column", "zero", "huge"]))
    lo = draw(st.integers(-150, 150))
    hi = draw(st.integers(lo, 150))
    n = 4

    def gaussian(*shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    scaled = gaussian(n, 2, 2) * 10.0 ** rng.uniform(lo, hi, (n, 2, 2))
    if kind == "scaled":
        return scaled
    if kind == "rank_one":
        return gaussian(n, 2, 1) * gaussian(n, 1, 2) * 10.0**lo
    if kind == "tie":
        return np.stack([random_unitary(rng, 2) for _ in range(n)]) * gaussian(n, 1, 1) * 10.0**lo
    if kind == "zero_column":
        scaled[:, :, draw(st.integers(0, 1))] = 0.0
        return scaled
    if kind == "zero":
        return np.zeros((n, 2, 2), dtype=np.complex128)
    return gaussian(n, 2, 2) * 1e200


def closed_form(stack):
    (a, b), (c, d) = stack.transpose(1, 2, 0)
    return linalg.singular_values_2x2(a, b, c, d)


class TestSingularValues2x2:
    # np.linalg.svd itself errs by up to 5.2 eps sigma_max against an
    # extended-precision reference, where this kernel stays within 3.8 eps,
    # so about 3 in 10^4 matrices with entry-wise scales cross the bound
    # through the two roundings together; fixed examples keep the test
    # deterministic.
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(two_by_two_stacks())
    def test_matches_lapack(self, stack):
        got = closed_form(stack)
        want = np.linalg.svd(stack, compute_uv=False)
        sigma_max = want[:, :1]
        assert (np.abs(got - want) <= 4 * np.finfo(float).eps * sigma_max).all()
        # the rule may tip either way within 1 % of the cutoff
        cutoff = linalg.SINGULAR_RTOL * want[:, 0]
        decided = ~(np.abs(want[:, 1] - cutoff) < 0.01 * cutoff)
        assert np.array_equal(linalg.is_singular(got)[decided], linalg.is_singular(want)[decided])

    def test_zero_column_and_zero_matrix_are_exactly_singular(self):
        got = linalg.singular_values_2x2(
            np.array([0.0, 0.0]), np.array([3.0, 0.0]), np.array([0.0, 0.0]), np.array([4j, 0.0])
        )
        assert np.array_equal(got, [[5.0, 0.0], [0.0, 0.0]])

    @pytest.mark.parametrize("tiny", [1e-150, 1e-158, 1e-200, 1e-290, 1e-305, 1e-320])
    def test_tiny_first_column_keeps_sigma_max(self, tiny):
        # f = |first column| has squares below the normal range here, and g, h
        # are divided by it; in the second matrix h alone carries sigma_max
        stack = np.array([[[tiny, 1.0], [1j * tiny, 2.0]], [[tiny, 0.0], [0.0, 1.0]]])
        got = closed_form(stack)
        want = np.linalg.svd(stack, compute_uv=False)
        assert (np.abs(got - want) <= 4 * np.finfo(float).eps * want[:, :1]).all()


@st.composite
def three_by_three_stacks(draw):
    """Stacks of 3x3 matrices: Gaussian entries at scales from 1e-150 to
    1e150, the same for the whole matrix or entry by entry; rank one and rank
    two; a scalar times a unitary (a triple tie) and U diag(1, 1, r) V^H (a
    double tie); a zero column; zero; entries of 1e300; and U diag(1, r, rho)
    V^H with rho from 1e-17 to 1e-11, around the singularity cutoff."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(
        st.sampled_from(
            ["scaled", "rank_one", "rank_two", "tie", "double_tie", "zero_column", "zero", "huge",
             "near_cutoff"]
        )
    )
    lo = draw(st.integers(-150, 150))
    hi = draw(st.integers(lo, 150))
    n = 4

    def gaussian(*shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    def unitaries():
        return np.stack([random_unitary(rng, 3) for _ in range(n)])

    def from_singular_values(sigma):
        return (unitaries() * sigma[:, None, :]) @ unitaries().conj().transpose(0, 2, 1)

    scaled = gaussian(n, 3, 3) * 10.0 ** rng.uniform(lo, hi, (n, 3, 3))
    if kind == "scaled":
        return scaled
    if kind == "rank_one":
        return gaussian(n, 3, 1) * gaussian(n, 1, 3) * 10.0**lo
    if kind == "rank_two":
        return gaussian(n, 3, 2) @ gaussian(n, 2, 3) * 10.0**lo
    if kind == "tie":
        return unitaries() * gaussian(n, 1, 1) * 10.0**lo
    if kind == "double_tie":
        return from_singular_values(np.stack([np.ones(n), np.ones(n), rng.uniform(0, 1, n)], -1))
    if kind == "zero_column":
        scaled[:, :, draw(st.integers(0, 2))] = 0.0
        return scaled
    if kind == "zero":
        return np.zeros((n, 3, 3), dtype=np.complex128)
    if kind == "huge":
        return gaussian(n, 3, 3) * 1e300
    rho = 10.0 ** rng.uniform(-17, -11, n)
    return from_singular_values(np.stack([np.ones(n), 10.0 ** rng.uniform(-3, 0, n), rho], -1))


# Largest |sigma - sigma_lapack| / sigma_max allowed, in units of eps. On 10^6
# matrices of each kind of three_by_three_stacks the kernel came within
# 8.1 eps of np.linalg.svd, and within 14.5 eps on double ties, where
# np.linalg.svd itself was up to 13.5 eps off a 40-digit mpmath SVD and the
# kernel at most 1 eps. Against that reference the kernel stayed within
# 3.9 eps on 300 matrices of each kind.
JACOBI_BOUND = 16


class TestSingularValues3x3:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(three_by_three_stacks())
    def test_matches_lapack(self, stack):
        got = linalg.singular_values_3x3(stack)
        want = np.linalg.svd(stack, compute_uv=False)
        sigma_max = want[:, :1]
        assert (np.abs(got - want) <= JACOBI_BOUND * np.finfo(float).eps * sigma_max).all()
        # the rule may tip either way near the cutoff: 537 of 10^6 matrices
        # with rho from 1e-15 to 1e-13 did, all within 2.1 % of it
        cutoff = linalg.SINGULAR_RTOL * want[:, 0]
        decided = ~(np.abs(want[:, -1] - cutoff) < 0.05 * cutoff)
        assert np.array_equal(linalg.is_singular(got)[decided], linalg.is_singular(want)[decided])

    def test_zero_matrix_and_zero_column_are_exactly_singular(self, rng):
        stack = rng.normal(size=(4, 3, 3)) + 1j * rng.normal(size=(4, 3, 3))
        stack[0] = 0.0
        for k in range(3):
            stack[k + 1, :, k] = 0.0
        got = linalg.singular_values_3x3(stack)
        want = np.linalg.svd(stack, compute_uv=False)
        assert np.array_equal(got[0], [0.0, 0.0, 0.0])
        assert np.array_equal(got[:, 2], [0.0] * 4)
        assert (np.abs(got - want) <= JACOBI_BOUND * np.finfo(float).eps * want[:, :1]).all()

    @pytest.mark.parametrize("tiny", [1e-150, 1e-200, 1e-290, 1e-305, 1e-320])
    @pytest.mark.parametrize("column", [0, 1, 2])
    def test_tiny_column_keeps_the_other_values(self, rng, tiny, column):
        # the rotations that meet the tiny column have pivots whose squares
        # lie below the normal range
        stack = rng.normal(size=(8, 3, 3)) + 1j * rng.normal(size=(8, 3, 3))
        stack[:, :, column] *= tiny
        got = linalg.singular_values_3x3(stack)
        want = np.linalg.svd(stack, compute_uv=False)
        assert (np.abs(got - want) <= JACOBI_BOUND * np.finfo(float).eps * want[:, :1]).all()

    def test_values_do_not_depend_on_the_rest_of_the_stack(self, rng):
        # members that settle after different numbers of sweeps: diagonal,
        # Gaussian, rank two and nearly singular
        stack = np.concatenate(
            [
                np.diag([3.0, 2.0j, 1.0])[None],
                rng.normal(size=(5, 3, 3)) + 1j * rng.normal(size=(5, 3, 3)),
                rng.normal(size=(2, 3, 2)) @ rng.normal(size=(2, 2, 3)),
                (random_unitary(rng, 3) * [1.0, 1e-3, 1e-15]) @ random_unitary(rng, 3)[None],
            ]
        )
        together = linalg.singular_values_3x3(stack)
        alone = np.concatenate([linalg.singular_values_3x3(m[None]) for m in stack])
        assert np.array_equal(together, alone)
        assert np.array_equal(together[0], [3.0, 2.0, 1.0])

    def test_rank_deficient_matrices_settle_without_lapack(self, rng, monkeypatch):
        # the rounding noise in a column that should vanish shrinks only by
        # about eps per rotation; the negligible-column rule stops it
        stack = np.concatenate(
            [
                rng.normal(size=(200, 3, 1)) * rng.normal(size=(200, 1, 3)),
                rng.normal(size=(200, 3, 2)) @ rng.normal(size=(200, 2, 3)),
                np.stack(
                    [
                        (random_unitary(rng, 3) * [1.0, 0.1, rho]) @ random_unitary(rng, 3)
                        for rho in np.repeat([1e-17, 1e-16, 1e-15, 1e-14], 50)
                    ]
                ),
            ]
        )
        want = np.linalg.svd(stack, compute_uv=False)

        def no_svd(*args, **kwargs):
            raise AssertionError("the kernel took an SVD")

        monkeypatch.setattr(linalg.np.linalg, "svd", no_svd)
        got = linalg.singular_values_3x3(stack)
        assert (np.abs(got - want) <= JACOBI_BOUND * np.finfo(float).eps * want[:, :1]).all()

    def test_unsettled_matrices_get_lapack_values(self, rng, monkeypatch):
        # one sweep settles no Gaussian matrix, since the sweep that proves a
        # matrix settled must itself rotate nothing
        stack = rng.normal(size=(6, 3, 3)) + 1j * rng.normal(size=(6, 3, 3))
        monkeypatch.setattr(linalg, "JACOBI_MAX_SWEEPS", 1)
        got = linalg.singular_values_3x3(stack)
        assert np.array_equal(got, np.linalg.svd(stack, compute_uv=False))

    def test_stack_shapes(self, rng):
        a = rng.normal(size=(2, 5, 3, 3)) + 0j
        assert linalg.singular_values_3x3(a).shape == (2, 5, 3)
        assert linalg.singular_values_3x3(a[0, 0]).shape == (3,)
        with pytest.raises(BadParameter):
            linalg.singular_values_3x3(np.zeros((4, 2, 2)))


class TestWorkspace:
    """The small-matrix kernels as a field sweep calls them: slice after slice
    into one Workspace, with a and d per point and window sample and b and c
    per sample."""

    @staticmethod
    def slice_args(rng, points, samples=6):
        def gaussian(*shape):
            return rng.normal(size=shape) + 1j * rng.normal(size=shape)

        a, d = gaussian(points, samples), gaussian(points, samples)
        return (a, gaussian(samples), gaussian(samples), d), gaussian(points * samples, 3, 3)

    def test_reused_workspace_gives_fresh_values(self, rng):
        # a long slice, a shorter one, then the long one again; both kernels
        # share the workspace, and its "sigma" array, as a sweep's thread does
        work = linalg.Workspace()
        for points in (40, 7, 40, 3):
            entries, stack = self.slice_args(rng, points)
            got = linalg.singular_values_2x2(*entries, work)
            assert np.array_equal(got, linalg.singular_values_2x2(*entries))
            got = linalg.singular_values_3x3(stack, work)
            assert np.array_equal(got, linalg.singular_values_3x3(stack))

    def test_views_kept_do_not_grow_with_the_shapes_asked_for(self, rng):
        # a sweep's interior pass asks for a new size per chunk, sweep after
        # sweep; the views kept stay bounded, and the arrays stay shared
        work = linalg.Workspace()
        for points in range(1, 200):
            entries, _ = self.slice_args(rng, points, samples=1)
            got = linalg.singular_values_2x2(*entries, work)
            assert np.array_equal(got, linalg.singular_values_2x2(*entries))
        assert len(work._views) <= work.VIEWS_PER_ARRAY * len(work._arrays)

    def test_warm_call_allocates_less_than_the_trim_threshold(self, rng):
        # glibc's malloc hands the heap top back to the OS once more than
        # 128 KiB lie free there; a slice of a 101^2 sweep allocates less
        # than that into a warm workspace, so the next slice reuses its pages
        entries, stack = self.slice_args(rng, 8 * 101)
        work = linalg.Workspace()
        calls = {
            "2x2": lambda w: linalg.singular_values_2x2(*entries, w),
            "3x3": lambda w: linalg.singular_values_3x3(stack, w),
        }

        def allocated(call, w):
            """Bytes a call allocates at its peak beyond what lives already."""
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            call(w)
            return tracemalloc.get_traced_memory()[1] - before

        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        try:
            for name, call in calls.items():
                fresh = allocated(call, None)
                call(work)
                assert allocated(call, work) < 128 * 1024 < fresh, name
        finally:
            if started:
                tracemalloc.stop()


class TestConstruction:
    def test_rejects_nonsquare(self):
        with pytest.raises(BadParameter):
            ComplexMatrix([[1.0, 2.0]])

    def test_rejects_nonfinite(self):
        with pytest.raises(BadParameter):
            ComplexMatrix([[np.inf, 0.0], [0.0, 1.0]])

    def test_entries_are_read_only(self):
        a = ComplexMatrix(np.eye(2))
        with pytest.raises(ValueError):
            a.array[0, 0] = 5.0

    def test_jordan_block_layout(self):
        j = linalg.jordan_block(3, 0.5j)
        want = np.diag([0.5j] * 3) + np.diag([1.0, 1.0], k=1)
        assert np.array_equal(j, want)


class TestSerialization:
    def test_round_trip(self, rng):
        a = random_matrix(rng, 3)
        again = families.matrix_from_dict(families.matrix_to_dict(a))
        assert np.array_equal(a, again)

    def test_accepts_raw_arrays(self, rng):
        raw = rng.normal(size=(2, 2)) + 0j
        data = families.matrix_to_dict(raw)
        assert data["dim"] == 2
        assert np.array_equal(families.matrix_from_dict(data), raw)

    def test_missing_key_names_path(self):
        with pytest.raises(SchemaError) as err:
            families.matrix_from_dict({"dim": 2, "re": [1, 0, 0, 1]}, path="/m")
        assert "im" in str(err.value)

    def test_wrong_length_rejected(self):
        with pytest.raises(SchemaError):
            families.matrix_from_dict({"dim": 2, "re": [1.0, 0.0], "im": [0.0, 0.0]})
