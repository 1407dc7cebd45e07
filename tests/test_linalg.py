"""Matrix ring operations, LAPACK inversion, and the spectral norm."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from asymspec import linalg
from asymspec.errors import BadParameter, DimensionMismatch, OutOfRange, SchemaError
from asymspec.linalg import ComplexMatrix


def random_matrix(rng, dim, scale=1.0):
    data = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return ComplexMatrix(scale * data)


def rel_gap(a: ComplexMatrix, b: ComplexMatrix) -> float:
    scale = 1.0 + linalg.max_abs(a) + linalg.max_abs(b)
    return linalg.max_abs(linalg.sub(a, b)) / scale


class TestRingOps:
    def test_nilpotent_block_squares_to_zero(self):
        j = linalg.jordan_block(2, 0.0).array
        assert np.abs(j @ j).max() == 0.0

    def test_mismatched_dims_rejected(self):
        with pytest.raises(DimensionMismatch):
            linalg.sub(ComplexMatrix.identity(2), ComplexMatrix.identity(3))


class TestMatrixPower:
    def test_zeroth_power_is_identity(self, rng):
        a = random_matrix(rng, 4)
        assert np.array_equal(linalg.matrix_power(a, 0).array, np.eye(4))

    def test_nilpotent_cube_vanishes(self):
        j = linalg.jordan_block(3, 0.0)
        assert linalg.max_abs(linalg.matrix_power(j, 3)) == 0.0

    def test_diagonal_powers(self):
        a = ComplexMatrix.diagonal([2.0, 3.0])
        got = linalg.matrix_power(a, 5)
        assert np.allclose(got.array, np.diag([32.0, 243.0]))

    def test_power_addition_law(self, rng):
        for m, n in [(2, 3), (1, 4), (0, 5), (3, 3)]:
            a = random_matrix(rng, 4, scale=0.7)
            combined = linalg.matrix_power(a, m + n)
            split = ComplexMatrix(linalg.matrix_power(a, m).array @ linalg.matrix_power(a, n).array)
            assert rel_gap(combined, split) <= 1e-10

    def test_negative_exponent_rejected(self):
        with pytest.raises(OutOfRange):
            linalg.matrix_power(ComplexMatrix.identity(2), -1)


class TestSolveInverse:
    def test_identity_inverts_to_itself(self):
        inv = linalg.solve_inverse(ComplexMatrix.identity(4))
        assert inv is not None
        assert np.allclose(inv.matrix.array, np.eye(4))
        assert inv.residual <= 1e-12

    def test_nilpotent_block_is_singular(self):
        assert linalg.solve_inverse(linalg.jordan_block(2, 0.0)) is None

    def test_diagonal_reciprocal(self):
        inv = linalg.solve_inverse(ComplexMatrix.diagonal([1.0, 2.0]))
        assert inv is not None
        assert np.allclose(inv.matrix.array, np.diag([1.0, 0.5]))

    def test_reported_residual_matches_product(self, rng):
        for _ in range(5):
            a = random_matrix(rng, 4)
            inv = linalg.solve_inverse(a)
            assert inv is not None
            recomputed = np.abs(a.array @ inv.matrix.array - np.eye(4)).max()
            assert inv.residual == recomputed
            assert inv.residual <= 1e-9

    def test_pivot_threshold_is_relative(self):
        # 1e-10 is far above the 1e-14 relative cutoff; 1e-20 is far below.
        assert linalg.solve_inverse(ComplexMatrix.diagonal([1.0, 1e-10])) is not None
        assert linalg.solve_inverse(ComplexMatrix.diagonal([1.0, 1e-20])) is None

    def test_stack_marks_singular_members(self, rng):
        good = random_matrix(rng, 3).array
        stack = np.stack([good, linalg.jordan_block(3, 0.0).array, 2.0 * good])
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
        stack = np.stack([random_matrix(rng, 6).array for _ in range(20)])
        want_inv, _ = oracles.svd_rule_inverse_stack(stack)

        def no_svd(*args, **kwargs):
            raise AssertionError("inverse_stack took an SVD")

        monkeypatch.setattr(linalg.np.linalg, "svd", no_svd)
        inv, singular = linalg.inverse_stack(stack)
        assert not singular.any()
        assert np.array_equal(inv, want_inv)


class TestOperatorNorm:
    def test_diagonal_norm_is_largest_magnitude(self):
        assert abs(linalg.operator_norm(ComplexMatrix.diagonal([1.0, -3.0])) - 3.0) <= 1e-12

    def test_zero_matrix_has_zero_norm(self):
        assert linalg.operator_norm(ComplexMatrix.zeros(3)) == 0.0

    def test_matches_jacobi_gram_oracle(self, rng):
        a = random_matrix(rng, 5)
        want = oracles.spectral_norm_oracle(a.array.tolist())
        got = linalg.operator_norm(a)
        assert abs(got - want) <= 1e-9 * want

    def test_small_dims_match_oracle(self, rng):
        for dim in (1, 2, 3, 4):
            for _ in range(4):
                a = random_matrix(rng, dim)
                want = oracles.spectral_norm_oracle(a.array.tolist())
                assert abs(linalg.operator_norm(a) - want) <= 1e-9 * (1.0 + want)

    def test_submultiplicative(self, rng):
        for _ in range(8):
            a = random_matrix(rng, 4)
            b = random_matrix(rng, 4)
            lhs = linalg.operator_norm(a.array @ b.array)
            assert lhs <= (1 + 1e-9) * linalg.operator_norm(a) * linalg.operator_norm(b)

    def test_adjoint_preserves_norm(self, rng):
        for _ in range(5):
            a = random_matrix(rng, 4)
            na = linalg.operator_norm(a)
            assert abs(linalg.operator_norm(a.array.conj().T) - na) <= 1e-10 * na

    def test_repeated_top_value_is_exact(self):
        assert linalg.operator_norm(ComplexMatrix.diagonal([2.0, 2.0])) == pytest.approx(
            2.0, rel=1e-15
        )

    def test_near_tie_is_exact(self):
        # a relative gap of 1e-5 between the top two singular values
        got = linalg.operator_norm(ComplexMatrix.diagonal([1.0, 1.0 + 1e-5]))
        assert got == pytest.approx(1.0 + 1e-5, rel=1e-15)

    def test_top_singular_vector_orthogonal_to_ones(self):
        # the all-ones vector spans the kernel of this matrix
        a = ComplexMatrix([[-1.0, 1.0], [1.0, -1.0]])
        assert linalg.operator_norm(a) == pytest.approx(2.0, rel=1e-15)
        assert oracles.spectral_norm_oracle(a.array.tolist()) == pytest.approx(2.0, rel=1e-15)

    def test_tiny_matrix_does_not_underflow(self):
        a = ComplexMatrix(1e-100 * np.eye(3))
        want = pytest.approx(1e-100, rel=1e-15, abs=0.0)
        assert linalg.operator_norm(a) == want
        assert oracles.spectral_norm_oracle(a.array.tolist()) == want

    def test_stack_norms_match_single_norms(self, rng):
        stack = np.stack([random_matrix(rng, 3).array for _ in range(5)])
        got = linalg.spectral_norms(stack)
        assert got.shape == (5,)
        for a, norm in zip(stack, got):
            assert norm == pytest.approx(oracles.spectral_norm_oracle(a.tolist()), rel=1e-12)

    def test_non_finite_member_has_infinite_norm(self):
        stack = np.stack([np.eye(2), np.full((2, 2), np.nan)]).astype(np.complex128)
        assert list(linalg.spectral_norms(stack)) == [1.0, np.inf]


class TestConstruction:
    def test_rejects_nonsquare(self):
        with pytest.raises(BadParameter):
            ComplexMatrix([[1.0, 2.0]])

    def test_rejects_nonfinite(self):
        with pytest.raises(BadParameter):
            ComplexMatrix([[np.inf, 0.0], [0.0, 1.0]])

    def test_entries_are_read_only(self):
        a = ComplexMatrix.identity(2)
        with pytest.raises(ValueError):
            a.array[0, 0] = 5.0

    def test_jordan_block_layout(self):
        j = linalg.jordan_block(3, 0.5j)
        want = np.diag([0.5j] * 3) + np.diag([1.0, 1.0], k=1)
        assert np.array_equal(j.array, want)


class TestSerialization:
    def test_round_trip(self, rng):
        a = random_matrix(rng, 3)
        again = linalg.matrix_from_dict(linalg.matrix_to_dict(a))
        assert np.array_equal(a.array, again.array)

    def test_accepts_raw_arrays(self, rng):
        raw = rng.normal(size=(2, 2)) + 0j
        data = linalg.matrix_to_dict(raw)
        assert data["dim"] == 2
        assert np.array_equal(linalg.matrix_from_dict(data).array, raw)

    def test_missing_key_names_path(self):
        with pytest.raises(SchemaError) as err:
            linalg.matrix_from_dict({"dim": 2, "re": [1, 0, 0, 1]}, path="/m")
        assert "im" in str(err.value)

    def test_wrong_length_rejected(self):
        with pytest.raises(SchemaError):
            linalg.matrix_from_dict({"dim": 2, "re": [1.0, 0.0], "im": [0.0, 0.0]})
