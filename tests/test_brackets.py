"""The bracket operation, its identities, and root-sequence classification."""

import math
import warnings
from itertools import islice

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import asymspec as ax
import oracles
from asymspec import brackets, families, linalg
from asymspec.brackets import BracketSequence, RootClass
from asymspec.errors import BadParameter, DimensionMismatch, LengthMismatch, OutOfRange
from asymspec.verification import (
    _binom as binom,
    _bracket_compose_check as bracket_compose_check,
    _bracket_direct as bracket_direct,
    _commuting_collapse_residual as commuting_collapse_residual,
    _matrix_power as matrix_power,
)


def random_matrix(rng, dim, scale=1.0):
    data = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return scale * data


class TestBinom:
    def test_small_value(self):
        assert binom(5, 2) == 10

    def test_left_edge(self):
        for n in (0, 1, 7, 60):
            assert binom(n, 0) == 1

    def test_matches_pascal_triangle(self):
        for n in (10, 31, 60):
            for k in range(0, n + 1, 5):
                assert binom(n, k) == oracles.pascal_binom(n, k)

    def test_out_of_range(self):
        with pytest.raises(OutOfRange):
            binom(61, 3)
        with pytest.raises(OutOfRange):
            binom(5, 6)
        with pytest.raises(OutOfRange):
            binom(5, -1)


class TestBracketDirect:
    def test_order_zero_is_identity(self, rng):
        t = random_matrix(rng, 3)
        s = random_matrix(rng, 3)
        assert np.array_equal(bracket_direct(t, s, 0), np.eye(3))

    def test_order_one_is_difference(self, rng):
        t = random_matrix(rng, 3)
        s = random_matrix(rng, 3)
        got = bracket_direct(t, s, 1)
        assert np.allclose(got, t - s)

    def test_commuting_pair_collapses_to_power(self):
        t = np.diag([3.0, 4.0])
        s = np.diag([1.0, 1.0])
        got = bracket_direct(t, s, 3)
        assert np.allclose(got, np.diag([8.0, 27.0]))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            bracket_direct(np.eye(2), np.eye(3), 1)

    def test_order_cap(self, rng):
        t = random_matrix(rng, 2)
        with pytest.raises(OutOfRange):
            bracket_direct(t, t, 61)


class TestBracketRecurrence:
    def test_matches_direct_sum(self, rng):
        for _ in range(10):
            t = random_matrix(rng, 4, scale=0.6)
            s = random_matrix(rng, 4, scale=0.6)
            for n, a in zip(range(0, 11), brackets.iter_brackets(t, s)):
                b = bracket_direct(t, s, n)
                scale = (1.0 + np.abs(t).max() + np.abs(s).max()) ** max(n, 1)
                assert np.abs(a - b).max() <= 1e-9 * scale

    def test_nilpotent_square_against_zero(self):
        t = linalg.jordan_block(2, 0.0)
        s = np.zeros((2, 2))
        assert np.abs(next(islice(brackets.iter_brackets(t, s), 2, None))).max() == 0.0

    def test_order_one_is_difference(self, rng):
        t = random_matrix(rng, 3)
        s = random_matrix(rng, 3)
        got = next(islice(brackets.iter_brackets(t, s), 1, None))
        assert np.allclose(got, t - s)


class TestComposeIdentity:
    def test_midpoint_equal_to_s_collapses(self, rng):
        t = random_matrix(rng, 3, scale=0.7)
        s = random_matrix(rng, 3, scale=0.7)
        scale = (1.0 + np.abs(t).max() + 2.0 * np.abs(s).max()) ** 4
        assert bracket_compose_check(t, s, s, 4) <= 1e-10 * scale

    def test_random_triple(self, rng):
        t = random_matrix(rng, 3, scale=0.7)
        s = random_matrix(rng, 3, scale=0.7)
        p = random_matrix(rng, 3, scale=0.7)
        scale = (1.0 + np.abs(t).max() + np.abs(s).max() + 2.0 * np.abs(p).max()) ** 4
        assert bracket_compose_check(t, s, p, 4) <= 1e-9 * scale

    def test_order_one_exact(self, rng):
        t = random_matrix(rng, 3)
        s = random_matrix(rng, 3)
        p = random_matrix(rng, 3)
        assert bracket_compose_check(t, s, p, 1) <= 1e-12

    def test_order_cap(self, rng):
        t = random_matrix(rng, 2)
        with pytest.raises(OutOfRange):
            bracket_compose_check(t, t, t, 31)


class TestSwapIdentity:
    def test_swap_with_commutator_correction(self, rng):
        # (T-S)^[n] = (-1)^n (S-T)^[n]
        #             + sum_k (-1)^(n-k) C(n,k) (T^k S^(n-k) - S^(n-k) T^k)
        for n in range(0, 7):
            t = random_matrix(rng, 3, scale=0.7)
            s = random_matrix(rng, 3, scale=0.7)
            rhs = (-1.0) ** n * bracket_direct(s, t, n)
            for k in range(0, n + 1):
                tk = matrix_power(t, k)
                sk = matrix_power(s, n - k)
                coeff = ((-1.0) ** (n - k)) * binom(n, k)
                rhs = rhs + coeff * (tk @ sk - sk @ tk)
            lhs = bracket_direct(t, s, n)
            scale = (1.0 + np.abs(t).max() + np.abs(s).max()) ** max(n, 1)
            assert np.abs(lhs - rhs).max() <= 1e-9 * scale


class TestCommutingCollapse:
    def test_diagonal_pairs_collapse(self, rng):
        for n in range(0, 11):
            t = np.diag(rng.normal(size=4) + 1j * rng.normal(size=4))
            s = np.diag(rng.normal(size=4) + 1j * rng.normal(size=4))
            scale = (1.0 + np.abs(t).max() + np.abs(s).max()) ** max(n, 1)
            assert commuting_collapse_residual(t, s, n) <= 1e-9 * scale

    def test_noncommuting_pair_does_not(self):
        t = linalg.jordan_block(2, 0.0)
        s = np.array([[0.0, 0.0], [1.0, 0.0]])
        assert commuting_collapse_residual(t, s, 2) > 0.1


class TestBracketSequence:
    def test_equal_families_give_zero_norms(self, coarse_grid):
        f = ax.diag_family(["1", "2+h"])
        seq = ax.bracket_sequence(f, f, coarse_grid, n_max=10)
        assert list(seq.norms) == [0.0] * 10

    def test_commuting_nilpotent_truncates_at_index(self, coarse_grid):
        eye = np.eye(3)
        nil = linalg.jordan_block(3, 0.0)
        tf = ax.constant_family(eye)
        sf = ax.constant_family(eye + nil)
        seq = ax.bracket_sequence(sf, tf, coarse_grid, n_max=10)
        assert seq.norms[0] == pytest.approx(1.0)
        assert seq.norms[1] == pytest.approx(1.0)
        assert list(seq.norms[2:]) == [0.0] * 8

    def test_identity_difference_keeps_unit_norms(self, coarse_grid):
        sf = ax.constant_family(np.diag([1.0, 1.0]))
        tf = ax.constant_family(np.diag([2.0, 2.0]))
        seq = ax.bracket_sequence(sf, tf, coarse_grid, n_max=10)
        assert np.allclose(seq.norms, 1.0)
        assert np.allclose(seq.roots, 1.0)

    def test_roots_are_nth_roots(self, coarse_grid, rng):
        sf = ax.constant_family(random_matrix(rng, 3, scale=0.5))
        tf = ax.constant_family(random_matrix(rng, 3, scale=0.5))
        seq = ax.bracket_sequence(sf, tf, coarse_grid, n_max=8)
        for n in range(1, 9):
            want = seq.norms[n - 1] ** (1.0 / n) if seq.norms[n - 1] > 0 else 0.0
            assert seq.roots[n - 1] == pytest.approx(want)

    def test_order_cap(self, coarse_grid):
        f = ax.diag_family(["h"])
        with pytest.raises(OutOfRange):
            ax.bracket_sequence(f, f, coarse_grid, n_max=41)


@st.composite
def random_pairs(draw):
    """T against T + hR for random T and R at dims 2-8, on the default or a deep grid."""
    dim = draw(st.integers(2, 8))
    scale = 0.3 / np.sqrt(dim)
    tf = ax.random_family(dim, draw(st.integers(0, 2**31 - 1)), scale)
    rf = ax.random_family(dim, draw(st.integers(0, 2**31 - 1)), scale)
    sf = ax.family_sum(tf, ax.h_scaled(rf))
    grid = draw(st.sampled_from([ax.geometric_grid(), ax.geometric_grid(1.0, 0.5, 36, 6)]))
    return (sf, tf, grid) if draw(st.booleans()) else (tf, sf, grid)


class TestWindowOnlySequence:
    @settings(max_examples=30, deadline=None)
    @given(random_pairs())
    def test_equals_full_grid_reference(self, pair):
        sf, tf, grid = pair
        sa, ta = families.family_pair_stacks(sf, tf, grid.samples)
        orders = islice(brackets.iter_brackets(sa, ta), 1, 25)
        want = tuple(oracles.tail_limsup(linalg.spectral_norms(b), grid).value for b in orders)
        seq = ax.bracket_sequence(sf, tf, grid, n_max=24)
        assert seq.norms == want
        assert seq.roots == tuple(a ** (1.0 / n) for n, a in enumerate(want, start=1))

    def test_stacks_of_another_length_are_refused(self, coarse_grid):
        fam = ax.jordan_family(2, 0.0)
        grid_stack = families.family_eval_stack(fam, coarse_grid.samples)
        window_stack = families.family_eval_stack(fam, coarse_grid.window_samples)
        for sa, ta in ((grid_stack, grid_stack), (window_stack, grid_stack[:-1])):
            with pytest.raises(LengthMismatch):
                brackets.stack_bracket_sequence(sa, ta, coarse_grid, 8)


class TestPowerNormSequence:
    def test_equals_the_bracket_against_the_zero_family(self, coarse_grid):
        fam = ax.family_sum(ax.jordan_family(3, 0.2), ax.h_scaled(ax.random_family(3, 5)))
        zero = ax.constant_family(np.zeros((3, 3)))
        assert ax.power_norm_sequence(fam, coarse_grid, 12) == ax.bracket_sequence(
            fam, zero, coarse_grid, 12
        )

    def test_nilpotent_powers_vanish(self, coarse_grid):
        seq = ax.power_norm_sequence(ax.jordan_family(4, 0.0), coarse_grid, n_max=10)
        assert all(v == 0.0 for v in seq.norms[3:])
        assert seq.norms[0] == pytest.approx(1.0)

    def test_scalar_family_keeps_scale(self, coarse_grid):
        seq = ax.power_norm_sequence(
            ax.constant_family(np.diag([0.5])), coarse_grid, n_max=10
        )
        assert np.allclose(seq.norms, [0.5 ** n for n in range(1, 11)])
        assert np.allclose(seq.roots, 0.5)

    def test_norms_past_the_float_range_keep_finite_roots(self, coarse_grid):
        # 1e20^n leaves the float range at n = 16; its n-th root stays 1e20
        fam = ax.constant_family(np.diag([1e20, 3e19]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            seq = ax.power_norm_sequence(fam, coarse_grid, n_max=24)
        assert np.allclose(seq.roots, 1e20, rtol=1e-12, atol=0.0)
        assert np.allclose(seq.norms[:15], [1e20**n for n in range(1, 16)], rtol=1e-12, atol=0.0)
        assert seq.norms[15:] == (math.inf,) * 9


class TestRootLimit:
    def test_truncating_sequence_is_zero(self, coarse_grid):
        seq = ax.power_norm_sequence(ax.jordan_family(4, 0.0), coarse_grid, n_max=10)
        verdict = ax.root_limit(seq, tol=1e-3)
        assert verdict.classification is RootClass.ZERO

    def test_constant_roots_are_positive(self):
        seq = BracketSequence(n_max=10, norms=[1.0] * 10, roots=[1.0] * 10)
        verdict = ax.root_limit(seq, tol=1e-3)
        assert verdict.classification is RootClass.POSITIVE
        assert verdict.estimate == pytest.approx(1.0)

    def test_alternating_roots_are_inconclusive(self):
        roots = [0.1, 1.0] * 5
        seq = BracketSequence(n_max=10, norms=[r ** 2 for r in roots], roots=roots)
        assert ax.root_limit(seq, tol=1e-3).classification is RootClass.INCONCLUSIVE

    def test_short_sequence_rejected(self):
        seq = BracketSequence(n_max=6, norms=[0.0] * 6, roots=[0.0] * 6)
        with pytest.raises(BadParameter):
            ax.root_limit(seq, tol=1e-3)

    def test_growing_tail_not_classified_zero(self):
        # all below tol but clearly trending up: must not come out ZERO
        roots = [0.0] * 6 + [1e-6, 2e-6, 4e-6, 8e-6]
        seq = BracketSequence(n_max=10, norms=list(roots), roots=roots)
        assert ax.root_limit(seq, tol=1e-3).classification is not RootClass.ZERO

