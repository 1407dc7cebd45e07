"""Equivalence, commuting, and quasinilpotence decision procedures."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import asymspec as ax
import oracles
from asymspec import families, linalg
from asymspec.brackets import RootClass
from asymspec.classify import VerdictKind, VerdictResult
from asymspec.errors import DimensionMismatch


def diag(entries):
    return ax.constant_family(np.diag(entries))


@pytest.fixture
def base_plus_h(rng):
    """(A, A + h*B) with diagonal A and full random B; equivalent by design."""
    a = np.diag([1.5, -2.0, 1.0, 0.8])
    b = 0.3 * (rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    sf = ax.constant_family(a)
    tf = ax.family_sum(sf, ax.h_scaled(ax.constant_family(b)))
    return sf, tf


class TestAsymptoticEquiv:
    def test_h_perturbation_holds(self, grid, base_plus_h):
        sf, tf = base_plus_h
        verdict = ax.asymptotic_equiv(sf, tf, grid)
        assert verdict.result is VerdictResult.HOLDS
        assert verdict.kind is VerdictKind.ASYMPTOTIC_EQUIV

    def test_constant_offset_fails(self, grid):
        verdict = ax.asymptotic_equiv(diag([1.0, 2.0]), diag([1.0, 2.5]), grid)
        assert verdict.result is VerdictResult.FAILS

    def test_swap_against_identity_fails(self, grid):
        # the all-ones vector is fixed by both, so the difference kills it
        swap = ax.constant_family(np.array([[0.0, 1.0], [1.0, 0.0]]))
        verdict = ax.asymptotic_equiv(swap, ax.constant_family(np.eye(2)), grid)
        assert verdict.result is VerdictResult.FAILS
        assert verdict.tail.value == pytest.approx(2.0, rel=1e-15)

    def test_reflexive(self, grid):
        f = ax.diag_family(["1", "2+h"])
        assert ax.asymptotic_equiv(f, f, grid).result is VerdictResult.HOLDS

    def test_symmetric(self, grid, base_plus_h):
        sf, tf = base_plus_h
        ab = ax.asymptotic_equiv(sf, tf, grid).result
        ba = ax.asymptotic_equiv(tf, sf, grid).result
        assert ab == ba == VerdictResult.HOLDS

    def test_dimension_mismatch(self, grid):
        with pytest.raises(DimensionMismatch):
            ax.asymptotic_equiv(diag([1.0]), diag([1.0, 2.0]), grid)


class TestAsymptoticCommuting:
    def test_diagonal_pair_commutes(self, grid):
        verdict = ax.asymptotic_commuting(diag([1.0, 2.0]), diag([3.0, 4.0]), grid)
        assert verdict.result is VerdictResult.HOLDS

    def test_transposed_nilpotents_fail(self, grid):
        up = ax.constant_family(linalg.jordan_block(2, 0.0))
        down = ax.constant_family(np.array([[0.0, 0.0], [1.0, 0.0]]))
        verdict = ax.asymptotic_commuting(up, down, grid)
        assert verdict.result is VerdictResult.FAILS
        # commutator of the two shift directions is diag(1,-1) at every h
        assert verdict.tail.value == pytest.approx(1.0)

    def test_equivalent_pairs_commute_asymptotically(self, grid, base_plus_h):
        sf, tf = base_plus_h
        assert ax.asymptotic_commuting(sf, tf, grid).result is VerdictResult.HOLDS

    def test_commutation_transfers_across_equivalence(self, grid, rng):
        # uf commutes with sf exactly; tf differs from sf by h*B, so the
        # uf-tf commutator inherits the h decay
        sf = diag([1.0, 2.0, 3.0])
        uf = diag([4.0, 5.0, 6.0])
        b = rng.normal(size=(3, 3)) + 0j
        tf = ax.family_sum(sf, ax.h_scaled(ax.constant_family(b)))
        assert ax.asymptotic_commuting(uf, tf, grid).result is VerdictResult.HOLDS


@st.composite
def vanishing_cases(draw):
    """A random pair at dims 2-8 (T against T + hR, or T against T + R), a
    grid (default, or with tail_window == count), and a tolerance: None, or
    a multiple of the full-grid tail value so both verdicts occur."""
    dim = draw(st.integers(2, 8))
    scale = 0.3 / np.sqrt(dim)
    tf = ax.random_family(dim, draw(st.integers(0, 2**31 - 1)), scale)
    rf = ax.random_family(dim, draw(st.integers(0, 2**31 - 1)), scale)
    sf = ax.family_sum(tf, ax.h_scaled(rf) if draw(st.booleans()) else rf)
    grid = draw(st.sampled_from([ax.geometric_grid(), ax.geometric_grid(1.0, 0.5, 6, 6)]))
    tol_factor = draw(st.sampled_from([None, 0.5, 1.0, 2.0]))
    return sf, tf, grid, tol_factor


def full_grid_vanishing_reference(stack, grid, tol_factor):
    """The verdict from norms at every grid sample, as computed before norms
    were restricted to the samples the verdict reads."""
    values = linalg.spectral_norms(stack)
    tail = oracles.tail_limsup(values, grid)
    tol = families.default_vanish_tol(values) if tol_factor is None else tol_factor * tail.value
    result = VerdictResult.HOLDS if ax.tail_vanishes(tail, tol) else VerdictResult.FAILS
    return tol, result, tail


class TestVanishingNormsWhereRead:
    @settings(max_examples=40, deadline=None)
    @given(vanishing_cases())
    def test_equals_full_grid_reference(self, case):
        sf, tf, grid, tol_factor = case
        sa, ta = families.family_pair_stacks(sf, tf, grid.samples)
        for classifier, kind, stack in (
            (ax.asymptotic_equiv, VerdictKind.ASYMPTOTIC_EQUIV, sa - ta),
            (ax.asymptotic_commuting, VerdictKind.ASYMPTOTIC_COMMUTING, sa @ ta - ta @ sa),
        ):
            tol, result, tail = full_grid_vanishing_reference(stack, grid, tol_factor)
            verdict = classifier(sf, tf, grid, tol=None if tol_factor is None else tol)
            assert verdict.kind is kind
            assert verdict.result is result
            assert verdict.tail == tail

    def test_default_tol_reads_the_first_sample(self, grid):
        # the tail (0.071) sits between the default tolerance taken at h = 1
        # (1e-4 * 1001) and one taken inside the window (about 1e-4 * 1.07)
        sf, tf = ax.diag_family(["1000*h + 0.01"]), ax.diag_family(["0"])
        sa, ta = families.family_pair_stacks(sf, tf, grid.samples)
        _, result, tail = full_grid_vanishing_reference(sa - ta, grid, None)
        verdict = ax.asymptotic_equiv(sf, tf, grid)
        assert verdict.result is result is VerdictResult.HOLDS
        assert verdict.tail == tail

    def test_norms_only_at_read_samples(self, grid, base_plus_h, monkeypatch):
        sf, tf = base_plus_h
        sizes = []
        norms = linalg.spectral_norms

        def counting(a):
            sizes.append(len(a))
            return norms(a)

        monkeypatch.setattr("asymspec.classify.spectral_norms", counting)
        ax.asymptotic_equiv(sf, tf, grid, tol=1e-3)
        assert sizes == [grid.tail_window]
        sizes.clear()
        ax.asymptotic_commuting(sf, tf, grid)
        assert sorted(sizes) == [1, grid.tail_window]


class TestQuasinilpotentEquiv:
    def test_commuting_nilpotent_difference_holds(self, grid):
        eye = np.eye(3)
        nil = linalg.jordan_block(3, 0.0)
        tf = ax.constant_family(eye)
        sf = ax.constant_family(eye + nil)
        verdict = ax.quasinilpotent_equiv(sf, tf, grid, n_max=10)
        assert verdict.result is VerdictResult.HOLDS
        assert verdict.both_directions

    def test_separated_scalars_fail_with_unit_roots(self, grid):
        verdict = ax.quasinilpotent_equiv(diag([1.0]), diag([2.0]), grid, n_max=10)
        assert verdict.result is VerdictResult.FAILS
        for seq in verdict.sequences:
            limit = ax.root_limit(seq, tol=1e-3)
            assert limit.classification is RootClass.POSITIVE
            assert limit.estimate == pytest.approx(1.0)

    def test_equivalent_diagonal_pairs_hold(self, grid, rng):
        # diagonal base plus diagonal h-bump: exactly commuting, so the
        # brackets collapse to powers of the h-scale difference
        base = np.diag(rng.normal(size=4))
        bump = np.diag(0.8 * rng.normal(size=4))
        sf = ax.constant_family(base)
        tf = ax.family_sum(sf, ax.h_scaled(ax.constant_family(bump)))
        equiv = ax.asymptotic_equiv(sf, tf, grid)
        qequiv = ax.quasinilpotent_equiv(sf, tf, grid, n_max=10)
        assert equiv.result is VerdictResult.HOLDS
        assert qequiv.result is VerdictResult.HOLDS

    def test_direction_symmetric(self, grid):
        eye = np.eye(3)
        nil = linalg.jordan_block(3, 0.0)
        tf = ax.constant_family(eye)
        sf = ax.constant_family(eye + nil)
        st = ax.quasinilpotent_equiv(sf, tf, grid, n_max=10).result
        ts = ax.quasinilpotent_equiv(tf, sf, grid, n_max=10).result
        assert st == ts == VerdictResult.HOLDS


class TestTransitivity:
    @pytest.fixture
    def triple(self, rng):
        a = np.diag(rng.normal(size=4))
        b = np.diag(0.8 * rng.normal(size=4))
        c = np.diag(0.8 * rng.normal(size=4))
        fa = ax.constant_family(a)
        fb = ax.family_sum(fa, ax.h_scaled(ax.constant_family(b)))
        fc = ax.family_sum(fb, ax.h_scaled(ax.constant_family(c)))
        return fa, fb, fc

    def test_asymptotic_equiv_chain(self, grid, triple):
        fa, fb, fc = triple
        assert ax.asymptotic_equiv(fa, fb, grid).result is VerdictResult.HOLDS
        assert ax.asymptotic_equiv(fb, fc, grid).result is VerdictResult.HOLDS
        assert ax.asymptotic_equiv(fa, fc, grid).result is VerdictResult.HOLDS

    def test_quasinilpotent_equiv_chain(self, grid, triple):
        fa, fb, fc = triple
        assert ax.quasinilpotent_equiv(fa, fb, grid, n_max=10).result is VerdictResult.HOLDS
        assert ax.quasinilpotent_equiv(fb, fc, grid, n_max=10).result is VerdictResult.HOLDS
        assert ax.quasinilpotent_equiv(fa, fc, grid, n_max=10).result is VerdictResult.HOLDS


class TestBoundednessTransfer:
    def test_equivalent_family_stays_bounded(self, grid, base_plus_h):
        sf, tf = base_plus_h
        verdict = ax.asymptotic_equiv(sf, tf, grid)
        assert verdict.result is VerdictResult.HOLDS
        bound_s = max(linalg.operator_norm(ax.family_eval(sf, h).array) for h in grid.samples)
        bound_t = max(linalg.operator_norm(ax.family_eval(tf, h).array) for h in grid.samples)
        assert bound_t <= 2.0 * bound_s + verdict.tail.value


class TestSingleFamilyQuasinilpotence:
    def test_nilpotent_block_holds(self, grid):
        verdict = ax.is_asymptotic_quasinilpotent(ax.jordan_family(4, 0.0), grid, n_max=10)
        assert verdict.result is VerdictResult.HOLDS
        assert verdict.kind is VerdictKind.QUASINILPOTENT_SINGLE
        assert not verdict.both_directions

    def test_scalar_half_fails_with_half_roots(self, grid):
        verdict = ax.is_asymptotic_quasinilpotent(diag([0.5]), grid, n_max=10)
        assert verdict.result is VerdictResult.FAILS
        limit = ax.root_limit(verdict.sequences[0], tol=1e-3)
        assert limit.classification is RootClass.POSITIVE
        assert limit.estimate == pytest.approx(0.5)


class TestStability:
    @pytest.fixture
    def nilpotent_pair(self):
        eye = np.eye(3)
        nil = linalg.jordan_block(3, 0.0)
        tf = ax.constant_family(eye)
        sf = ax.constant_family(eye + nil)
        return sf, tf

    def test_additive_perturbation_preserves_equivalence(self, grid, nilpotent_pair):
        sf, tf = nilpotent_pair
        af = ax.jordan_family(3, 0.4)
        shifted_s = ax.family_sum(sf, af)
        shifted_t = ax.family_sum(tf, af)
        verdict = ax.quasinilpotent_equiv(shifted_s, shifted_t, grid, n_max=10)
        assert verdict.result is VerdictResult.HOLDS

    def test_commuting_factor_preserves_equivalence(self, grid, nilpotent_pair):
        # any polynomial in the same Jordan block commutes with both members
        sf, tf = nilpotent_pair
        nil = linalg.jordan_block(3, 0.0)
        factor = 0.7 * np.eye(3) + 0.3 * nil
        af = ax.constant_family(factor)
        scaled_s = ax.family_product(sf, af)
        scaled_t = ax.family_product(tf, af)
        verdict = ax.quasinilpotent_equiv(scaled_s, scaled_t, grid, n_max=10)
        assert verdict.result is VerdictResult.HOLDS


class TestExploratoryPair:
    def test_bracket_equivalence_without_commutator_transfer(self, grid):
        # (0, J2(0)) are quasinilpotent equivalent, yet a diagonal family
        # that commutes with the zero member does not asymptotically commute
        # with the other; the two notions genuinely differ
        zero = ax.constant_family(np.zeros((2, 2)))
        shift = ax.constant_family(linalg.jordan_block(2, 0.0))
        witness = diag([1.0, 2.0])
        assert ax.quasinilpotent_equiv(zero, shift, grid, n_max=10).result is VerdictResult.HOLDS
        assert ax.asymptotic_commuting(zero, witness, grid).result is VerdictResult.HOLDS
        assert ax.asymptotic_commuting(shift, witness, grid).result is VerdictResult.FAILS


class TestVerdictSerialization:
    def test_tail_evidence_shape(self, grid, base_plus_h):
        sf, tf = base_plus_h
        data = ax.verdict_to_dict(ax.asymptotic_equiv(sf, tf, grid))
        assert set(data) == {"kind", "result", "both_directions", "evidence_summary"}
        assert data["kind"] == "asymptotic_equiv"
        assert data["result"] == "holds"
        tail = data["evidence_summary"]["tail"]
        assert set(tail) == {"value", "trend", "window_values"}
        assert len(tail["window_values"]) == grid.tail_window

    def test_sequence_evidence_shape(self, grid):
        verdict = ax.quasinilpotent_equiv(diag([1.0]), diag([2.0]), grid, n_max=10)
        data = ax.verdict_to_dict(verdict)
        seqs = data["evidence_summary"]["root_sequences"]
        assert len(seqs) == 2
        assert all(len(entry["roots"]) == 10 for entry in seqs)
