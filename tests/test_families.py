"""Sampling grids, family evaluation, and the tail limit estimator."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import asymspec as ax
import oracles
from asymspec import families, linalg
from asymspec.errors import (
    BadParameter,
    DimensionMismatch,
    ExprError,
    LengthMismatch,
    SchemaError,
    TraceError,
)
from asymspec.exprs import parse_expr
from asymspec.families import Trend
from asymspec.funcalc import ContourSpec, expr_function
from asymspec.linalg import ComplexMatrix


class TestGeometricGrid:
    def test_half_ratio_samples(self):
        g = ax.geometric_grid(1.0, 0.5, 4, 2)
        assert g.samples == (1.0, 0.5, 0.25, 0.125)
        assert g.window_samples == (0.25, 0.125)

    def test_tenth_ratio_samples(self):
        g = ax.geometric_grid(0.5, 0.1, 5, 3)
        assert np.allclose(g.samples, [0.5, 0.05, 0.005, 5e-4, 5e-5])

    def test_unit_ratio_rejected(self):
        with pytest.raises(BadParameter):
            ax.geometric_grid(1.0, 1.0, 6, 3)

    def test_short_grid_rejected(self):
        with pytest.raises(BadParameter):
            ax.geometric_grid(1.0, 0.5, 3, 2)

    def test_window_cannot_exceed_count(self):
        with pytest.raises(BadParameter):
            ax.geometric_grid(1.0, 0.5, 6, 7)

    def test_h0_above_one_rejected(self):
        with pytest.raises(BadParameter):
            ax.geometric_grid(1.5, 0.5, 6, 3)


class TestFamilyEval:
    def test_diag_expressions_substitute_h(self):
        f = ax.diag_family(["1", "2+h"])
        got = ax.family_eval(f, 0.25)
        assert np.allclose(got.array, np.diag([1.0, 2.25]))

    def test_h_scaled_multiplies(self, rng):
        a = ComplexMatrix(rng.normal(size=(3, 3)) + 0j)
        f = ax.h_scaled(ax.constant_family(a))
        assert np.allclose(ax.family_eval(f, 0.5).array, 0.5 * a.array)

    def test_seeded_random_is_deterministic(self):
        f = ax.random_family(3, seed=7, scale=1.0)
        once = ax.family_eval(f, 0.5).array
        again = ax.family_eval(f, 0.5).array
        assert np.array_equal(once, again)

    def test_sum_matches_ring_add_exactly(self, rng):
        a = ax.constant_family(ComplexMatrix(rng.normal(size=(2, 2)) + 0j))
        b = ax.random_family(2, seed=3, scale=0.5)
        total = ax.family_sum(a, b)
        for h in (1.0, 0.5, 0.125):
            want = ax.family_eval(a, h).array + ax.family_eval(b, h).array
            assert np.array_equal(ax.family_eval(total, h).array, want)

    def test_product_matches_ring_mul(self, rng):
        a = ax.constant_family(ComplexMatrix(rng.normal(size=(2, 2)) + 0j))
        b = ax.jordan_family(2, 0.5)
        prod = ax.family_product(a, b)
        want = ax.family_eval(a, 0.25).array @ ax.family_eval(b, 0.25).array
        assert np.array_equal(ax.family_eval(prod, 0.25).array, want)

    def test_jordan_family_is_constant_block(self):
        f = ax.jordan_family(3, 0.8)
        assert np.array_equal(ax.family_eval(f, 0.3).array, linalg.jordan_block(3, 0.8).array)

    def test_h_out_of_range_rejected(self):
        f = ax.diag_family(["h"])
        for h in (0.0, -0.5, 1.5):
            with pytest.raises(BadParameter):
                ax.family_eval(f, h)

    def test_failing_entry_reports_expression_and_h(self):
        f = ax.diag_family(["1/(h-h)"])
        with pytest.raises(ExprError) as err:
            ax.family_eval(f, 0.5)
        assert "h=0.5" in str(err.value)

    def test_mixed_dims_rejected(self):
        with pytest.raises(DimensionMismatch):
            ax.family_sum(ax.diag_family(["1"]), ax.diag_family(["1", "2"]))

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning")
    def test_overflowing_value_reports_h(self):
        # each factor is finite; their product overflows
        huge = ax.random_family(2, seed=1, scale=1e200)
        with pytest.raises(TraceError) as err:
            ax.family_eval(ax.family_product(huge, huge), 0.5)
        assert err.value.h == 0.5


class TestScalarTrace:
    def test_zero_difference_trace(self, coarse_grid):
        f = ax.diag_family(["h", "1"])
        values = [
            linalg.max_abs(linalg.sub(ax.family_eval(f, h), ax.family_eval(f, h)))
            for h in coarse_grid.samples
        ]
        assert values == [0.0] * coarse_grid.count

    def test_diag_h_norm_equals_samples(self, coarse_grid):
        f = ax.diag_family(["h"])
        values = [linalg.operator_norm(ax.family_eval(f, h)) for h in coarse_grid.samples]
        assert np.allclose(values, coarse_grid.samples, rtol=1e-12)


# Random recipe trees: every node kind, depth <= 3, moderate entries so that
# products of products stay finite.
ENTRIES = ["1", "2+h", "h^2 - 3*h", "exp(h)", "(1+2*h)/(3-h)", "-h*exp(-2i*h)", "0.5i"]
DEFAULT_GRID = ax.geometric_grid()
LONG_GRID = ax.geometric_grid(count=36)


def leaves(dim):
    def constant(seed):
        rng = np.random.default_rng(seed)
        return ax.constant_family(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))

    def random(seed, scale):
        return ax.random_family(dim, seed, scale)

    return st.one_of(
        st.integers(0, 2**16).map(constant),
        st.complex_numbers(max_magnitude=2.0).map(lambda z: ax.jordan_family(dim, z)),
        st.lists(st.sampled_from(ENTRIES), min_size=dim, max_size=dim).map(ax.diag_family),
        st.builds(random, st.integers(0, 2**16), st.floats(0.1, 1.0)),
    )


def trees(dim, depth=3):
    if depth == 0:
        return leaves(dim)
    sub = trees(dim, depth - 1)
    children = st.lists(sub, min_size=1, max_size=3)
    return st.one_of(
        leaves(dim),
        sub.map(ax.h_scaled),
        children.map(lambda c: ax.family_sum(*c)),
        children.map(lambda c: ax.family_product(*c)),
    )


@st.composite
def families_and_samples(draw):
    spec = draw(st.integers(1, 6).flatmap(trees))
    hs = draw(
        st.one_of(
            st.just(DEFAULT_GRID.samples),
            st.just(LONG_GRID.samples),
            st.lists(st.sampled_from(DEFAULT_GRID.samples), min_size=1, max_size=25),
            st.lists(st.floats(0.0, 1.0, exclude_min=True), min_size=1, max_size=12),
        )
    )
    if draw(st.booleans()):
        # a functional-calculus image; the circle clears every inner value's norm
        radius = 1.0 + max(linalg.operator_norm(oracles.node_at(spec.node, h)) for h in hs)
        # exp of a far-out node would overflow
        funcs = ["z^2", "z - 1"] + (["exp(z)"] if radius <= 20.0 else [])
        f = expr_function(parse_expr(draw(st.sampled_from(funcs))))
        spec = ax.family_funcalc(spec, f, ContourSpec(0j, radius, 64))
    return spec, hs


class TestStackedEvaluation:
    @settings(max_examples=150, deadline=None)
    @given(families_and_samples())
    def test_stack_is_the_per_sample_recursion_bit_for_bit(self, case):
        spec, hs = case
        got = families.family_eval_stack(spec, hs)
        assert got.shape == (len(hs), spec.dim, spec.dim)
        assert np.array_equal(got, oracles.family_eval_per_sample(spec, hs))

    def test_h_outside_range_names_first_bad_h(self):
        f = ax.diag_family(["h"])
        for hs, bad in [((0.5, 1.5, 0.0), "1.5"), ((0.25, 0.0), "0.0"), ((-0.5,), "-0.5")]:
            with pytest.raises(BadParameter) as err:
                families.family_eval_stack(f, hs)
            assert str(err.value).endswith(f"got {bad}")

    def test_expression_overflow_keeps_type_and_h(self):
        # exp(100), exp(500) are finite; exp(1000) overflows at the third h
        f = ax.diag_family(["1", "exp(1000*h)"])
        hs = (0.1, 0.5, 1.0, 0.7)
        for evaluate in (families.family_eval_stack, oracles.family_eval_per_sample):
            with pytest.raises(ExprError) as err:
                evaluate(f, hs)
            assert "entry 1 ('exp(1000*h)') at h=1.0:" in str(err.value)

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning")
    def test_product_overflow_keeps_type_and_h(self):
        huge = ax.family_product(
            ax.random_family(2, seed=1, scale=1e200), ax.random_family(2, seed=2, scale=1e200)
        )
        for evaluate in (families.family_eval_stack, oracles.family_eval_per_sample):
            with pytest.raises(TraceError) as err:
                evaluate(huge, (0.25, 0.5))
            assert err.value.h == 0.25


class TestTailLimsup:
    def test_monotone_trace_decreasing(self, coarse_grid):
        values = [2.0 + h for h in coarse_grid.samples]
        est = families.tail_limsup(values, coarse_grid)
        assert est.value == 2.0 + coarse_grid.samples[-coarse_grid.tail_window]
        assert est.trend is Trend.DECREASING

    def test_oscillating_trace_stays_in_envelope(self, grid):
        # |cos| <= 1 forces the window max into [3 - h, 3 + h] at window
        # scale; the trend flag is phase-dependent noise here, so only the
        # envelope is asserted
        values = [3.0 + h * math.cos(1.0 / h) for h in grid.samples]
        est = families.tail_limsup(values, grid)
        h_edge = grid.samples[-grid.tail_window]
        assert 3.0 - h_edge <= est.value <= 3.0 + h_edge

    def test_constant_trace_flat(self, coarse_grid):
        est = families.tail_limsup([5.0] * coarse_grid.count, coarse_grid)
        assert est.value == 5.0
        assert est.trend is Trend.FLAT

    def test_growing_trace_increasing(self, grid):
        values = [1.0 / h for h in grid.samples]
        assert families.tail_limsup(values, grid).trend is Trend.INCREASING

    def test_value_is_window_max(self, coarse_grid):
        values = list(range(coarse_grid.count, 0, -1))
        est = families.tail_limsup([float(v) for v in values], coarse_grid)
        assert est.value == max(est.window_values)
        assert len(est.window_values) == coarse_grid.tail_window

    def test_wider_window_never_shrinks_value(self, rng):
        values = [float(v) for v in rng.uniform(0.0, 5.0, size=12)]
        previous = -math.inf
        for window in range(2, 13):
            g = ax.geometric_grid(1.0, 0.5, 12, window)
            current = families.tail_limsup(values, g).value
            assert current >= previous
            previous = current

    def test_length_mismatch_rejected(self, coarse_grid):
        with pytest.raises(LengthMismatch):
            families.tail_limsup([1.0, 2.0], coarse_grid)


class TestVanishes:
    def test_order_h_trace_vanishes(self, grid):
        values = [h for h in grid.samples]
        assert families.vanishes(values, grid, tol=1e-3)

    def test_order_one_trace_does_not(self, grid):
        values = [1.0 + h for h in grid.samples]
        assert not families.vanishes(values, grid, tol=1e-3)

    def test_zero_trace_vanishes(self, grid):
        assert families.vanishes([0.0] * grid.count, grid, tol=1e-12)

    def test_default_tolerance_tracks_initial_scale(self):
        assert families.default_vanish_tol([3.0, 1.0]) == pytest.approx(4e-4)
        assert families.default_vanish_tol([0.0, 0.0]) == pytest.approx(1e-4)


class TestBoundedness:
    def test_every_builtin_node_stays_bounded(self, grid, rng):
        a = ComplexMatrix(rng.normal(size=(2, 2)) + 0j)
        specs = [
            ax.constant_family(a),
            ax.jordan_family(2, 0.5),
            ax.diag_family(["1", "2+h"]),
            ax.h_scaled(ax.constant_family(a)),
            ax.family_sum(ax.constant_family(a), ax.jordan_family(2, 0.0)),
            ax.family_product(ax.constant_family(a), ax.jordan_family(2, 0.0)),
            ax.random_family(2, seed=11, scale=1.0),
        ]
        for spec in specs:
            peak = max(
                linalg.operator_norm(ax.family_eval(spec, h)) for h in grid.samples
            )
            assert math.isfinite(peak)


class TestSerialization:
    def test_round_trip_all_builtin_kinds(self, rng):
        a = ComplexMatrix(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
        specs = [
            ax.constant_family(a),
            ax.jordan_family(2, 0.5 + 0.1j),
            ax.diag_family(["1", "2+h"]),
            ax.h_scaled(ax.constant_family(a)),
            ax.family_sum(ax.constant_family(a), ax.random_family(2, seed=5, scale=0.3)),
            ax.family_product(ax.jordan_family(2, 0.0), ax.constant_family(a)),
            ax.random_family(2, seed=9, scale=2.0),
        ]
        for spec in specs:
            again = ax.family_from_dict(ax.family_to_dict(spec))
            for h in (1.0, 0.125):
                assert np.array_equal(
                    ax.family_eval(spec, h).array, ax.family_eval(again, h).array
                )

    def test_unknown_kind_names_pointer(self):
        with pytest.raises(SchemaError) as err:
            ax.family_from_dict({"dim": 2, "node": {"kind": "nope"}})
        assert err.value.path == "/node/kind"

    def test_missing_node_names_pointer(self):
        with pytest.raises(SchemaError) as err:
            ax.family_from_dict({"dim": 2})
        assert err.value.path == ""
        assert "node" in str(err.value)

    def test_nested_error_path_descends(self):
        data = {
            "dim": 2,
            "node": {"kind": "sum", "children": [{"kind": "jordan", "dim": 2}]},
        }
        with pytest.raises(SchemaError) as err:
            ax.family_from_dict(data)
        assert err.value.path == "/node/children/0"
        assert "eigenvalue" in str(err.value)

    def test_bad_expression_reports_entry(self):
        data = {"dim": 1, "node": {"kind": "diag_expr", "entries": ["2 +* 3"]}}
        with pytest.raises(SchemaError):
            ax.family_from_dict(data)
