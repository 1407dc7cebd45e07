"""Sampling grids, family evaluation, and the tail limit estimator."""

import cmath
import dataclasses
import json
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import asymspec as ax
import oracles
from asymspec import families, funcalc, linalg
from asymspec.errors import (
    BadParameter,
    DimensionMismatch,
    ExprError,
    LengthMismatch,
    QuadratureUnresolved,
    SchemaError,
    TraceError,
)
from asymspec.exprs import parse_expr
from asymspec.families import Trend
from asymspec.funcalc import ContourSpec, expr_function
from asymspec.spectrum import ComplexRegion


class TestGeometricGrid:
    def test_half_ratio_samples(self):
        g = ax.geometric_grid(1.0, 0.5, 4, 2)
        assert (g.h0, g.ratio, g.count, g.tail_window) == (1.0, 0.5, 4, 2)
        assert g.window_samples == (0.25, 0.125)
        # the grid is its four parameters: no head samples are stored
        assert not hasattr(g, "samples")

    def test_tenth_ratio_samples(self):
        g = ax.geometric_grid(0.5, 0.1, 5, 3)
        assert np.allclose(g.window_samples, [0.005, 5e-4, 5e-5])

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

    @settings(max_examples=300, deadline=None)
    @given(
        st.floats(0.0, 1.0, exclude_min=True, allow_subnormal=True),
        st.floats(0.0, 1.0, exclude_min=True, exclude_max=True, allow_subnormal=True),
        st.integers(4, 64),
    )
    def test_window_is_the_whole_grids_tail_or_refused(self, h0, ratio, count):
        # the grid forms its window alone; it holds the tail of the whole
        # grid bit for bit, and refuses exactly the windows that underflow or
        # repeat. A whole grid that is bad in its head alone passes, since
        # nothing reads the head: that head repeats a sample
        # (test_a_repeat_in_the_head_alone_is_not_read), it never underflows
        samples = oracles.geometric_samples(h0, ratio, count)

        def valid(hs):
            return all(0.0 < h <= 1.0 for h in hs) and all(a > b for a, b in zip(hs, hs[1:]))

        for window in range(1, count + 1):
            tail = samples[-window:]
            if valid(tail):
                got = ax.HGrid(h0, ratio, count, window).window_samples
                assert [h.hex() for h in got] == [h.hex() for h in tail]
                assert valid(samples) or all(0.0 < h <= 1.0 for h in samples)
            else:
                with pytest.raises(BadParameter, match="^grid samples must"):
                    ax.HGrid(h0, ratio, count, window)

    def test_a_repeat_in_the_head_alone_is_not_read(self):
        # samples 8 and 9 of the whole grid are equal; the window of the last
        # six is strictly decreasing, and no statistic reads the head
        h0, ratio = 0.9424502837770503, 1.0 - 2.0**-53
        samples = oracles.geometric_samples(h0, ratio, 15)
        assert samples[8] == samples[9]
        assert ax.HGrid(h0, ratio, 15, 6).window_samples == samples[-6:]
        with pytest.raises(BadParameter, match="strictly decreasing"):
            ax.HGrid(h0, ratio, 15, 7)

    def test_deepening_is_a_replace(self):
        deep = dataclasses.replace(ax.geometric_grid(), count=36)
        assert deep == ax.geometric_grid(1.0, 0.5, 36, 6)
        assert deep.window_samples == oracles.geometric_samples(1.0, 0.5, 36)[-6:]


class TestFamilyEval:
    def test_diag_expressions_substitute_h(self):
        f = ax.diag_family(["1", "2+h"])
        got = ax.family_eval(f, 0.25)
        assert np.allclose(got.array, np.diag([1.0, 2.25]))

    def test_h_scaled_multiplies(self, rng):
        a = rng.normal(size=(3, 3)) + 0j
        f = ax.h_scaled(ax.constant_family(a))
        assert np.allclose(ax.family_eval(f, 0.5).array, 0.5 * a)

    def test_seeded_random_is_deterministic(self):
        f = ax.random_family(3, seed=7, scale=1.0)
        once = ax.family_eval(f, 0.5).array
        again = ax.family_eval(f, 0.5).array
        assert np.array_equal(once, again)

    def test_sum_matches_ring_add_exactly(self, rng):
        a = ax.constant_family(rng.normal(size=(2, 2)) + 0j)
        b = ax.random_family(2, seed=3, scale=0.5)
        total = ax.family_sum(a, b)
        for h in (1.0, 0.5, 0.125):
            want = ax.family_eval(a, h).array + ax.family_eval(b, h).array
            assert np.array_equal(ax.family_eval(total, h).array, want)

    def test_product_matches_ring_mul(self, rng):
        a = ax.constant_family(rng.normal(size=(2, 2)) + 0j)
        b = ax.jordan_family(2, 0.5)
        prod = ax.family_product(a, b)
        want = ax.family_eval(a, 0.25).array @ ax.family_eval(b, 0.25).array
        assert np.array_equal(ax.family_eval(prod, 0.25).array, want)

    def test_jordan_family_is_constant_block(self):
        f = ax.jordan_family(3, 0.8)
        assert np.array_equal(ax.family_eval(f, 0.3).array, linalg.jordan_block(3, 0.8))

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

    def test_overflowing_value_reports_h(self):
        # each factor is finite; their product overflows, with no warning
        huge = ax.random_family(2, seed=1, scale=1e200)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(TraceError) as err:
                ax.family_eval(ax.family_product(huge, huge), 0.5)
        assert err.value.h == 0.5


class TestScalarTrace:
    def test_zero_difference_trace(self, coarse_grid):
        f = ax.diag_family(["h", "1"])
        values = [
            np.abs(ax.family_eval(f, h).array - ax.family_eval(f, h).array).max()
            for h in oracles.grid_samples(coarse_grid)
        ]
        assert values == [0.0] * coarse_grid.count

    def test_diag_h_norm_equals_samples(self, coarse_grid):
        f = ax.diag_family(["h"])
        hs = oracles.grid_samples(coarse_grid)
        values = [linalg.operator_norm(ax.family_eval(f, h).array) for h in hs]
        assert np.allclose(values, hs, rtol=1e-12)


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
            st.just(oracles.grid_samples(DEFAULT_GRID)),
            st.just(oracles.grid_samples(LONG_GRID)),
            st.lists(st.sampled_from(oracles.grid_samples(DEFAULT_GRID)), min_size=1, max_size=25),
            st.lists(st.floats(0.0, 1.0, exclude_min=True), min_size=1, max_size=12),
        )
    )
    if draw(st.booleans()):
        # a functional-calculus image on a circle of at least twice every inner
        # value's norm, where 64 nodes converge for polynomials
        norm = max(linalg.operator_norm(oracles.node_at(spec, h)) for h in hs)
        radius = 2.0 + 2.0 * norm
        # exp's Taylor mass at degree 32 and above, r^32 / 32!, passes the
        # quadrature's tolerance at 64 nodes only on a small circle
        funcs = ["z^2", "z - 1"] + (["exp(z)"] if radius <= 8.0 else [])
        f = expr_function(parse_expr(draw(st.sampled_from(funcs))))
        spec = ax.family_funcalc(spec, f, ContourSpec(0j, radius, 64))
    return spec, hs


class TestStackedEvaluation:
    @settings(max_examples=150, deadline=None)
    @given(families_and_samples())
    def test_stack_is_the_per_sample_recursion_bit_for_bit(self, case):
        spec, hs = case
        try:
            want = oracles.family_eval_per_sample(spec, hs)
        except QuadratureUnresolved as exc:
            # an image whose quadrature misses its tolerance is refused at the same h
            with pytest.raises(QuadratureUnresolved, match=re.escape(str(exc))):
                families.family_eval_stack(spec, hs)
            return
        got = families.family_eval_stack(spec, hs)
        assert got.shape == (len(hs), spec.dim, spec.dim)
        assert np.array_equal(got, want)

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


# Entries that every entry point refuses, with ComplexMatrix's message.
BAD_ENTRIES = {
    "non-square": ([[1.0, 2.0]], "expected a square matrix, got shape (1, 2)"),
    "inf": ([[math.inf, 0.0], [0.0, 1.0]], "matrix entries must be finite"),
    "nan": ([[math.nan, 0.0], [0.0, 1.0]], "matrix entries must be finite"),
}


def node_from_json(text: str):
    """The node of a dim-2 family whose node is given as JSON text."""
    return ax.family_from_dict(json.loads(f'{{"dim": 2, "node": {text}}}'))


class TestEntryChecks:
    """A matrix is checked where it enters the library and handed on as a
    read-only complex128 array; past that point nothing checks it again."""

    @pytest.mark.parametrize("entries, message", BAD_ENTRIES.values(), ids=BAD_ENTRIES)
    @pytest.mark.parametrize(
        "enter",
        [
            ax.constant_family,
            lambda t: ax.contour_funcalc(t, lambda z: z, ContourSpec(0j, 3.0)),
        ],
        ids=["constant_family", "contour_funcalc"],
    )
    def test_array_entry_points_refuse_bad_entries(self, enter, entries, message):
        with pytest.raises(BadParameter, match=f"^{re.escape(message)}$"):
            enter(np.array(entries))

    @pytest.mark.parametrize("part", ["re", "im"])
    @pytest.mark.parametrize("value", ["Infinity", "-Infinity", "NaN"])
    def test_matrix_from_dict_refuses_non_finite_entries(self, part, value):
        parts = {"re": "[1, 0, 0, 1]", "im": "[0, 0, 0, 0]"}
        parts[part] = f"[{value}, 0, 0, 1]"
        data = json.loads(f'{{"dim": 2, "re": {parts["re"]}, "im": {parts["im"]}}}')
        with pytest.raises(SchemaError) as err:
            families.matrix_from_dict(data, "/m")
        assert (err.value.path, str(err.value)) == ("/m", "/m: matrix entries must be finite")

    @pytest.mark.parametrize(
        "node",
        [
            '{"kind": "jordan", "dim": 2, "eigenvalue": Infinity}',
            '{"kind": "jordan", "dim": 2, "eigenvalue": {"re": 0, "im": NaN}}',
            '{"kind": "random", "dim": 2, "seed": 1, "scale": Infinity}',
            '{"kind": "random", "dim": 2, "seed": 1, "scale": NaN}',
        ],
        ids=["jordan-inf", "jordan-nan", "random-inf", "random-nan"],
    )
    def test_fixed_nodes_refuse_non_finite_values(self, node):
        with pytest.raises(BadParameter, match="^matrix entries must be finite$"):
            node_from_json(node)

    def test_entered_arrays_are_read_only(self, rng):
        raw = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        doc = ax.family_to_dict(ax.constant_family(raw))["node"]
        arrays = {
            "matrix_from_dict": families.matrix_from_dict(doc["matrix"]),
            "jordan_block": linalg.jordan_block(2, 0.5),
            "constant_family": ax.constant_family(raw).matrix,
            "jordan_family": ax.jordan_family(2, 0.5).matrix,
            "random_family": ax.random_family(2, seed=3).matrix,
            "constant node": node_from_json(json.dumps(doc)).matrix,
            "jordan node": node_from_json('{"kind": "jordan", "dim": 2, "eigenvalue": 0.5}').matrix,
            "random node": node_from_json('{"kind": "random", "dim": 2, "seed": 3}').matrix,
            "contour_funcalc": ax.contour_funcalc(raw, lambda z: z, ContourSpec(0j, 8.0)).array,
        }
        for name, a in arrays.items():
            assert a.dtype == np.complex128, name
            assert not a.flags.writeable, name
        assert np.array_equal(arrays["constant node"], raw)

    def test_constant_family_keeps_its_own_copy(self, rng):
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        want = a.copy()
        fam = ax.constant_family(a)
        a[0, 0] = 5.0
        assert np.array_equal(ax.family_eval(fam, 0.5).array, want)

    def test_nodes_holding_arrays_compare_and_hash(self):
        a, b = ax.constant_family(np.eye(2)), ax.constant_family(np.eye(2))
        nodes = [a, ax.family_sum(a, b), ax.family_product(a, b)]
        assert len(set(nodes)) == 3
        assert all(node == node for node in nodes)
        assert a != b
        assert ax.family_sum(a, b) == ax.family_sum(a, b) != ax.family_sum(b, a)
        assert ax.family_product(a, b) == ax.family_product(a, b) != ax.family_product(b, a)


class TestFamilyIsItsRecipe:
    def test_constructors_return_their_node(self, rng):
        a = rng.normal(size=(2, 2))
        two_point = ax.diag_family(["1", "2+h"])
        cases = [
            (ax.constant_family(a), families.Constant, 2),
            (ax.jordan_family(3, 0.5), families.Jordan, 3),
            (two_point, families.DiagExpr, 2),
            (ax.h_scaled(two_point), families.HScaled, 2),
            (ax.family_sum(two_point, two_point), families.Sum, 2),
            (ax.family_product(two_point, two_point), families.Product, 2),
            (ax.random_family(4, seed=1), families.SeededRandom, 4),
            (ax.family_from_dict(ax.family_to_dict(two_point)), families.DiagExpr, 2),
            (ax.family_funcalc(two_point, cmath.exp, ContourSpec(1.5, 2.0)), funcalc._Funcalc, 2),
        ]
        for spec, kind, dim in cases:
            assert type(spec) is kind
            assert isinstance(spec, ax.FamilySpec)
            assert spec.dim == dim

    def test_fixed_nodes_keep_their_matrix(self):
        jordan = ax.jordan_family(3, 0.5)
        assert np.array_equal(jordan.matrix, linalg.jordan_block(3, 0.5))
        spec = ax.random_family(2, seed=4, scale=0.5)
        assert np.array_equal(
            families.family_eval_stack(spec, (1.0, 0.5)), np.stack([spec.matrix] * 2)
        )

    @pytest.mark.parametrize(
        "build, kind", [(ax.family_sum, "sum"), (ax.family_product, "product")]
    )
    def test_combined_kinds_check_their_children(self, build, kind):
        with pytest.raises(BadParameter, match=f"^{kind} needs at least one child$"):
            build()
        with pytest.raises(
            DimensionMismatch, match=re.escape(f"{kind} children disagree on dimension: [1, 2]")
        ):
            build(ax.diag_family(["1", "2"]), ax.diag_family(["1"]))

    def test_image_of_an_overflowing_family_names_the_h(self, grid):
        # 1e300 / h^10 leaves the float range at every window sample
        image = ax.family_funcalc(
            ax.diag_family(["1e300/h^10"]), lambda z: z, ContourSpec(0j, 1.0, 256)
        )
        first = grid.window_samples[0]
        assert first == 6.103515625e-05
        message = re.escape(
            f"trace evaluation failed at h={first!r}: the family value has a non-finite entry"
        )
        evaluations = [
            lambda: families.family_eval_stack(image, grid.window_samples),
            lambda: ax.family_eval(image, first),
            lambda: ax.resolvent_norm_field(image, ComplexRegion(0j, 2.0, 21), grid),
            lambda: oracles.family_eval_per_sample(image, grid.window_samples),
        ]
        for evaluate in evaluations:
            with pytest.raises(TraceError, match=f"^{message}$") as err:
                evaluate()
            assert err.value.h == first


class TestTailLimsup:
    def test_monotone_trace_decreasing(self, coarse_grid):
        values = [2.0 + h for h in oracles.grid_samples(coarse_grid)]
        est = oracles.tail_limsup(values, coarse_grid)
        assert est.value == 2.0 + oracles.grid_samples(coarse_grid)[-coarse_grid.tail_window]
        assert est.trend is Trend.DECREASING

    def test_oscillating_trace_stays_in_envelope(self, grid):
        # |cos| <= 1 forces the window max into [3 - h, 3 + h] at window
        # scale; the trend flag is phase-dependent noise here, so only the
        # envelope is asserted
        values = [3.0 + h * math.cos(1.0 / h) for h in oracles.grid_samples(grid)]
        est = oracles.tail_limsup(values, grid)
        h_edge = oracles.grid_samples(grid)[-grid.tail_window]
        assert 3.0 - h_edge <= est.value <= 3.0 + h_edge

    def test_constant_trace_flat(self, coarse_grid):
        est = oracles.tail_limsup([5.0] * coarse_grid.count, coarse_grid)
        assert est.value == 5.0
        assert est.trend is Trend.FLAT

    def test_growing_trace_increasing(self, grid):
        values = [1.0 / h for h in oracles.grid_samples(grid)]
        assert oracles.tail_limsup(values, grid).trend is Trend.INCREASING

    def test_value_is_window_max(self, coarse_grid):
        values = list(range(coarse_grid.count, 0, -1))
        est = oracles.tail_limsup([float(v) for v in values], coarse_grid)
        assert est.value == max(est.window_values)
        assert len(est.window_values) == coarse_grid.tail_window

    def test_wider_window_never_shrinks_value(self, rng):
        values = [float(v) for v in rng.uniform(0.0, 5.0, size=12)]
        previous = -math.inf
        for window in range(2, 13):
            g = ax.geometric_grid(1.0, 0.5, 12, window)
            current = oracles.tail_limsup(values, g).value
            assert current >= previous
            previous = current

    def test_length_mismatch_rejected(self, coarse_grid):
        with pytest.raises(LengthMismatch):
            families.window_limsup([1.0, 2.0], coarse_grid)

    def test_constant_windows_of_large_values_are_flat(self, grid):
        # the mean of six equal values rounds from about 1e21 up and
        # overflows from about 3e307 up; a constant window's slope is 0
        values = np.concatenate([np.geomspace(1e21, 1.7e308, 2000), [np.finfo(float).max]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for v in values.tolist():
                est = families.window_limsup([v] * grid.tail_window, grid)
                assert (est.value, est.trend) == (v, Trend.FLAT)


class TestVanishes:
    def test_order_h_trace_vanishes(self, grid):
        values = [h for h in oracles.grid_samples(grid)]
        assert families.tail_vanishes(oracles.tail_limsup(values, grid), tol=1e-3)

    def test_order_one_trace_does_not(self, grid):
        values = [1.0 + h for h in oracles.grid_samples(grid)]
        assert not families.tail_vanishes(oracles.tail_limsup(values, grid), tol=1e-3)

    def test_zero_trace_vanishes(self, grid):
        assert families.tail_vanishes(oracles.tail_limsup([0.0] * grid.count, grid), tol=1e-12)

    def test_default_tolerance_tracks_initial_scale(self):
        assert families.default_vanish_tol(3.0) == pytest.approx(4e-4)
        assert families.default_vanish_tol(0.0) == pytest.approx(1e-4)


class TestBoundedness:
    def test_every_builtin_node_stays_bounded(self, grid, rng):
        a = rng.normal(size=(2, 2)) + 0j
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
            hs = oracles.grid_samples(grid)
            peak = max(linalg.operator_norm(ax.family_eval(spec, h).array) for h in hs)
            assert math.isfinite(peak)


class TestSerialization:
    def test_round_trip_all_builtin_kinds(self, rng):
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
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

    @pytest.mark.parametrize(
        "data, path",
        [
            ({"dim": True, "node": {"kind": "jordan", "dim": 1, "eigenvalue": 0}}, "/dim"),
            ({"kind": "jordan", "dim": True, "eigenvalue": 0}, "/node/dim"),
            ({"kind": "jordan", "dim": 1, "eigenvalue": True}, "/node/eigenvalue"),
            ({"kind": "jordan", "dim": 1, "eigenvalue": {"im": False}}, "/node/eigenvalue/im"),
            ({"kind": "random", "dim": 1, "seed": True}, "/node/seed"),
            ({"kind": "random", "dim": 1, "seed": 1, "scale": False}, "/node/scale"),
            ({"kind": "constant", "matrix": {"dim": True, "re": [1], "im": [0]}},
             "/node/matrix/dim"),
            ({"kind": "constant", "matrix": {"dim": 1, "re": [True], "im": [0]}},
             "/node/matrix/re/0"),
            ({"kind": "constant", "matrix": {"dim": 1, "re": [0], "im": [10**400]}},
             "/node/matrix/im/0"),
            ({"kind": "random", "dim": 1, "seed": -1}, "/node/seed"),
        ],
        ids=["dim", "jordan-dim", "eigenvalue", "eigenvalue-im", "seed", "scale",
             "matrix-dim", "matrix-re", "integer-past-float-range", "negative-seed"],
    )
    def test_booleans_are_not_numbers(self, data, path):
        if "node" not in data:
            data = {"dim": 1, "node": data}
        with pytest.raises(SchemaError) as err:
            ax.family_from_dict(data)
        assert err.value.path == path

    @pytest.mark.parametrize("entry", ["z+h", "lambda", "exp(z)*h"])
    def test_diag_entries_read_only_h(self, entry):
        data = {"dim": 2, "node": {"kind": "diag_expr", "entries": ["h", entry]}}
        with pytest.raises(SchemaError, match=re.escape(f"entry 1 ({entry!r})")) as err:
            ax.family_from_dict(data)
        assert err.value.path == "/node/entries"

    def test_bad_expression_reports_entry(self):
        data = {"dim": 1, "node": {"kind": "diag_expr", "entries": ["2 +* 3"]}}
        with pytest.raises(SchemaError):
            ax.family_from_dict(data)
