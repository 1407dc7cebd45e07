"""Contour-integral functional calculus and its algebraic properties."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

import asymspec as ax
import oracles
from asymspec import funcalc, linalg
from asymspec.errors import (
    BadParameter,
    NonEnclosing,
    QuadratureUnresolved,
    SingularOnContour,
    TraceError,
    UnboundVariable,
)
from asymspec.exprs import parse_expr
from asymspec.funcalc import ContourSpec
from asymspec.linalg import ComplexMatrix
from asymspec.spectrum import Cluster


def entry_gap(a: ComplexMatrix, b) -> float:
    return float(np.max(np.abs(a.array - np.asarray(b))))


def quadrature(t, f, contour: ContourSpec) -> funcalc.Quadrature:
    """The adaptive quadrature of f(T) for one matrix T."""
    return funcalc.family_quadratures(ax.constant_family(t), f, contour, [1.0])[0]


class TestContourSpec:
    def test_nodes_must_be_power_of_two(self):
        for nodes in (100, 32, 0, 65):
            with pytest.raises(BadParameter):
                ContourSpec(0j, 1.0, nodes)
        assert ContourSpec(0j, 1.0, 64).nodes == 64

    def test_radius_must_be_positive(self):
        with pytest.raises(BadParameter):
            ContourSpec(0j, -1.0, 256)

    def test_points_lie_on_the_circle(self):
        contour = ContourSpec(1.0 + 2.0j, 0.5, 64)
        pts = funcalc._Levels(cmath.exp, contour).level(0)[1]
        assert len(pts) == 64
        assert all(abs(abs(p - (1 + 2j)) - 0.5) <= 1e-12 for p in pts)


class TestContourFuncalc:
    def test_identity_function_reproduces_operator(self):
        t = np.diag([1.0, 2.0])
        got = funcalc.contour_funcalc(t, lambda z: z, ContourSpec(1.5 + 0j, 2.0, 256))
        assert entry_gap(got, t) <= 1e-8

    def test_constant_one_gives_identity(self):
        t = np.diag([1.0, 2.0])
        f = funcalc.expr_function(parse_expr("z^0"))
        got = funcalc.contour_funcalc(t, f, ContourSpec(1.5 + 0j, 2.0, 256))
        assert entry_gap(got, np.eye(2)) <= 1e-8

    def test_exponential_matches_taylor_sum(self):
        t = np.diag([1.0, 2.0])
        got = funcalc.contour_funcalc(t, cmath.exp, ContourSpec(1.5 + 0j, 2.0, 256))
        assert entry_gap(got, np.diag([math.e, math.e ** 2])) <= 1e-6
        want = oracles.taylor_exp(t.tolist())
        assert entry_gap(got, want) <= 1e-6

    def test_exponential_on_nonnormal_matrix(self, rng):
        data = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        t = 0.5 * data
        bound = linalg.operator_norm(t)
        got = funcalc.contour_funcalc(t, cmath.exp, ContourSpec(0j, bound + 1.0, 256))
        want = oracles.taylor_exp(t.tolist())
        assert entry_gap(got, want) <= 1e-6

    def test_doubling_nodes_changes_little(self):
        t = np.diag([1.0, 2.0])
        f = funcalc.expr_function(parse_expr("z^3 - 2*z"))
        coarse = funcalc.contour_funcalc(t, f, ContourSpec(1.5 + 0j, 2.0, 128))
        fine = funcalc.contour_funcalc(t, f, ContourSpec(1.5 + 0j, 2.0, 256))
        assert entry_gap(coarse, fine.array) <= 1e-9

    def test_output_independent_of_radius(self):
        t = np.diag([1.0, 2.0])
        f = funcalc.expr_function(parse_expr("exp(z)"))
        small = funcalc.contour_funcalc(t, f, ContourSpec(1.5 + 0j, 1.5, 256))
        large = funcalc.contour_funcalc(t, f, ContourSpec(1.5 + 0j, 2.5, 256))
        assert entry_gap(small, large.array) <= 1e-8

    def test_product_of_functions_is_product_of_results(self, rng):
        data = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        t = 0.4 * data
        contour = ContourSpec(0j, linalg.operator_norm(t) + 1.0, 256)
        f = funcalc.expr_function(parse_expr("z^2 + 1"))
        g = funcalc.expr_function(parse_expr("z - 2"))
        fg = funcalc.expr_function(parse_expr("(z^2 + 1)*(z - 2)"))
        combined = funcalc.contour_funcalc(t, fg, contour)
        split = (
            funcalc.contour_funcalc(t, f, contour).array
            @ funcalc.contour_funcalc(t, g, contour).array
        )
        assert entry_gap(combined, split) <= 1e-7

    def test_computed_functions_commute(self, rng):
        data = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        t = 0.4 * data
        contour = ContourSpec(0j, linalg.operator_norm(t) + 1.0, 256)
        ft = funcalc.contour_funcalc(t, funcalc.expr_function(parse_expr("z^2")), contour).array
        gt = funcalc.contour_funcalc(t, funcalc.expr_function(parse_expr("exp(z)")), contour).array
        assert np.abs(ft @ gt - gt @ ft).max() <= 1e-8

    @pytest.mark.parametrize("nodes", [64, 256])
    @pytest.mark.parametrize("dim", [2, 8, 16])
    def test_matches_explicit_trapezoid_sum(self, rng, dim, nodes):
        data = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        t = data / np.sqrt(dim)
        contour = ContourSpec(0.1 + 0.2j, linalg.operator_norm(t) + 1.0, nodes)
        quad = quadrature(t, cmath.exp, contour)
        # the explicit sum at the node count the quadrature stopped at
        used = quad.nodes
        want = np.zeros((dim, dim), dtype=np.complex128)
        for k in range(used):
            unit = cmath.exp(2j * cmath.pi * k / used)
            lam = contour.center + contour.radius * unit
            want += unit * cmath.exp(lam) * np.linalg.inv(lam * np.eye(dim) - t)
        want *= contour.radius / used
        np.testing.assert_allclose(quad.matrix, want, rtol=1e-13, atol=0)
        same = funcalc.contour_funcalc(t, cmath.exp, contour)
        assert np.array_equal(same.array, quad.matrix)

    def test_sum_makes_no_blas_product_call(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("the quadrature sum must not call a BLAS product")

        monkeypatch.setattr(np, "tensordot", forbidden)
        monkeypatch.setattr(np, "dot", forbidden)
        t = np.arange(16.0).reshape(4, 4) / 16.0
        contour = ContourSpec(0j, linalg.operator_norm(t) + 1.0, 128)
        funcalc.contour_funcalc(t, cmath.exp, contour)
        image = ax.family_funcalc(ax.constant_family(t), cmath.exp, contour)
        ax.family_eval(image, 0.5)

    def test_eigenvalue_on_contour_rejected(self):
        t = np.diag([1.0, 2.0])
        # node 0 sits at exactly 1+0j
        with pytest.raises(SingularOnContour):
            funcalc.contour_funcalc(t, lambda z: z, ContourSpec(0j, 1.0, 64))

    def test_unconverged_quadrature_is_refused(self):
        # exp([[0.9, 1], [0, -0.3]]) on the unit circle needs 512 nodes; at a
        # cap of 64 the sum is 1.3e-3 off in relative 2-norm
        t = np.array([[0.9, 1.0], [0.0, -0.3]])
        with pytest.raises(QuadratureUnresolved, match="64-node cap"):
            funcalc.contour_funcalc(t, cmath.exp, ContourSpec(0j, 1.0, 64))
        got = funcalc.contour_funcalc(t, cmath.exp, ContourSpec(0j, 1.0, 512))
        assert entry_gap(got, upper_triangular_exp(0.9)) <= 1e-12

    def test_eigenvalue_on_a_refined_node_rejected(self):
        # node 1 of 128 is no node of level 64: the first level misses it,
        # fails to converge, and the doubling hits it
        mu = funcalc._circle(0j, 1.0, np.arange(128), 128)[0][1]
        t = np.diag([mu, 0.0])
        with pytest.raises(SingularOnContour, match="node 1 of 128"):
            funcalc.contour_funcalc(t, cmath.exp, ContourSpec(0j, 1.0, 256))


def upper_triangular_exp(a: float, b: float = -0.3) -> np.ndarray:
    """exp([[a, 1], [0, b]]) in closed form."""
    return np.array([[math.exp(a), (math.exp(a) - math.exp(b)) / (a - b)], [0.0, math.exp(b)]])


class CountingInverses:
    """Wraps funcalc.inverse_stack and counts the matrices it inverts."""

    def __init__(self, monkeypatch):
        self.members = 0
        real = funcalc.inverse_stack

        def counting(a):
            self.members += len(a)
            return real(a)

        monkeypatch.setattr(funcalc, "inverse_stack", counting)


@st.composite
def enclosed_matrices(draw):
    """A circle and a matrix whose spectrum lies within 0.9 of its radius
    around its center: Gaussian, strongly non-normal triangular, or normal."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dim = draw(st.integers(1, 6))
    kind = draw(st.sampled_from(["gaussian", "triangular", "normal"]))
    raw = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    if kind == "triangular":
        raw = np.triu(raw) + 9.0 * np.triu(raw, 1)
    elif kind == "normal":
        q = np.linalg.qr(raw)[0]
        raw = (q * (rng.standard_normal(dim) + 1j * rng.standard_normal(dim))) @ q.conj().T
    center = complex(draw(st.floats(-1.0, 1.0)), draw(st.floats(-1.0, 1.0)))
    radius = draw(st.sampled_from([0.5, 1.0, 2.0, 4.0]))
    ratio = draw(st.floats(0.0, 0.9))
    rho = np.abs(np.linalg.eigvals(raw)).max()
    t = center * np.eye(dim) + raw * (ratio * radius / rho)
    return t, ContourSpec(center, radius, 256)


class TestAdaptiveQuadrature:
    @pytest.mark.parametrize("nodes", [64, 128, 256])
    def test_refined_level_keeps_every_coarse_node_bit_for_bit(self, nodes):
        contour = ContourSpec(0.3 - 1.1j, 1.7, nodes)
        fine = funcalc._circle(contour.center, contour.radius, np.arange(2 * nodes), 2 * nodes)[0]
        coarse = funcalc._circle(contour.center, contour.radius, np.arange(nodes), nodes)[0]
        assert np.array_equal(fine[::2], coarse)
        # the levels the doubling inverts, interleaved, are the cap's points
        levels = funcalc._Levels(cmath.exp, ContourSpec(contour.center, contour.radius, 2 * nodes))
        k, points, weights = levels.level(0)
        for i in range(1, (2 * nodes // funcalc.MIN_NODES).bit_length()):
            odd_k, odd_points, odd_weights = levels.level(i)
            merged = np.empty(2 * len(points), dtype=np.complex128)
            merged[::2], merged[1::2] = points, odd_points
            assert np.array_equal(odd_k, np.arange(1, len(merged), 2))
            points = merged
        assert np.array_equal(points, fine)

    @pytest.mark.parametrize("dim", [1, 2, 4, 8, 16])
    @pytest.mark.parametrize("radius", [0.5, 1.0, 2.0, 4.0])
    def test_benign_contours_invert_64_nodes(self, monkeypatch, rng, dim, radius):
        # spectral radius exactly r/2, for a normal and a non-normal matrix
        # with ||T|| <= r/2, and a square as well as exp
        raw = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        q = np.linalg.qr(raw)[0]
        normal = (q * (0.5 * radius * np.exp(2j * np.pi * rng.random(dim)))) @ q.conj().T
        nonnormal = 0.5 * radius * raw / np.linalg.norm(raw, 2)
        for t in (normal, nonnormal):
            for f in (cmath.exp, lambda z: z * z):
                calls = []
                inverses = CountingInverses(monkeypatch)
                quad = quadrature(
                    t, lambda z: calls.append(z) or f(z), ContourSpec(0j, radius, 256)
                )
                # f at the 64 nodes and at the alias check's 64 turned points
                assert (quad.nodes, len(calls), inverses.members) == (64, 128, 64)
                assert quad.converged

    def test_hard_contour_doubles_up_to_its_need(self, monkeypatch):
        # a = 0.9 on the unit circle needs 512 nodes; each doubling inverts
        # only the new odd nodes
        inverses = CountingInverses(monkeypatch)
        t = np.array([[0.9, 1.0], [0.0, -0.3]])
        quad = quadrature(t, cmath.exp, ContourSpec(0j, 1.0, 1024))
        assert (quad.nodes, inverses.members, quad.converged) == (512, 512, True)

    @pytest.mark.parametrize("a", [0.9, 0.94])
    def test_estimate_bounds_the_true_error_at_every_cap(self, a):
        t = np.array([[a, 1.0], [0.0, -0.3]])
        want = upper_triangular_exp(a)
        estimates = []
        for cap in (64, 128, 256, 512):
            quad = quadrature(t, cmath.exp, ContourSpec(0j, 1.0, cap))
            assert quad.nodes == cap
            assert np.abs(quad.matrix - want).max() <= quad.error
            estimates.append(quad.error)
        assert estimates == sorted(estimates, reverse=True)
        # a = 0.9 converges at 512 nodes, a = 0.94 not yet
        assert quad.converged is (a == 0.9)

    # the estimate includes ROUNDING_RTOL's allowance, which covers the
    # rounding of the quadrature and of scipy's expm, the reference here
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(enclosed_matrices())
    def test_estimate_bounds_the_true_error_for_exp(self, case):
        t, contour = case
        quad = quadrature(t, cmath.exp, contour)
        assert np.abs(quad.matrix - expm(t)).max() <= quad.error

    def test_rounding_allowance_floors_the_estimate(self):
        # a polynomial of low degree is summed exactly up to rounding, so the
        # level difference alone could read 0 or below the true error
        t = np.diag([0.25, -0.5])
        quad = quadrature(t, lambda z: z, ContourSpec(0j, 2.0, 256))
        assert quad.nodes == 64
        assert quad.error == funcalc.ROUNDING_RTOL * 2 * quad.scale

    def test_rounding_floor_keeps_python_types(self):
        # on the h = 0.5 member the rounding floor wins the estimate
        quads = funcalc.family_quadratures(
            ax.diag_family(["1", "2+h"]), lambda z: z, ContourSpec(1.5, 4, 64), [1.0, 0.5]
        )
        q = quads[1]
        assert q.error == funcalc.ROUNDING_RTOL * 2 * q.scale
        assert type(q.error) is float
        assert q.converged is True

    def test_refusal_at_the_cap(self):
        t = np.array([[0.9, 1.0], [0.0, -0.3]])
        short = quadrature(t, cmath.exp, ContourSpec(0j, 1.0, 64))
        enough = quadrature(t, cmath.exp, ContourSpec(0j, 1.0, 512))
        with pytest.raises(QuadratureUnresolved, match="64-node cap"):
            funcalc.require_quadrature([enough, short])
        funcalc.require_quadrature([enough])

    def test_overflowing_sum_is_not_converged(self):
        # 4^511 is finite, but the terms' size overflows to inf, and 4^1023
        # overflows in f itself. Both are refused, and numpy warns of
        # neither (a RuntimeWarning fails this suite).
        for f in (lambda z: z**511, lambda z: z**511 * z**512):
            with pytest.raises(QuadratureUnresolved, match="overflows at 64 nodes"):
                quadrature(np.zeros((1, 1)), f, ContourSpec(0j, 4.0, 64))

    def test_scale_does_not_overflow_before_the_terms(self):
        # size * radius = 6.4e306 * 100 overflows, size * (radius / n) = 1e307 does not
        quad = quadrature(np.zeros((1, 1)), lambda z: 1e307, ContourSpec(0j, 100.0, 64))
        assert quad.converged
        assert quad.scale == pytest.approx(1e307, rel=1e-15)
        assert quad.matrix[0, 0] == pytest.approx(1e307, rel=1e-15)

    # z^n on the circle |z| = r is a single Fourier mode of degree n. A level
    # N dividing n folds it onto degree 0, so Q_N and Q_{N/2} both read
    # f(T) + r^n I and agree; only the alias check sees the difference
    @pytest.mark.parametrize(
        "expr, degree, needs",
        [("z^64", 64, 256), ("(z^8)^8", 64, 256), ("z^64*z^64", 128, 512), ("(z^32)^6", 192, 256)],
    )
    def test_mass_at_a_multiple_of_the_node_count_is_seen(self, expr, degree, needs):
        f = funcalc.expr_function(parse_expr(expr))
        # ||T|| <= r/2 for both, the second non-normal
        for t in (np.array([[0.25]]), np.array([[0.25, 0.25], [0.0, -0.1]])):
            want = np.linalg.matrix_power(t, degree)
            for cap in (64, needs // 2):
                short = quadrature(t, f, ContourSpec(0j, 1.0, cap))
                assert not short.converged
                assert np.abs(short.matrix - want).max() <= short.error
            quad = quadrature(t, f, ContourSpec(0j, 1.0, 4 * needs))
            assert (quad.nodes, quad.converged) == (needs, True)
            assert np.abs(quad.matrix - want).max() <= 1e-13

    # f = sum_j a_j ((z - c) / r)^{n_j} puts f's mass at the degrees n_j
    # exactly, below nine times the first level's node count: the degrees
    # for which ALIAS_GAIN bounds the alias check's gain
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        enclosed_matrices(),
        st.lists(
            st.tuples(
                st.integers(0, 9 * funcalc.MIN_NODES - 1),
                st.complex_numbers(min_magnitude=1e-3, max_magnitude=1.0),
                st.integers(-10, 2),
            ),
            min_size=1,
            max_size=3,
        ),
    )
    def test_estimate_bounds_the_true_error_for_polynomials(self, case, terms):
        t, contour = case
        c, r = contour.center, contour.radius
        scaled = (t - c * np.eye(len(t))) / r
        terms = [(n, a * 10.0**e) for n, a, e in terms]
        want = sum(a * np.linalg.matrix_power(scaled, n) for n, a in terms)
        for cap in (64, 256, 1024):
            quad = quadrature(
                t, lambda z: sum(a * ((z - c) / r) ** n for n, a in terms), ContourSpec(c, r, cap)
            )
            assert np.abs(quad.matrix - want).max() <= quad.error


class TestFamilyFuncalc:
    def test_identity_function_preserves_family(self, coarse_grid):
        tf = ax.diag_family(["1", "2+h"])
        fam = ax.family_funcalc(tf, lambda z: z, ContourSpec(1.5 + 0j, 2.0, 256))
        assert fam.dim == tf.dim
        for h in coarse_grid.samples:
            gap = entry_gap(ax.family_eval(fam, h), ax.family_eval(tf, h).array)
            assert gap <= 1e-8

    def test_square_of_moving_diagonal(self):
        tf = ax.diag_family(["1", "2+h"])
        f = funcalc.expr_function(parse_expr("z^2"))
        fam = ax.family_funcalc(tf, f, ContourSpec(1.5 + 0j, 2.0, 256))
        for h in (1.0, 0.25, 0.03125):
            want = np.diag([1.0, (2.0 + h) ** 2])
            assert entry_gap(ax.family_eval(fam, h), want) <= 1e-8

    def test_qequiv_evaluates_each_sample_once(self, coarse_grid):
        calls = []

        def counting(z):
            calls.append(z)
            return z

        # eigenvalues within 1.5 of the center of a radius-4 circle: 64 nodes converge
        contour = ContourSpec(1.5 + 0j, 4.0, 64)
        image = ax.family_funcalc(ax.diag_family(["1", "2+h"]), counting, contour)
        ax.quasinilpotent_equiv(image, ax.diag_family(["1", "2"]), coarse_grid, n_max=8)
        # f(lambda_k) and the alias check do not depend on h: f is called at
        # each node and at each of the check's turned points once for the family
        assert len(calls) == 2 * contour.nodes

    def test_weights_of_each_level_are_computed_once(self):
        calls = []

        def counting(z):
            calls.append(z)
            return cmath.exp(z)

        # eigenvalue 0.7 on the unit circle converges at 128 nodes
        tf, contour = ax.diag_family(["0.7", "-0.3+h"]), ContourSpec(0j, 1.0, 256)
        hs = [0.125, 0.0625, 0.03125]
        ax.families.family_eval_stack(ax.family_funcalc(tf, counting, contour), hs)
        # level 64 (64 nodes), level 128's 64 odd nodes and the alias check
        # at 128 (128 points), once for all three members
        assert len(calls) == 256
        calls.clear()
        quads = funcalc.family_quadratures(tf, counting, contour, hs)
        assert [q.nodes for q in quads] == [128, 128, 128]
        assert len(calls) == 256

    def test_family_quadratures_are_the_image_values(self, coarse_grid):
        tf, contour = ax.diag_family(["1", "2+h"]), ContourSpec(1.5 + 0j, 2.0, 256)
        hs = coarse_grid.window_samples
        quads = funcalc.family_quadratures(tf, cmath.exp, contour, hs)
        got = np.stack([q.matrix for q in quads])
        image = ax.family_funcalc(tf, cmath.exp, contour)
        assert np.array_equal(got, ax.families.family_eval_stack(image, hs))
        with pytest.raises(BadParameter):
            funcalc.family_quadratures(tf, cmath.exp, contour, [0.0])

    def test_error_from_f_raises_at_evaluation(self):
        def failing(z):
            raise ZeroDivisionError("f is undefined here")

        contour = ContourSpec(1.5 + 0j, 2.0, 64)
        image = ax.family_funcalc(ax.diag_family(["1", "2+h"]), failing, contour)
        for h in (0.5, 0.25):
            with pytest.raises(ZeroDivisionError):
                ax.family_eval(image, h)

    def test_singular_h_reports_which_sample(self):
        # the eigenvalue 1+h crosses the radius-1.25 contour exactly at h=0.25;
        # at h=0.125 it sits at 0.9 of the radius, which takes 512 nodes
        fam = ax.family_funcalc(
            ax.diag_family(["1+h"]), lambda z: z, ContourSpec(0j, 1.25, 1024)
        )
        assert entry_gap(ax.family_eval(fam, 0.125), [[1.125]]) <= 1e-8
        with pytest.raises(TraceError) as err:
            ax.family_eval(fam, 0.25)
        assert err.value.h == 0.25

    def test_unconverged_image_is_refused_naming_h(self):
        # every member is exp([[0.9, 1], [0, -0.3]]), which needs 512 nodes
        t = np.array([[0.9, 1.0], [0.0, -0.3]])
        image = ax.family_funcalc(ax.constant_family(t), cmath.exp, ContourSpec(0j, 1.0, 64))
        with pytest.raises(QuadratureUnresolved, match=r"at h=0\.5: .*64-node cap"):
            ax.families.family_eval_stack(image, [0.5, 0.25])
        image = ax.family_funcalc(ax.constant_family(t), cmath.exp, ContourSpec(0j, 1.0, 512))
        assert entry_gap(ax.family_eval(image, 0.5), upper_triangular_exp(0.9)) <= 1e-12

    def test_derived_family_is_not_serializable(self):
        fam = ax.family_funcalc(
            ax.diag_family(["1"]), lambda z: z, ContourSpec(1.0 + 0j, 0.5, 64)
        )
        with pytest.raises(BadParameter):
            ax.family_to_dict(fam)


class TestEnclosure:
    def test_clusters_inside_margin_pass(self):
        contour = ContourSpec(0j, 2.0, 64)
        inside = [Cluster(0.5 + 0.5j, 0.2, 4), Cluster(-1.0 + 0j, 0.1, 2)]
        assert funcalc.contour_encloses(contour, inside)
        funcalc.require_enclosing(contour, inside)

    def test_cluster_near_the_rim_fails_margin(self):
        contour = ContourSpec(0j, 2.0, 64)
        rim = [Cluster(1.85 + 0j, 0.1, 3)]
        assert not funcalc.contour_encloses(contour, rim)
        with pytest.raises(NonEnclosing):
            funcalc.require_enclosing(contour, rim)

    def test_cluster_outside_fails(self):
        contour = ContourSpec(0j, 2.0, 64)
        assert not funcalc.contour_encloses(contour, [Cluster(3.0 + 0j, 0.0, 1)])


class TestExprFunction:
    def test_wraps_ast_as_callable(self):
        f = funcalc.expr_function(parse_expr("z^2 + 1"))
        assert f(3.0) == 10.0 + 0j

    def test_only_z_is_bound(self):
        f = funcalc.expr_function(parse_expr("z + h"))
        with pytest.raises(UnboundVariable):
            f(1.0)
