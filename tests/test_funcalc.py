"""Contour-integral functional calculus and its algebraic properties."""

import cmath
import math

import numpy as np
import pytest

import asymspec as ax
import oracles
from asymspec import funcalc, linalg
from asymspec.errors import BadParameter, NonEnclosing, SingularOnContour, TraceError
from asymspec.exprs import parse_expr
from asymspec.funcalc import ContourSpec
from asymspec.linalg import ComplexMatrix
from asymspec.spectrum import Cluster


def entry_gap(a: ComplexMatrix, b) -> float:
    return float(np.max(np.abs(a.array - np.asarray(b))))


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
        pts = contour.points()
        assert len(pts) == 64
        assert all(abs(abs(p - (1 + 2j)) - 0.5) <= 1e-12 for p in pts)


class TestContourFuncalc:
    def test_identity_function_reproduces_operator(self):
        t = ComplexMatrix.diagonal([1.0, 2.0])
        got = funcalc.contour_funcalc(t, lambda z: z, ContourSpec(1.5 + 0j, 2.0, 256))
        assert entry_gap(got, t.array) <= 1e-8

    def test_constant_one_gives_identity(self):
        t = ComplexMatrix.diagonal([1.0, 2.0])
        f = funcalc.expr_function(parse_expr("z^0"))
        got = funcalc.contour_funcalc(t, f, ContourSpec(1.5 + 0j, 2.0, 256))
        assert entry_gap(got, np.eye(2)) <= 1e-8

    def test_exponential_matches_taylor_sum(self):
        t = ComplexMatrix.diagonal([1.0, 2.0])
        got = funcalc.contour_funcalc(t, cmath.exp, ContourSpec(1.5 + 0j, 2.0, 256))
        assert entry_gap(got, np.diag([math.e, math.e ** 2])) <= 1e-6
        want = oracles.taylor_exp(t.array.tolist())
        assert entry_gap(got, want) <= 1e-6

    def test_exponential_on_nonnormal_matrix(self, rng):
        data = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        t = ComplexMatrix(0.5 * data)
        bound = linalg.operator_norm(t)
        got = funcalc.contour_funcalc(t, cmath.exp, ContourSpec(0j, bound + 1.0, 256))
        want = oracles.taylor_exp(t.array.tolist())
        assert entry_gap(got, want) <= 1e-6

    def test_doubling_nodes_changes_little(self):
        t = ComplexMatrix.diagonal([1.0, 2.0])
        f = funcalc.expr_function(parse_expr("z^3 - 2*z"))
        coarse = funcalc.contour_funcalc(t, f, ContourSpec(1.5 + 0j, 2.0, 128))
        fine = funcalc.contour_funcalc(t, f, ContourSpec(1.5 + 0j, 2.0, 256))
        assert entry_gap(coarse, fine.array) <= 1e-9

    def test_output_independent_of_radius(self):
        t = ComplexMatrix.diagonal([1.0, 2.0])
        f = funcalc.expr_function(parse_expr("exp(z)"))
        small = funcalc.contour_funcalc(t, f, ContourSpec(1.5 + 0j, 1.5, 256))
        large = funcalc.contour_funcalc(t, f, ContourSpec(1.5 + 0j, 2.5, 256))
        assert entry_gap(small, large.array) <= 1e-8

    def test_product_of_functions_is_product_of_results(self, rng):
        data = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        t = ComplexMatrix(0.4 * data)
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
        t = ComplexMatrix(0.4 * data)
        contour = ContourSpec(0j, linalg.operator_norm(t) + 1.0, 256)
        ft = funcalc.contour_funcalc(t, funcalc.expr_function(parse_expr("z^2")), contour).array
        gt = funcalc.contour_funcalc(t, funcalc.expr_function(parse_expr("exp(z)")), contour).array
        assert np.abs(ft @ gt - gt @ ft).max() <= 1e-8

    @pytest.mark.parametrize("nodes", [64, 256])
    @pytest.mark.parametrize("dim", [2, 8, 16])
    def test_matches_explicit_trapezoid_sum(self, rng, dim, nodes):
        data = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        t = ComplexMatrix(data / np.sqrt(dim))
        contour = ContourSpec(0.1 + 0.2j, linalg.operator_norm(t) + 1.0, nodes)
        got = funcalc.contour_funcalc(t, cmath.exp, contour).array
        want = np.zeros((dim, dim), dtype=np.complex128)
        for k, lam in enumerate(contour.points()):
            w = cmath.exp(2j * cmath.pi * k / nodes) * cmath.exp(lam)
            want += w * np.linalg.inv(lam * np.eye(dim) - t.array)
        want *= contour.radius / nodes
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)

    def test_sum_makes_no_blas_product_call(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("the quadrature sum must not call a BLAS product")

        monkeypatch.setattr(np, "tensordot", forbidden)
        monkeypatch.setattr(np, "dot", forbidden)
        t = ComplexMatrix(np.arange(16.0).reshape(4, 4) / 16.0)
        contour = ContourSpec(0j, linalg.operator_norm(t) + 1.0, 128)
        funcalc.contour_funcalc(t, cmath.exp, contour)
        image = ax.family_funcalc(ax.constant_family(t), cmath.exp, contour)
        ax.family_eval(image, 0.5)

    def test_eigenvalue_on_contour_rejected(self):
        t = ComplexMatrix.diagonal([1.0, 2.0])
        # node 0 sits at exactly 1+0j
        with pytest.raises(SingularOnContour):
            funcalc.contour_funcalc(t, lambda z: z, ContourSpec(0j, 1.0, 64))


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

        contour = ContourSpec(1.5 + 0j, 2.0, 64)
        image = ax.family_funcalc(ax.diag_family(["1", "2+h"]), counting, contour)
        ax.quasinilpotent_equiv(image, ax.diag_family(["1", "2"]), coarse_grid, n_max=8)
        # the weights f(lambda_k) do not depend on h: one call per node for the family
        assert len(calls) == contour.nodes

    def test_error_from_f_raises_at_evaluation(self):
        def failing(z):
            raise ZeroDivisionError("f is undefined here")

        contour = ContourSpec(1.5 + 0j, 2.0, 64)
        image = ax.family_funcalc(ax.diag_family(["1", "2+h"]), failing, contour)
        for h in (0.5, 0.25):
            with pytest.raises(ZeroDivisionError):
                ax.family_eval(image, h)

    def test_singular_h_reports_which_sample(self):
        # the eigenvalue 1+h crosses the radius-1.25 contour exactly at h=0.25
        fam = ax.family_funcalc(
            ax.diag_family(["1+h"]), lambda z: z, ContourSpec(0j, 1.25, 256)
        )
        assert entry_gap(ax.family_eval(fam, 0.125), [[1.125]]) <= 1e-8
        with pytest.raises(TraceError) as err:
            ax.family_eval(fam, 0.25)
        assert err.value.h == 0.25

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

    def test_extra_bindings_fill_free_variables(self):
        f = funcalc.expr_function(parse_expr("z + h"), extra={"h": 0.25})
        assert f(1.0) == 1.25 + 0j
