"""Expression grammar: parsing, precedence, evaluation, and error reporting."""

import cmath

import pytest

import oracles
from asymspec import exprs
from asymspec.errors import DivisionNearZero, ExprError, ParseError, UnboundVariable


def value(src, **bindings):
    return exprs.eval_expr(exprs.parse_expr(src), bindings)


class TestParsing:
    def test_square_becomes_int_pow(self):
        ast = exprs.parse_expr("z^2")
        assert isinstance(ast, exprs.IntPow)
        assert ast.exponent == 2
        assert isinstance(ast.base, exprs.Var)

    def test_exp_minus_one_shape(self):
        ast = exprs.parse_expr("exp(z) - 1")
        assert isinstance(ast, exprs.Sub)
        assert isinstance(ast.left, exprs.Exp)
        assert isinstance(ast.right, exprs.Const)

    def test_free_h_variable(self):
        ast = exprs.parse_expr("2+h")
        assert isinstance(ast, exprs.Add)
        assert isinstance(ast.right, exprs.Var)
        assert ast.right.name == "h"

    def test_lambda_is_alias_for_z(self):
        assert value("lambda^2 + 1", z=3.0) == 10.0 + 0j

    def test_whitespace_ignored(self):
        assert value("  1 +   2 * z ", z=2.0) == value("1+2*z", z=2.0)

    def test_imaginary_literals(self):
        assert value("3i") == 3j
        assert value("1 + 2i") == 1 + 2j
        assert value("2.5e-1i") == 0.25j


class TestPrecedence:
    def test_power_binds_tighter_than_product(self):
        assert value("2+3*4^2") == 50 + 0j

    def test_unary_minus_below_power(self):
        assert value("-z^2", z=2.0) == pytest.approx(-4.0)

    def test_left_associative_sub_div(self):
        assert value("8-3-2") == 3 + 0j
        assert value("8/4/2") == 1 + 0j

    def test_chained_powers_are_left_associative(self):
        assert value("z^2^3", z=2.0) == 64 + 0j

    def test_parentheses_override(self):
        assert value("(2+3)*4") == 20 + 0j


class TestEvaluation:
    def test_square_of_one_plus_i(self):
        assert value("z^2", z=1 + 1j) == pytest.approx(2j)

    def test_exp_at_zero(self):
        assert value("exp(z)", z=0.0) == pytest.approx(1.0)

    def test_matches_rendered_reevaluation(self, rng):
        # property check: package evaluator vs eval() of the rendered source
        for _ in range(40):
            ast = random_expr(rng, depth=4)
            z = complex(rng.normal(), rng.normal())
            h = float(rng.uniform(0.01, 1.0))
            bindings = {"z": z, "h": h}
            try:
                mine = exprs.eval_expr(ast, bindings)
            except DivisionNearZero:
                continue
            want = oracles.eval_rendered(ast, bindings)
            assert cmath.isclose(mine, want, rel_tol=1e-14, abs_tol=1e-14)

    def test_division_near_zero_raises(self):
        with pytest.raises(DivisionNearZero):
            value("1/(z-z)", z=1.0)

    def test_unbound_variable_raises(self):
        with pytest.raises(UnboundVariable):
            value("z+h", z=1.0)

    @pytest.mark.parametrize(
        "src, message",
        [("exp(z)", r"exp\(800\+0j\) overflows"), ("(z^64)^2", r"\^2 overflows")],
    )
    def test_overflow_raises_expr_error(self, src, message):
        # cmath.exp and complex ** raise OverflowError, which is no diagnostic
        with pytest.raises(ExprError, match=message):
            value(src, z=800.0)


class TestParseErrors:
    def test_offset_and_expected_set(self):
        with pytest.raises(ParseError) as err:
            exprs.parse_expr("2 +* 3")
        assert err.value.offset == 3
        assert "number" in err.value.expected

    def test_unterminated_call(self):
        with pytest.raises(ParseError) as err:
            exprs.parse_expr("exp(")
        assert err.value.offset == 4

    def test_trailing_input_rejected(self):
        with pytest.raises(ParseError) as err:
            exprs.parse_expr("z z")
        assert "end of input" in str(err.value)

    def test_exponent_cap(self):
        with pytest.raises(ParseError):
            exprs.parse_expr("z^65")
        assert exprs.parse_expr("z^64") is not None

    def test_exponent_must_be_integer_literal(self):
        with pytest.raises(ParseError):
            exprs.parse_expr("z^(2)")


class TestParseConstant:
    def test_complex_literal(self):
        assert exprs.parse_constant("2+3i") == 2 + 3j

    def test_arithmetic_folds(self):
        assert exprs.parse_constant("(1+1i)^2") == pytest.approx(2j)

    def test_free_variables_of_a_tree(self):
        assert exprs.free_variables(exprs.parse_expr("2+3i")) == set()
        assert exprs.free_variables(exprs.parse_expr("exp(lambda)^2 * (1 - h)")) == {"z", "h"}

    def test_free_variables_rejected(self):
        with pytest.raises(UnboundVariable):
            exprs.parse_constant("2+h")


def random_expr(rng, depth):
    """Random expression tree over variables z and h; leaves when depth hits 0."""
    if depth == 0 or rng.uniform() < 0.25:
        roll = rng.integers(0, 3)
        if roll == 0:
            return exprs.Const(complex(rng.normal(), rng.normal()))
        return exprs.Var("z" if roll == 1 else "h")
    roll = rng.integers(0, 6)
    if roll < 4:
        cls = (exprs.Add, exprs.Sub, exprs.Mul, exprs.Div)[roll]
        return cls(random_expr(rng, depth - 1), random_expr(rng, depth - 1))
    if roll == 4:
        return exprs.Neg(random_expr(rng, depth - 1))
    # keep exponents and exp arguments small so magnitudes stay comparable
    inner = random_expr(rng, depth - 1)
    if rng.uniform() < 0.5:
        return exprs.IntPow(inner, int(rng.integers(0, 4)))
    return exprs.Exp(exprs.Mul(exprs.Const(0.3 + 0j), inner))
