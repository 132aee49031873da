"""Unit tests for the exact series kernel, pinned to hand-computed values."""

import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

import mahlerq
from mahlerq import Series, lagrange_coeffs
from oracles import monomial, recorded_calls

SRC = Path(mahlerq.__file__).resolve().parents[1]


class TestBasics:
    def test_coeff_readback(self):
        s = Series([1, 2, 6])
        assert s.coeff(2) == 6
        assert s.coeff(0) == 1

    def test_coeff_zero_constant(self):
        assert Series.identity(1).coeff(0) == 0

    def test_coeff_out_of_range(self):
        with pytest.raises(IndexError):
            Series.identity(1).coeff(2)

    def test_constructor_pads_and_truncates(self):
        assert Series([1], 3).coeffs == (1, 0, 0, 0)
        assert Series([1, 2, 3, 4], 1).coeffs == (1, 2)

    def test_truncate_refuses_a_negative_order(self):
        s = Series([1, 2, 3])
        assert s.truncate(0) == Series([1])
        for order in (-1, -3):
            with pytest.raises(ValueError, match="nonnegative"):
                s.truncate(order)

    def test_floats_rejected(self):
        with pytest.raises(TypeError):
            Series([0.5])

    @pytest.mark.parametrize("call, error, message", [
        (lambda: Series([1], order=-1), ValueError, "order must be nonnegative"),
        (lambda: Series([]), ValueError, "a series needs at least its constant coefficient"),
        (lambda: Series.identity(0), ValueError, "identity needs order >= 1"),
        (lambda: Series([1, 2, 3]).truncate(3), ValueError, "truncate cannot extend a series"),
        (lambda: Series([1, 2]).zshift(-1), ValueError, "zshift amount must be nonnegative"),
        (lambda: Series([0, 1]).shift_down(2), ValueError, "shift_down amount out of range"),
        (lambda: Series([0, 1]).shift_down(-1), ValueError, "shift_down amount out of range"),
        (lambda: Series([0, 1, 2]).shift_down(2), ValueError,
         "shift_down needs a zero of that order"),
        (lambda: Series([1, 2]) / 0, ZeroDivisionError, "division of a series by zero"),
    ], ids=["negative-order", "no-coefficient", "identity-order-0", "truncate-beyond",
            "zshift-negative", "shift-down-beyond", "shift-down-negative",
            "shift-down-nonzero", "divide-by-0"])
    def test_out_of_range_arguments_are_refused(self, call, error, message):
        with pytest.raises(error, match=f"^{message}$"):
            call()

    def test_str_shows_the_constant_term(self):
        assert str(Series([3, 0, F(-1, 2)])) == "3 + -1/2*z^2 + O(z^3)"

    def test_value_equality_and_hash(self):
        assert Series([1, F(1, 2)]) == Series([F(2, 2), F(2, 4)])
        assert hash(Series([1, 2])) == hash(Series([1, 2]))
        assert Series([1, 2]) != Series([1, 2, 0])  # different orders


class TestArithmetic:
    def test_mul_geometric(self):
        one_plus = Series([1, 1], 2)
        one_minus = Series([1, -1], 2)
        assert (one_plus * one_minus).coeffs == (1, 0, -1)

    def test_mul_hand_convolution(self):
        assert (Series([1, 2, 6]) * Series([1, -2, 0])).coeffs == (1, 0, 2)

    def test_mul_identity(self):
        s = Series([3, F(1, 7), 2])
        assert s * Series.one(2) == s

    def test_mismatched_orders_truncate(self):
        a = Series([1, 1, 1, 1, 1])
        b = Series([1, 1])
        assert (a + b).order == 1
        assert (a * b).coeffs == (1, 2)

    def test_scalar_ops(self):
        s = Series([1, 2])
        assert (s + 1).coeffs == (2, 2)
        assert (3 * s).coeffs == (3, 6)
        assert (s / 2).coeffs == (F(1, 2), 1)
        assert (1 - s).coeffs == (0, -2)

    def test_invert_geometric(self):
        assert Series([1, -1], 4).invert().coeffs == (1, 1, 1, 1, 1)

    def test_invert_long_division(self):
        assert Series([1, -2, -1, -2]).invert().coeffs == (1, 2, 5, 14)

    def test_invert_needs_unit(self):
        with pytest.raises(ValueError):
            Series.identity(2).invert()

    def test_series_division(self):
        num = Series([0, 2, 4], 4)
        den = Series([2, 0, 0], 4)
        assert (num / den).coeffs == (0, 1, 2, 0, 0)


class TestTranscendental:
    def test_exp_basic(self):
        assert Series([0, 1], 2).exp().coeffs == (1, 1, F(1, 2))
        assert Series.zero(3).exp() == Series.one(3)

    def test_exp_hand_expansion(self):
        assert Series([0, 2, 3]).exp().coeffs == (1, 2, 5)

    def test_exp_needs_zero_constant(self):
        with pytest.raises(ValueError):
            Series.one(2).exp()

    def test_log_basic(self):
        assert Series([1, 1], 3).log().coeffs == (0, 1, F(-1, 2), F(1, 3))
        assert Series.one(3).log() == Series.zero(3)

    def test_log_exp_round_trip(self):
        a = Series([0, 1, 1, 0, 0], 4)
        assert a.exp().log() == a

    def test_log_needs_unit_constant(self):
        with pytest.raises(ValueError):
            Series([2, 1]).log()

    def test_pow_binomial_half(self):
        assert (Series([1, -4], 2) ** F(-1, 2)).coeffs == (1, 2, 6)

    def test_pow_integer(self):
        assert (Series([1, 1], 2) ** 2).coeffs == (1, 2, 1)

    def test_pow_fractional_exponent(self):
        s = Series([1, 0, -1], 3) ** F(-9, 2)
        assert s.coeffs == (1, 0, F(9, 2), 0)

    def test_pow_fractional_needs_unit(self):
        with pytest.raises(ValueError):
            Series([2, 1]) ** F(1, 2)

    def test_pow_needs_nonzero_constant(self):
        with pytest.raises(ValueError):
            Series([0, 1]) ** 2

    def test_pow_negative_integer(self):
        s = Series([1, 1], 3)
        assert s ** -2 == s.invert() * s.invert()


class TestCalculus:
    def test_theta(self):
        assert Series([0, 0, 1], 2).theta().coeffs == (0, 0, 2)
        assert Series.constant(5, 3).theta() == Series.zero(3)
        assert Series([0, 1, 6, 63]).theta().coeffs == (0, 1, 12, 189)


class TestComposition:
    def test_compose_linear(self):
        f = Series([0, 1, 1])
        g = Series([0, 2, 0])
        assert f.compose(g).coeffs == (0, 2, 4)

    def test_compose_identity(self):
        f = Series([5, F(1, 3), 2, 7])
        assert f.compose(Series.identity(f.order)) == f

    def test_compose_geometric_square(self):
        geo = Series([1, -1], 4).invert()
        assert geo.compose(monomial(1, 2, 4)).coeffs == (1, 0, 1, 0, 1)

    def test_compose_needs_zero_constant(self):
        with pytest.raises(ValueError):
            Series([0, 1]).compose(Series([1, 1]))

    def test_revert_identity(self):
        z = Series.identity(5)
        assert z.revert() == z

    def test_revert_signed_catalan(self):
        f = Series([0, 1, 1], 5)
        assert f.revert().coeffs == (0, 1, -1, 2, -5, 14)

    def test_revert_round_trip(self):
        f = Series([0, 1, 3, F(-1, 2), 0, 2], 8)
        g = f.revert()
        assert g.compose(f) == Series.identity(8)
        assert f.compose(g) == Series.identity(8)

    def test_revert_preconditions(self):
        with pytest.raises(ValueError):
            Series([1, 1]).revert()
        with pytest.raises(ValueError):
            Series([0, 0, 1]).revert()

    @pytest.mark.parametrize("order, steps", [(9, 4), (29, 5)])
    def test_revert_composes_once_per_newton_step(self, monkeypatch, order, steps):
        # Precision doubles 1 -> 2 -> 4 -> 8 -> 9 (and ... -> 16 -> 29), and
        # each step reads f'(g) off theta of the f(g) it composed.
        calls = recorded_calls(monkeypatch, "compose")
        f = Series([0, 2, 1, F(-1, 3), 5], order)
        g = f.revert()
        assert len(calls) == steps
        monkeypatch.undo()
        assert f.compose(g) == Series.identity(order)


class TestLagrange:
    def test_phi_zero_gives_identity(self):
        assert lagrange_coeffs(Series.zero(5), 4) == Series.identity(4)

    def test_matches_revert(self):
        phi = Series([0, 2, F(-1, 3), 1, 0, 4], 8)
        w = phi.exp().zshift(1)  # z * e^phi at order 9
        assert lagrange_coeffs(phi, 8) == w.revert().truncate(8)

    def test_order_guard(self):
        with pytest.raises(ValueError):
            lagrange_coeffs(Series.zero(2), 4)

    @pytest.mark.parametrize("phi, count, message", [
        (Series.zero(2), 0, "count must be positive"),
        (Series([1, 1]), 2, r"lagrange_coeffs needs phi\(0\) = 0"),
    ], ids=["count-0", "phi0-nonzero"])
    def test_malformed_requests_are_refused(self, phi, count, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            lagrange_coeffs(phi, count)



class TestScalarTypes:
    def test_int_arithmetic_does_not_load_fractions(self):
        # Scalars are tested as Series and int before Fraction, and a
        # Fraction is built only where a public value is one.
        script = (
            "import sys\n"
            "from mahlerq.series import Series\n"
            "a, x = Series([1, 2, 3, 4]), Series([0, 2, 3, 5])\n"
            "values = [a * a, a + 1, 1 - a, 3 * a, a / 2, a / a, a ** 3, a ** -2,\n"
            "          x.revert(), x.exp(), a.log(), a.invert(), a.compose(x)]\n"
            "texts = repr(a / 3), str(a.log())\n"
            "print('fractions' in sys.modules, end=' ')\n"
            "values[0].coeffs\n"
            "print('fractions' in sys.modules)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-S", "-c", script], capture_output=True, text=True, cwd=SRC
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "False True\n"

    @pytest.mark.parametrize("scalar", [3, -2, F(5, 3), F(-1, 4), True])
    def test_int_and_fraction_scalars_agree(self, scalar):
        a = Series([F(1, 2), 3, F(-7, 5), 4])
        value = F(scalar)
        assert a * scalar == Series([c * value for c in a.coeffs])
        assert a + scalar == Series([a.coeffs[0] + value, *a.coeffs[1:]])
        assert a / scalar == Series([c / value for c in a.coeffs])

    @pytest.mark.parametrize("other", [0.5, "1", None, 1j])
    def test_other_scalars_are_refused(self, other):
        a = Series([1, 2])
        for op in (lambda: a * other, lambda: a + other, lambda: a / other,
                   lambda: a ** other, lambda: Series([other])):
            with pytest.raises(TypeError):
                op()

    @pytest.mark.parametrize("lead", [1, -1, 3, F(-2, 7)])
    def test_revert_seed_is_the_inverse_linear_coefficient(self, lead):
        x = Series([0, lead, 1, 2], 3)
        assert x.revert().coeff(1) == 1 / F(lead)
        assert x.compose(x.revert()) == Series.identity(3)
