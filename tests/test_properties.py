"""Property tests of the series kernel over randomized small inputs."""

from fractions import Fraction as F
from math import gcd

import pytest
from hypothesis import example, given, settings, strategies as st

from mahlerq import Series, lagrange_coeffs
from mahlerq.series import _compose_all

fractions = st.fractions(min_value=-4, max_value=4, max_denominator=6)


def series_strategy(order=5, constant=None, linear=None):
    def build(coeffs):
        cs = list(coeffs)
        if constant is not None:
            cs[0] = F(constant)
        if linear is not None:
            cs[1] = F(linear)
        return Series(cs)

    return st.lists(fractions, min_size=order + 1, max_size=order + 1).map(build)


any_series = series_strategy()
no_constant = series_strategy(constant=0)
unit_series = series_strategy(constant=1)
revertible = series_strategy(constant=0, linear=1)
invertible = any_series.filter(lambda s: s.coeff(0) != 0)


@given(any_series, any_series)
def test_mul_commutative(a, b):
    assert a * b == b * a


@given(any_series, any_series, any_series)
def test_mul_associative(a, b, c):
    assert (a * b) * c == a * (b * c)


@given(any_series, any_series, any_series)
def test_mul_distributes_over_add(a, b, c):
    assert a * (b + c) == a * b + a * c


@given(no_constant)
def test_log_of_exp(a):
    assert a.exp().log() == a


@given(no_constant)
def test_exp_of_log(b):
    u = b + 1  # constant term 1
    assert u.log().exp() == u


@given(unit_series, st.fractions(max_denominator=4), st.fractions(max_denominator=4))
def test_pow_additivity(a, p, q):
    assert a**p * a**q == a ** (p + q)


@given(invertible, st.integers(min_value=-5, max_value=5))
def test_pow_matches_repeated_mul(a, n):
    product = Series.one(a.order)
    for _ in range(abs(n)):
        product = product * a
    if n >= 0:
        assert a ** F(n) == product
    else:
        assert a ** F(n) * product == Series.one(a.order)


@given(any_series, invertible)
def test_division_undone_by_mul(a, b):
    assert (a / b) * b == a


@given(series_strategy(constant=1))
def test_theta_log_rule(a):
    assert a.log().theta() == a.theta() * a.invert()


@given(revertible)
def test_revert_round_trip(f):
    g = f.revert()
    z = Series.identity(f.order)
    assert g.compose(f) == z
    assert f.compose(g) == z


@settings(max_examples=100)
@given(series_strategy(order=7, constant=0))
def test_lagrange_matches_newton_reversion(phi):
    w = phi.exp().zshift(1)  # z * e^phi, order 8
    newton = w.revert()
    count = phi.order + 1
    assert lagrange_coeffs(phi, count) == newton.truncate(count)


@given(no_constant, no_constant)
def test_exp_turns_sums_into_products(a, b):
    assert (a + b).exp() == a.exp() * b.exp()


# ---------------------------------------------------------------------------
# Oracle: the kernel against a plain Fraction reference
# ---------------------------------------------------------------------------
# The reference works coefficient by coefficient on lists of Fractions:
# schoolbook products, the textbook invert/exp/log recurrences, Horner
# composition and reversion one coefficient at a time.  Generated
# coefficients have mixed, mostly non-unit denominators, a path the
# integral series of the pipeline rarely take.


def ref_mul(a, b):
    n = min(len(a), len(b)) - 1
    out = [F(0)] * (n + 1)
    for i in range(n + 1):
        for j in range(n + 1 - i):
            out[i + j] += a[i] * b[j]
    return out


def ref_invert(a):
    out = [1 / a[0]]
    for m in range(1, len(a)):
        out.append(-sum(a[j] * out[m - j] for j in range(1, m + 1)) / a[0])
    return out


def ref_exp(a):
    out = [F(1)]
    for m in range(1, len(a)):
        out.append(sum(j * a[j] * out[m - j] for j in range(1, m + 1)) / m)
    return out


def ref_log(a):
    out = [F(0)]
    for m in range(1, len(a)):
        out.append(a[m] - sum((j * out[j] * a[m - j] for j in range(1, m)), F(0)) / m)
    return out


def ref_compose(f, g):
    n = min(len(f), len(g)) - 1
    acc = [f[n]] + [F(0)] * n
    for m in range(n - 1, -1, -1):
        acc = ref_mul(acc, g[: n + 1])
        acc[0] += f[m]
    return acc


def ref_revert(f):
    g = [F(0), 1 / f[1]] + [F(0)] * (len(f) - 2)
    for k in range(2, len(f)):
        g[k] = -ref_compose(f, g)[k] / f[1]
    return g


def ref_pow(a, e):
    if e.denominator != 1:
        return ref_exp([e * x for x in ref_log(a)])
    e = e.numerator
    if e < 0:
        a, e = ref_invert(a), -e
    out = [F(1)] + [F(0)] * (len(a) - 1)
    for _ in range(e):
        out = ref_mul(out, a)
    return out


mixed = st.builds(F, st.integers(-20, 20), st.integers(2, 12))


@st.composite
def coeff_lists(draw, min_order=0, constant=None, linear=None):
    order = draw(st.integers(min_order, 6))
    cs = draw(st.lists(mixed, min_size=order + 1, max_size=order + 1))
    if constant is not None:
        cs[0] = draw(constant)
    if linear is not None:
        cs[1] = draw(linear)
    return cs


nonzero = mixed.filter(bool)
free = coeff_lists()
units = coeff_lists(constant=nonzero)
zero_constant = coeff_lists(constant=st.just(F(0)))
one_constant = coeff_lists(constant=st.just(F(1)))
reversible = coeff_lists(min_order=1, constant=st.just(F(0)), linear=nonzero)


def assert_matches(series, expected):
    assert series.coeffs == tuple(expected)
    assert series.denominator > 0
    assert gcd(series.denominator, *series.numerators) == 1


@given(free, free)
def test_mul_matches_reference(a, b):
    assert_matches(Series(a) * Series(b), ref_mul(a, b))


@given(units)
def test_invert_matches_reference(a):
    assert_matches(Series(a).invert(), ref_invert(a))


@given(zero_constant)
def test_exp_matches_reference(a):
    assert_matches(Series(a).exp(), ref_exp(a))


@given(one_constant)
def test_log_matches_reference(a):
    assert_matches(Series(a).log(), ref_log(a))


@given(free, zero_constant)
def test_compose_matches_reference(f, g):
    assert_matches(Series(f).compose(Series(g)), ref_compose(f, g))


@st.composite
def inner_lists(draw):
    """Coefficients of an inner series: constant term 0 and valuation 1 to 3
    where the order allows it."""
    cs = draw(zero_constant)
    valuation = draw(st.integers(1, 3))
    return [F(0)] * min(valuation, len(cs)) + cs[valuation:]


@given(st.lists(free, min_size=1, max_size=4), inner_lists())
@example([[F(3, 2)], [F(1, 2), F(1, 3), F(5, 7), F(-2, 9)]], [F(0), F(0), F(2, 3)])
@example([[F(1, 2), F(1, 3)], [F(-4, 5)]], [F(0), F(5, 6), F(1, 4), F(7, 3)])
@example([[F(2, 3), F(1, 2)]], [F(0)])
def test_compose_all_matches_reference(outers, inner):
    # Outers of several orders, order 0 among them, with non-unit
    # denominators, on an inner with a denominator, a valuation up to 3,
    # and an order below or above an outer's.
    results = _compose_all([Series(f) for f in outers], Series(inner))
    assert len(results) == len(outers)
    for f, result in zip(outers, results):
        assert_matches(result, ref_compose(f, inner))
        assert result == Series(f).compose(Series(inner))


@given(st.lists(free, max_size=3), units)
def test_compose_all_needs_inner_constant_term_0(outers, inner):
    with pytest.raises(ValueError, match="composition needs inner constant term 0"):
        _compose_all([Series(f) for f in outers], Series(inner))


@given(reversible)
def test_revert_matches_reference(f):
    assert_matches(Series(f).revert(), ref_revert(f))


@given(units, st.integers(min_value=-3, max_value=4))
def test_integer_pow_matches_reference(a, e):
    assert_matches(Series(a) ** e, ref_pow(a, F(e)))


@given(one_constant, st.builds(F, st.integers(-9, 9), st.integers(2, 5)))
def test_fractional_pow_matches_reference(a, e):
    assert_matches(Series(a) ** e, ref_pow(a, e))


def test_canonical_form():
    a, b = Series([F(2, 4), 1]), Series([F(1, 2), 1])
    assert a == b
    assert hash(a) == hash(b)
    assert (a.numerators, a.denominator) == ((1, 2), 2)
    assert Series([F(1, 2), F(1, 2)]).truncate(0) == Series([F(1, 2)])
    assert Series([1, F(1, 2)]).truncate(0).denominator == 1
