"""Tests for the per-model series pipeline and differential operators."""

import cmath
import math
import re
from collections import Counter, namedtuple
from fractions import Fraction as F
from functools import partial

import pytest

from mahlerq import (
    ConsistencyError,
    ConvergenceError,
    KVector,
    MirrorData,
    Model,
    Series,
    alpha,
    mahler_measure,
    pf2_applicable,
    pf_operator,
)
from mahlerq.mirror import (_f_split, f_series, g0_series, h_series, local_mirror_map,
                            mirror_map, period_coefficients)
from mahlerq.weights import enumerate_solutions
from oracles import (alpha_factorial, binary_splitting_sum, corrupt_last_period, corrupt_log_tail,
                     corrupt_mirror_map, corrupt_phi, gamma, jensen_measure_4444,
                     jensen_measure_5221, jensen_measure_quadratic, measure_by_f_series,
                     multinomial_diag, pf_apply, recorded_reversions)

M22 = Model.from_kvector((2, 2))
M333 = Model.from_kvector((3, 3, 3))
M244 = Model.from_kvector((2, 4, 4))
M236 = Model.from_kvector((2, 3, 6))
M5221 = Model.from_weights(5, (2, 2, 1))  # not the model of any k-vector


class TestAlpha:
    def test_333(self):
        assert [alpha(M333, m) for m in (1, 2, 3)] == [6, 90, 1680]

    def test_22_central_binomial(self):
        for m in range(8):
            assert alpha(M22, m) == math.comb(2 * m, m)

    def test_236(self):
        assert alpha(M236, 1) == 60

    def test_always_integer(self):
        for model in (M22, M333, M244, M236):
            for m in range(12):
                assert alpha(model, m).denominator == 1

    @pytest.mark.parametrize(
        "model, orders",
        [(Model.from_kvector(kv), range(61)) for n in (2, 3, 4) for kv in enumerate_solutions(n)]
        + [(Model.from_weights(k, w), range(61))
           for k, w in ((5, (2, 2, 1)), (9, (4, 3, 2)), (12, (4, 3, 3, 2)))]
        + [(Model.from_kvector(kv), (21,)) for kv in ((5, 5, 5, 5, 5), (2, 3, 7, 43, 1806))],
        ids=lambda value: getattr(value, "name", ""),
    )
    def test_multinomial_equals_factorial_quotient(self, model, orders):
        for m in orders:
            assert alpha(model, m) == alpha_factorial(model, m)


class TestPeriodCoefficients:
    # --weights models: weights need not divide k; L = lcm(k, w) is 30 for 5:2,3 and 10:5,3,2.
    MODELS = [Model.from_kvector(kv) for n in (2, 3, 4) for kv in enumerate_solutions(n)] + [
        Model.from_weights(12, (4, 3, 3, 2)), Model.from_weights(5, (2, 3)),
        Model.from_weights(10, (5, 3, 2)),
    ]

    @pytest.mark.parametrize("model", MODELS, ids=lambda m: m.name)
    def test_running_ratio_equals_closed_form(self, model):
        expected = [alpha(model, m) for m in range(61)]
        assert period_coefficients(model, 60) == expected
        assert period_coefficients(model, 0) == expected[:1]
        assert period_coefficients(model, 1) == expected[:2]

    def test_values_are_ints(self):
        assert all(type(a) is int for a in period_coefficients(M236, 12))

    def test_rejects_negative_order(self):
        with pytest.raises(ValueError):
            period_coefficients(M22, -1)


class TestBinarySplittingSum:
    NUMERATORS = [7, 0, -3, 12, 0, 0, -25, 1, 9]

    @pytest.mark.parametrize("length", range(1, 10))
    @pytest.mark.parametrize("p, s", [(1, 1), (2, 7), (-5, 3), (3, 1)])
    def test_equals_fraction_sum(self, length, p, s):
        nums = self.NUMERATORS[:length]
        den, z, n = 6, F(p, s), length - 1
        expected = sum(F(c, den) * z**m for m, c in enumerate(nums))
        assert F(binary_splitting_sum(nums, p, s), s**n * den) == expected

    def test_all_zero(self):
        assert binary_splitting_sum([0, 0, 0, 0], 5, 3) == 0

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            binary_splitting_sum([], 1, 2)


class TestMultinomialDiag:
    def test_values(self):
        assert multinomial_diag(KVector((2, 2)), 2) == 2
        assert multinomial_diag(KVector((3, 3, 3)), 2) == 0
        assert multinomial_diag(KVector((3, 3, 3)), 3) == 6

    def test_links_to_alpha(self):
        # c_{km} = alpha_m by substituting xi^k/k^k = z
        kv = KVector((2, 3, 6))
        model = Model.from_kvector(kv)
        for m in (1, 2, 3):
            assert multinomial_diag(kv, 6 * m) == alpha(model, m) * math.comb(
                6 * m, 6 * m
            )  # == alpha_m


class TestSeriesPipeline:
    def test_g0_22(self):
        assert g0_series(M22, 3).coeffs == (1, 2, 6, 20)

    def test_g0_333(self):
        assert g0_series(M333, 2).coeffs == (1, 6, 90)

    def test_g0_constant_term(self):
        assert g0_series(M244, 5).coeff(0) == 1

    def test_local_map_22_catalan(self):
        assert local_mirror_map(M22, 4).coeffs == (0, 1, 2, 5, 14)

    def test_local_map_333(self):
        assert local_mirror_map(M333, 3).coeffs == (0, 1, 6, 63)

    def test_maps_are_normalized(self):
        for model in (M22, M333, M244, M236):
            for series in (local_mirror_map(model, 6), mirror_map(model, 6)):
                assert series.coeff(0) == 0 and series.coeff(1) == 1

    def test_local_map_is_z_exp_f(self):
        Q = local_mirror_map(M333, 9)
        assert Q.shift_down(1) == f_series(M333, 8).exp()

    def test_theta_log_local_map_is_g0(self):
        # theta log Q = 1 + theta(f) = g0
        for model in (M22, M333, M244, M236):
            f = f_series(model, 10)
            assert f.theta() + 1 == g0_series(model, 10)


class TestGamma:
    def test_22_initial(self):
        assert gamma(M22, 1) == 2

    def test_h_22_prefix(self):
        assert h_series(M22, 4).coeffs == (0, 2, 7, F(74, 3), F(533, 6))

    def test_closed_form_equals_recursion(self):
        for model in (M22, M333, M244, M236):
            op = pf_operator(model)
            prev = F(0)
            for m in range(1, 11):
                ratio = F(alpha(model, m), alpha(model, m - 1))
                correction = sum(
                    1 / (m - 1 + aj) - 1 / (m - bj) for aj, bj in zip(op.a, op.b)
                ) * alpha(model, m)
                prev = ratio * prev + correction
                assert gamma(model, m) == prev, (model.name, m)

    def test_gamma_is_h_coefficient(self):
        h = h_series(M236, 6)
        assert [gamma(M236, m) for m in range(1, 7)] == list(h.coeffs[1:])
        with pytest.raises(ValueError):
            gamma(M236, 0)

    @pytest.mark.parametrize("model, order", [
        (M22, 12), (M333, 12), (M244, 12), (Model.from_kvector((3, 4, 4, 6)), 10),
        (Model.from_weights(12, (4, 3, 3, 2)), 10), (Model.from_weights(5, (2, 3)), 10),
        (Model.from_weights(7, (2, 2, 3)), 10), (Model.from_kvector((2, 3, 7, 43, 1806)), 3),
    ], ids=lambda x: getattr(x, "name", x))
    def test_int_bracket_equals_the_fraction_oracle(self, model, order):
        # h_series sums each harmonic bracket on ints over the operator's
        # parameters; the oracle sums it in Fractions over pf_operator's.
        h = h_series(model, order)
        assert h.coeff(0) == 0
        assert list(h.coeffs[1:]) == [gamma(model, m) for m in range(1, order + 1)]

    def test_initial_value_formula(self):
        # gamma_1 == alpha_1 * sum_j (1/a_j - 1/(1-b_j))
        for model in (M22, M333, M244, M236):
            op = pf_operator(model)
            bracket = sum(1 / aj - 1 / (1 - bj) for aj, bj in zip(op.a, op.b))
            assert gamma(model, 1) == alpha(model, 1) * bracket


class TestOperators:
    def test_reduced_333(self):
        op = pf_operator(M333)
        assert op.constant == 27
        assert op.a == (F(1, 3), F(2, 3))
        assert op.b == (0, 0)

    def test_reduced_236(self):
        op = pf_operator(M236)
        assert op.constant == 432
        assert op.a == (F(1, 6), F(5, 6))
        assert op.b == (0, 0)

    def test_reduced_244(self):
        op = pf_operator(M244)
        assert op.constant == 64
        assert op.a == (F(1, 4), F(3, 4))
        assert op.b == (0, 0)

    def test_reduced_2_5_10_10_10(self):
        op = pf_operator(Model.from_kvector((2, 5, 10, 10, 10)))
        assert op.a == (F(1, 10), F(3, 10), F(7, 10), F(9, 10))
        assert op.b == (0, 0, 0, 0)

    def test_constant_is_product_of_parts_powers(self):
        # k^k / prod w_i^w_i == prod k_i^w_i
        for model in (M22, M333, M244, M236):
            expected = math.prod(
                ki**wi for ki, wi in zip(model.kvec.parts, model.w)
            )
            assert pf_operator(model).constant == expected

    def test_pf2_applicable(self):
        assert pf2_applicable(M333)
        assert pf2_applicable(Model.from_kvector((4, 4, 4, 4)))
        assert not pf2_applicable(Model.from_kvector((3, 4, 4, 6)))

    def test_ab1_ratio_identity(self):
        for model in (M22, M333, M244, M236):
            op = pf_operator(model)
            for m in range(1, 13):
                lhs = op.constant * math.prod(
                    (m - 1 + aj) / (m - bj) for aj, bj in zip(op.a, op.b)
                )
                assert lhs == F(alpha(model, m), alpha(model, m - 1))

    def test_ab2_partial_fraction_identity(self):
        for model in (M333, M244, M236):
            op = pf_operator(model)
            k, w = model.k, model.w
            for m in range(1, 9):
                lhs = sum(
                    1 / (m - 1 + aj) - 1 / (m - bj) for aj, bj in zip(op.a, op.b)
                )
                rhs = sum(F(k, m * k - a) for a in range(k)) - sum(
                    F(wi, m * wi - a) for wi in w for a in range(wi)
                )
                assert lhs == rhs


ReferenceOperator = namedtuple("ReferenceOperator", "constant a b")


def reference_pf_operator(model, form):
    """(C, a, b) of pf_operator, computed on Fraction multisets; ``form`` may
    also be "unreduced", which pf_operator does not build: no cancellation,
    and a = 1 - r.  pf_apply reads the result as an operator."""
    k, w = model.k, model.w
    num = Counter(F(j, k) for j in range(k))
    den = Counter(F(j, wi) for wi in w for j in range(wi))
    if form == "reduced":
        common = num & den
        num, den = num - common, den - common
    a = num.elements() if form == "local" else (1 - r for r in num.elements())
    constant = F(k**k, math.prod(wi**wi for wi in w))
    return ReferenceOperator(constant, tuple(sorted(a)), tuple(sorted(den.elements())))


def reference_tail_bound(model, psi, order):
    """The tail bound of mahler_measure in Fraction arithmetic, with alpha_N
    from the closed factorial form."""
    z = 1 / (model.k * F(psi)) ** model.k
    constant, a, b = reference_pf_operator(model, "reduced")
    rho = constant * z
    for aj, bj in zip(a, b):
        rho *= max(F(1), (order + aj) / (order + 1 - bj))
    t_last = alpha(model, order) * z**order / order
    return float(t_last * rho / (1 - rho)) / model.k


class TestOperatorParameters:
    MODELS = [M22, M333, M236, Model.from_kvector((2, 5, 10, 10, 10)),
              Model.from_weights(12, (4, 3, 3, 2)), Model.from_weights(5, (2, 3)),
              Model.from_weights(7, (2, 2, 3))]

    @pytest.mark.parametrize("form", ["reduced", "local"])
    @pytest.mark.parametrize("model", MODELS, ids=lambda m: m.name)
    def test_int_numerators_match_fraction_multisets(self, model, form):
        op = pf_operator(model, form)
        assert (op.constant, op.a, op.b) == reference_pf_operator(model, form)


class TestAnnihilation:
    ORDER = 14

    @pytest.mark.parametrize("model", [M333, M244, M236], ids=lambda m: m.name)
    def test_reduced_kills_g0_and_g1(self, model):
        op = pf_operator(model)
        g0 = g0_series(model, self.ORDER)
        zero = Series.zero(self.ORDER)
        assert pf_apply(op, g0, zero, model) == (zero, zero)
        h = h_series(model, self.ORDER)
        assert all(part.is_zero() for part in pf_apply(op, h, g0, model))

    def test_reduced_on_22_log_solution_is_inhomogeneous(self):
        # With a first-order operator there is no second solution: the
        # logarithmic combination satisfies L(g1) = 1 instead of 0.
        g0 = g0_series(M22, self.ORDER)
        res = pf_apply(pf_operator(M22), h_series(M22, self.ORDER), g0)
        assert res == (Series.one(self.ORDER), Series.zero(self.ORDER))

    @pytest.mark.parametrize("model", [M22, M333, M244, M236], ids=lambda m: m.name)
    def test_local_kills_one_and_log_solution(self, model):
        op = pf_operator(model, "local")
        one, zero = Series.one(self.ORDER), Series.zero(self.ORDER)
        assert pf_apply(op, one, zero) == (zero, zero)
        assert pf_apply(op, f_series(model, self.ORDER), one) == (zero, zero)

    @pytest.mark.parametrize("model", [M22, M333, M244, M236], ids=lambda m: m.name)
    def test_unreduced_kills_g0(self, model):
        op = reference_pf_operator(model, "unreduced")
        zero = Series.zero(self.ORDER)
        assert pf_apply(op, g0_series(model, self.ORDER), zero) == (zero, zero)

    def test_residual_keeps_the_input_order(self):
        op = pf_operator(M333)
        res = pf_apply(op, Series([1, 2, 3]), Series([4, 5, 6]))
        assert [part.order for part in res] == [2, 2]

    def test_lower_order_log_part_truncates_the_residual(self):
        # g1 with its log part cut to order 5 still solves the operator there.
        op = pf_operator(M333)
        g0 = g0_series(M333, self.ORDER)
        h = h_series(M333, self.ORDER)
        res = pf_apply(op, h, g0.truncate(5))
        assert [part.order for part in res] == [5, 5]
        assert all(part.is_zero() for part in res)
        skewed = pf_apply(op, Series([1, 2, 3, 4]), Series([1, 1]))
        assert skewed == pf_apply(op, Series([1, 2]), Series([1, 1]))
        assert not all(part.is_zero() for part in skewed)

    def test_constant_mismatch_detected(self):
        with pytest.raises(ValueError):
            pf_apply(pf_operator(M333), g0_series(M244, 4), Series.zero(4), M244)


@pytest.mark.parametrize("call, message", [
    (lambda: alpha(M333, -1), "index must be nonnegative"),
    (lambda: local_mirror_map(M333, 0), "maps need order >= 1"),
    (lambda: mirror_map(M333, 0), "maps need order >= 1"),
    (lambda: MirrorData.build(M333, 0), "order must be at least 1"),
    (lambda: pf_operator(M333, "unreduced"), "unknown operator form 'unreduced'"),
], ids=["alpha-negative", "Q-order-0", "q-order-0", "build-order-0", "unreduced-form"])
def test_invalid_arguments_are_refused(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


class TestMirrorData:
    def test_invariants(self):
        md = MirrorData.build(M333, 8)
        assert md.q.shift_down(1) == (md.h / md.g0).truncate(7).exp()
        assert md.Q.shift_down(1) == md.f.truncate(7).exp()
        assert md.Q.compose(md.Q.revert()) == Series.identity(8)
        assert md.q.compose(md.q.revert()) == Series.identity(8)

    def test_build_stores_no_reversion(self, monkeypatch):
        # zq and zQ are derived: the build reverts nothing, and ``series``
        # reverts q or Q, by Lagrange inversion of phi or f, only when asked
        # for zq or zQ.  Newton's reversion is the oracle.
        reverted = recorded_reversions(monkeypatch)
        assert MirrorData._fields == ("model", "order", "g0", "h", "f", "phi", "Q", "q")
        md = MirrorData.build(M333, 8)
        assert reverted == []
        assert md.series("Q") is md.Q and reverted == []
        assert md.series("zq") == md.q.revert() and reverted == [md.phi]
        assert md.series("zQ") == md.Q.revert() and reverted == [md.phi, md.f]

    # Each fault halts the build on its own route: the last period against
    # its closed form, h against the Frobenius identity, phi against
    # phi * g0 = h, and q, whose floor gaps all hold, against integrality.
    FAULTS = [
        (corrupt_last_period, "running-ratio and closed-form periods disagree for model 3,3,3 "
                              "at order 8, m=8"),
        (lambda mp: corrupt_log_tail(mp, 5), "log tail h fails the Frobenius identity for "
                                             "model 3,3,3 at order 8, m=5"),
        (lambda mp: corrupt_phi(mp, M333, 8, 3), "phi * g0 and h disagree for model 3,3,3 "
                                                 "at order 8, m=3"),
        (lambda mp: corrupt_mirror_map(mp, M333, 8, F(1, 2), 3),
         "q is not integral for model 3,3,3 at order 8, whose floor gaps all hold"),
    ]

    @pytest.mark.parametrize("corrupt, message", FAULTS,
                             ids=["period", "log-tail", "phi", "floor-gap"])
    def test_build_checks_its_data(self, monkeypatch, corrupt, message):
        corrupt(monkeypatch)
        with pytest.raises(ConsistencyError, match=f"^{re.escape(message)}$"):
            MirrorData.build(M333, 8)

    @pytest.mark.parametrize("model", [M22, M333, M236, Model.from_kvector((2, 3, 7, 42))])
    @pytest.mark.parametrize("order", [1, 2, 9])
    def test_maps_equal_the_public_functions(self, model, order):
        md = MirrorData.build(model, order)
        assert md.Q == local_mirror_map(model, order)
        assert md.q == mirror_map(model, order)

    def test_build_computes_each_period_series_once(self, monkeypatch):
        import mahlerq.mirror as mirror

        calls = []
        exact = mirror.period_coefficients

        def counted(model, order):
            calls.append(order)
            return exact(model, order)

        monkeypatch.setattr(mirror, "period_coefficients", counted)
        MirrorData.build(M333, 29)
        assert calls == [29]

    def test_series_lookup(self):
        md = MirrorData.build(M22, 4)
        assert md.series("Q").coeffs == (0, 1, 2, 5, 14)
        with pytest.raises(KeyError):
            md.series("nope")

    def test_str_lists_the_nonzero_terms(self):
        assert str(MirrorData.build(M333, 3).q) == "1*z + 15*z^2 + 279*z^3 + O(z^4)"


class TestMahlerMeasure:
    def test_22_closed_form(self):
        result = mahler_measure(M22, 2, 64)
        assert abs(result.log_measure - math.log((2 + math.sqrt(3)) / 2)) < 1e-6
        assert result.tail_bound < 1e-30
        assert abs(result.measure - (2 + math.sqrt(3)) / 2) < 1e-6

    def test_22_contour_integral_oracle(self):
        from scipy.integrate import quad

        value, err = quad(lambda t: math.log(abs(2 - math.cos(t))), 0, 2 * math.pi)
        oracle = value / (2 * math.pi)
        assert err < 1e-9
        assert abs(mahler_measure(M22, 2, 64).log_measure - oracle) < 1e-7

    @pytest.mark.parametrize(
        "kv, psi", [((3, 3, 3), 2), ((2, 4, 4), 1), ((2, 3, 6), 1)], ids=str
    )
    def test_torus_integral_oracle(self, kv, psi):
        # m(F_psi) = (2 pi)^-2 * integral over the torus of
        # log|psi - (x1^k1 + x2^k2 + 1) / (k x1 x2)|, with k = lcm of the parts.
        from scipy.integrate import dblquad

        model = Model.from_kvector(kv)
        k, (k1, k2, _) = model.k, kv

        def integrand(t2, t1):
            x1, x2 = cmath.exp(1j * t1), cmath.exp(1j * t2)
            return math.log(abs(psi - (x1**k1 + x2**k2 + 1) / (k * x1 * x2)))

        value, err = dblquad(integrand, 0, 2 * math.pi, 0, 2 * math.pi)
        scale = 4 * math.pi**2
        result = mahler_measure(model, psi, 200)
        assert err / scale < 1e-8
        assert abs(result.log_measure - value / scale) <= (
            result.tail_bound + err / scale + 1e-12
        )

    @pytest.mark.parametrize("psi", [F(3, 2), F(2), F(81, 80)], ids=str)
    def test_4444_jensen_oracle(self, psi):
        # Near the edge psi_0 = 1 the series converges slowly: at 81/80 the
        # order-200 truncation is off by ~4e-11, inside its tail bound.
        result = mahler_measure(Model.from_kvector((4, 4, 4, 4)), psi, 200)
        coarse, fine = jensen_measure_4444(float(psi), 200), jensen_measure_4444(float(psi), 400)
        assert abs(result.log_measure - coarse) <= result.tail_bound + abs(coarse - fine) + 1e-14

    @pytest.mark.parametrize(
        "kv, psi",
        [((2, 3, 6), F(1, 2)), ((2, 3, 6), F(1)), ((2, 4, 4), F(3, 4)), ((2, 4, 4), F(1)),
         ((2, 3, 7, 42), F(2, 21)), ((2, 3, 7, 42), F(1, 10))],
        ids=str,
    )
    def test_jensen_oracle_from_n_over_k(self, kv, psi):
        # On the torus |P/(k x_1...x_(n-1))| <= n/k, so for psi >= n/k the
        # zeros of F_psi stay off the torus (but for one point at n/k) and
        # log psi - f(z)/k is m(F_psi).
        self._assert_jensen(Model.from_kvector(kv), psi)

    def test_5221_laurent_polynomial_gives_alpha(self):
        # The constant term of L^(5m), L = y1 + y2 + y1^-2 y2^-2, is alpha_m:
        # the Laurent polynomial of jensen_measure_5221 is the model's.
        power = {(0, 0): 1}
        for m in range(1, 4):
            for _ in range(5):
                step = {}
                for (a, b), c in power.items():
                    for da, db in ((1, 0), (0, 1), (-2, -2)):
                        step[a + da, b + db] = step.get((a + da, b + db), 0) + c
                power = step
            assert power[0, 0] == alpha(M5221, m)

    @pytest.mark.parametrize("psi", [F(3, 5), F(1), F(2)], ids=str)
    def test_weights_model_jensen_oracle_from_n_over_k(self, psi):
        # n/k = 3/5 for (5; 2, 2, 1), and the same bound on the torus holds.
        self._assert_jensen(M5221, psi)

    @pytest.mark.xfail(
        strict=True,
        reason="defect: for C^(1/k)/k < psi < n/k the series converges, but F_psi "
        "has zeros on the torus, so log psi - f(z)/k is not m(F_psi)",
    )
    @pytest.mark.parametrize(
        "model, psi",
        [(M236, F(37, 80)), (M244, F(57, 80)), (Model.from_kvector((2, 3, 7, 42)), F(3, 40)),
         (M5221, F(29, 50))],
        ids=lambda value: getattr(value, "name", str(value)),
    )
    def test_jensen_oracle_inside_the_disk_below_n_over_k(self, model, psi):
        self._assert_jensen(model, psi)

    @staticmethod
    def _assert_jensen(model, psi):
        result = mahler_measure(model, psi, 800)
        if model.kvec is None:
            jensen = jensen_measure_5221
        else:
            jensen = partial(jensen_measure_quadratic, model.kvec)
        coarse, fine = jensen(float(psi), 200), jensen(float(psi), 400)
        assert abs(result.log_measure - coarse) <= result.tail_bound + abs(coarse - fine) + 1e-14

    @pytest.mark.parametrize(
        "kv, psi, order",
        [((2, 2), F(9, 8), 40), ((3, 3, 3), F(41, 40), 120), ((2, 3, 6), F(1, 2), 60),
         ((4, 4, 4, 4), F(3, 2), 30), ((2, 3, 7, 42), F(3, 40), 20)],
        ids=str,
    )
    def test_tail_bound_matches_closed_form(self, kv, psi, order):
        model = Model.from_kvector(kv)
        expected = reference_tail_bound(model, psi, order)
        assert 0 < expected < math.inf
        assert mahler_measure(model, psi, order).tail_bound == expected

    @pytest.mark.parametrize("model, psi, order", [
        (Model.from_weights(5, (2, 3)), F(1, 2), 40),
        (Model.from_weights(7, (2, 2, 3)), F(2, 3), 30),
        (Model.from_weights(12, (4, 3, 3, 2)), F(1), 50),
    ], ids=lambda x: getattr(x, "name", str(x)))
    def test_tail_bound_of_weights_models(self, model, psi, order):
        # Weights that need not divide k put the parameters over lcm(k, w).
        expected = reference_tail_bound(model, psi, order)
        assert 0 < expected < math.inf
        assert mahler_measure(model, psi, order).tail_bound == expected

    def test_psi_forms_give_equal_records(self):
        records = [mahler_measure(M333, psi, 40)
                   for psi in (F(5, 2), (5, 2), (-10, -4), (15, 6))]
        assert all(r == records[0] for r in records)
        assert mahler_measure(M333, 2, 40) == mahler_measure(M333, (2, 1), 40)
        assert mahler_measure(M333, 2, 40) == mahler_measure(M333, F(2), 40)

    def test_psi_and_z_read_as_fractions(self):
        result = mahler_measure(M333, (10, 4), 40)
        assert result.psi_pair == (5, 2) and result.z_pair == (8, 3375)
        assert type(result.psi) is F and result.psi == F(5, 2)
        assert type(result.z) is F and result.z == 1 / (3 * F(5, 2)) ** 3
        assert result.z == F(*result.z_pair)

    @pytest.mark.parametrize("psi, error", [
        ((1, 0), ZeroDivisionError), ((F(1, 2), 3), TypeError), ((1.5, 1), TypeError),
        (2.5, TypeError), ((-5, 2), ValueError), ((0, 3), ValueError),
    ], ids=str)
    def test_rejects_bad_psi(self, psi, error):
        with pytest.raises(error):
            mahler_measure(M333, psi, 8)

    def test_large_psi_asymptotic(self):
        result = mahler_measure(M22, 1000, 16)
        assert abs(result.log_measure - math.log(1000)) < 1e-5

    def test_convergence_guard(self):
        with pytest.raises(ConvergenceError, match=r"psi = 1/10\) .* model 3,3,3"):
            mahler_measure(M333, F(1, 10), 8)
        # |z|*C == 1 exactly: not strictly inside
        with pytest.raises(ConvergenceError, match="disk of convergence of model 2,2"):
            mahler_measure(M22, 1, 8)

    def test_rejects_nonpositive_psi(self):
        with pytest.raises(ValueError):
            mahler_measure(M22, F(-2), 8)

    def test_measure_beyond_float_range_names_psi(self):
        # m = log psi - f(z)/3 is ~921 at psi = 10^400, and exp(921) is no float.
        with pytest.raises(ValueError, match=r"overflows a float at psi = 10{400}$"):
            mahler_measure(M333, 10**400, 5)
        assert mahler_measure(M333, 10**300, 5).measure == pytest.approx(1e300, rel=1e-12)


# Every model with n <= 4, three --weights models and one n = 5 model.
MEASURE_MODELS = [Model.from_kvector(kv) for n in (2, 3, 4) for kv in enumerate_solutions(n)] + [
    Model.from_weights(12, (4, 3, 3, 2)), Model.from_weights(5, (2, 3)),
    Model.from_weights(7, (2, 2, 3)),
]
M5 = Model.from_kvector((2, 3, 7, 43, 1806))
# The measure-sweep points of bench/run.py: order 800, psi just outside the disk.
SWEEP = [(kv, F(psi)) for kv, grid in [
    ((3, 3, 3), ("81/80", "83/80", "87/80", "89/80")),
    ((2, 3, 6), ("37/80", "39/80", "41/80", "43/80")),
    ((2, 4, 4), ("57/80", "59/80", "61/80", "63/80")),
    ((4, 4, 4, 4), ("81/80", "83/80", "87/80", "89/80")),
] for psi in grid]


def psi_near_edge(model):
    """The first psi on the grid of 1/80 past psi_0 = prod_i w_i^(-w_i/k), the
    edge of the disk of convergence (81/80 for psi_0 = 1)."""
    psi0 = math.exp(-sum(wi * math.log(wi) for wi in model.w) / model.k)
    return F(math.ceil(psi0 * 80) + 1, 80)


class TestMeasureAgainstFSeriesRoute:
    """mahler_measure sums f(z) on the term ratio; the f_series route of
    tests/oracles.py forms f's coefficients over one denominator first.
    Both divide the same exact rational once, so every field agrees."""

    @pytest.mark.parametrize("order", [1, 2, 3, 40, 200])
    @pytest.mark.parametrize("model", MEASURE_MODELS, ids=lambda m: m.name)
    def test_records_equal(self, model, order):
        for psi in (psi_near_edge(model), psi_near_edge(model) + 1):
            assert mahler_measure(model, psi, order) == measure_by_f_series(model, psi, order)

    @pytest.mark.parametrize("order", [1, 2, 3, 40])
    def test_records_equal_n5(self, order):
        psi = psi_near_edge(M5)
        assert mahler_measure(M5, psi, order) == measure_by_f_series(M5, psi, order)

    @pytest.mark.parametrize("kv, psi", SWEEP, ids=str)
    def test_sweep_records_equal(self, kv, psi):
        model = Model.from_kvector(kv)
        assert mahler_measure(model, psi, 800) == measure_by_f_series(model, psi, 800)

    def test_infinite_tail_bound(self):
        # 12:4,3,3,2 pairs a = 5/6 with b = 1/2 and a = 11/12 with b = 2/3: at
        # order 1 the bound on the term ratio past N reaches 1 for this psi,
        # so the geometric tail has no sum.
        model = Model.from_weights(12, (4, 3, 3, 2))
        result = mahler_measure(model, F(27, 80), 1)
        assert result.tail_bound == math.inf
        assert result == measure_by_f_series(model, F(27, 80), 1)

    @pytest.mark.parametrize("model", MEASURE_MODELS, ids=lambda m: m.name)
    def test_split_is_f_at_z_exactly(self, model):
        z = 1 / (model.k * psi_near_edge(model)) ** model.k
        for order in (1, 2, 5, 60):
            P, Q, B, T = _f_split(model, z.numerator, z.denominator, order)
            exact = sum(F(alpha(model, j), j) * z**j for j in range(1, order + 1))
            assert F(T, B * Q) == exact
            assert T / (B * Q) == float(exact)
            assert F(P, Q) == alpha(model, order) * z**order

    def test_reads_no_period_list(self, monkeypatch):
        import mahlerq.mirror as mirror

        def unused(*args):
            raise AssertionError("mahler_measure built a period list")

        monkeypatch.setattr(mirror, "f_series", unused)
        monkeypatch.setattr(mirror, "period_coefficients", unused)
        result = mahler_measure(M333, F(81, 80), 800)
        assert result.log_measure < 0 < result.tail_bound < 1e-15
