"""Tests for the change of variables, Moebius/Lambert inversion and reports."""

from collections import Counter
from fractions import Fraction as F

import pytest

from mahlerq import (
    ConsistencyError,
    MirrorData,
    Model,
    Series,
    integrality_report,
    lambert_invert,
    lambert_series,
    product_check,
)
from mahlerq.inversion import g0_expansions, u_series, v_series
from oracles import (corrupt_exponents, corrupt_g0_column, corrupt_last_period,
                     corrupt_log_tail, corrupt_reversion, cubic_theta, eisenstein_e4,
                     eisenstein_odd, elliptic_333, inverse_j, level2_columns, monomial,
                     recorded_calls)

M22 = Model.from_kvector((2, 2))
M333 = Model.from_kvector((3, 3, 3))


def mobius(m: int) -> int:
    """Moebius function by trial-division factorization (reference for the sieve)."""
    if m < 1:
        raise ValueError("mobius is defined on positive integers")
    result = 1
    p = 2
    while p * p <= m:
        if m % p == 0:
            m //= p
            if m % p == 0:
                return 0
            result = -result
        p += 1 if p == 2 else 2
    if m > 1:
        result = -result
    return result


def literal_inversion(u, alternating):
    """-(1/m^2) sum_{d|m} mu(m/d) (+-1)^d u_d, summed term by term."""
    return [
        -sum(
            (mobius(m // d) * (-1 if alternating and d % 2 else 1) * u[d - 1]
             for d in range(1, m + 1) if m % d == 0),
            F(0),
        ) / (m * m)
        for m in range(1, len(u) + 1)
    ]


def binomial_factor(sign: int, m: int, exponent: F, order: int) -> Series:
    """(1 - sign*t^m)^exponent to ``order``, from the generalised binomial series.

    The coefficient of t^(m*j) is C(exponent, j) * (-sign)^j; this holds for
    integer, negative and fractional exponents alike.
    """
    coeffs = [F(0)] * (order + 1)
    term = F(1)
    for j in range(order // m + 1):
        coeffs[m * j] = term
        term = term * (exponent - j) * -sign / (j + 1)
    return Series(coeffs)


def literal_product(b, alternating):
    """t * prod_{m<=M} (1 - (+-t)^m)^(m*b_m) mod t^(M+1), factor by factor,
    for the column b of b_1..b_M."""
    M = b.order
    prod = Series.one(M)
    for m, bm in enumerate(b.coeffs[1:], start=1):
        prod = prod * binomial_factor((-1) ** m if alternating else 1, m, m * bm, M)
    return prod.zshift(1).truncate(M)


class TestMobius:
    def test_values(self):
        assert [mobius(m) for m in range(1, 13)] == [
            1, -1, -1, 0, -1, 1, -1, 0, 0, 1, -1, 0,
        ]

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            mobius(0)


class TestUV:
    def test_22_all_zero(self):
        md = MirrorData.build(M22, 13)
        assert u_series(md, 12) == Series.zero(12)
        assert v_series(md, 12) == Series.zero(12)

    def test_333_first_values(self):
        md = MirrorData.build(M333, 6)
        assert u_series(md, 5).coeff(1) == -9
        assert v_series(md, 5).coeff(1) == 9

    def test_rational_expressions_are_reciprocal(self):
        md = MirrorData.build(M333, 8)
        g0, h = md.g0, md.h
        denom = g0 * g0 + g0 * h.theta() - h * g0.theta()
        forward = g0 * g0 * g0 / denom
        backward = denom / (g0 * g0 * g0)
        assert forward * backward == Series.one(8)

    def test_order_guard(self):
        md = MirrorData.build(M333, 4)
        with pytest.raises(ValueError):
            u_series(md, 9)
        with pytest.raises(ValueError):
            v_series(md, 4)  # both routes lose one order to a log derivative

    @pytest.mark.parametrize("column", [u_series, v_series])
    def test_each_side_composes_three_times(self, monkeypatch, column):
        # One side composes its own map with its reversion, the check
        # X(z_X) = t, and the other map and its kernel K_Y with it.
        md = MirrorData.build(M333, 9)
        calls = recorded_calls(monkeypatch, "compose")
        column(md, 8)
        assert [inner.order for _, inner in calls] == [9, 9, 9]

    def test_tampered_data_raises_consistency_fault(self):
        md = MirrorData.build(M333, 6)
        bad_q = md.q + monomial(1, 3, md.q.order)
        tampered = md._replace(q=bad_q)
        with pytest.raises(ConsistencyError):
            v_series(tampered, 5)


class TestLambert:
    def test_zero_input(self):
        assert lambert_invert(Series.zero(6)) == Series.zero(6)

    def test_333_columns(self):
        md = MirrorData.build(M333, 11)
        u = u_series(md, 10)
        assert lambert_invert(u) == Series([0, 9, -9, 0, 9, -9, 0, 9, -9, 0, 9])
        bhat = lambert_invert(u, alternating=True)
        assert bhat.coeff(1) == -9
        assert bhat.coeff(2) == F(-9, 2)

    @pytest.mark.parametrize("alternating", [False, True])
    def test_round_trip(self, alternating):
        u = [F(3), F(-7, 2), F(0), F(11), F(-1, 3), F(5)]
        b = lambert_invert(Series([0, *u]), alternating=alternating)
        expanded = lambert_series(b, 6, alternating=alternating)
        assert [expanded.coeff(m) for m in range(1, 7)] == u

    def test_table_derives_its_columns_from_u_and_v(self):
        for parts in ((3, 3, 3), (2, 3, 6)):
            rep = integrality_report(Model.from_kvector(parts), 6)
            assert rep.b == lambert_invert(rep.u)
            assert rep.bhat == lambert_invert(rep.u, alternating=True)
            assert rep.c == lambert_invert(rep.v)
            assert rep.chat == lambert_invert(rep.v, alternating=True)

    def test_a_column_series_has_constant_term_0(self):
        with pytest.raises(ValueError, match="constant term 0"):
            lambert_invert(Series([1, 2, 3]))

    def test_a_column_is_a_series(self):
        with pytest.raises(TypeError, match="a column is a Series"):
            lambert_invert([1, 2])
        with pytest.raises(TypeError, match="a column is a Series"):
            lambert_series([F(1)], 4)
        with pytest.raises(TypeError, match="a column is a Series"):
            product_check(Series.identity(4), [F(0)] * 4)

    def test_expansion_refuses_a_negative_order(self):
        with pytest.raises(ValueError, match="nonnegative"):
            lambert_series(Series([0, 1, 2]), -3)

    @pytest.mark.parametrize("alternating", [False, True])
    def test_sieve_matches_literal_moebius_sums(self, alternating):
        u = [F((-1) ** m * (m * m + 3), m % 5 + 1) for m in range(1, 61)]
        b = lambert_invert(Series([0, *u]), alternating)
        assert list(b.coeffs[1:]) == literal_inversion(u, alternating)
        md = MirrorData.build(Model.from_kvector((2, 3, 6)), 31)
        u = u_series(md, 30)
        b = lambert_invert(u, alternating)
        assert list(b.coeffs[1:]) == literal_inversion(u.coeffs[1:], alternating)

    def test_expansion_plain_definition(self):
        # 1 - b_1 * t/(1-t) with b_1 = 1: coefficients -1 everywhere
        out = lambert_series(Series([0, 1]), 4)
        assert out.coeffs == (1, -1, -1, -1, -1)


class TestProductCheck:
    def test_22_trivial(self):
        target = Series.identity(6)  # Q(q) = q when all exponents vanish
        assert product_check(target, Series.zero(6))

    def test_333_both_variants(self):
        md = MirrorData.build(M333, 11)
        u = u_series(md, 10)
        v = v_series(md, 10)
        Qq = md.Q.compose(md.q.revert()).truncate(10)
        qQ = md.q.compose(md.Q.revert()).truncate(10)
        assert product_check(Qq, lambert_invert(u))
        assert product_check(Qq, lambert_invert(u, alternating=True), alternating=True)
        assert product_check(qQ, lambert_invert(v))
        assert product_check(qQ, lambert_invert(v, alternating=True), alternating=True)

    def test_detects_wrong_exponents(self):
        md = MirrorData.build(M333, 7)
        u = u_series(md, 6)
        Qq = md.Q.compose(md.q.revert()).truncate(6)
        for alternating in (False, True):
            b = lambert_invert(u, alternating=alternating) + monomial(1, 3, 6)
            assert not product_check(Qq, b, alternating=alternating)

    @pytest.mark.parametrize("alternating", [False, True])
    @pytest.mark.parametrize(
        "parts, M", [((3, 3, 3), 12), ((2, 3, 6), 12), ((2, 3, 7, 42), 10)]
    )
    def test_agrees_with_the_literal_product(self, parts, M, alternating):
        rep = integrality_report(Model.from_kvector(parts), M)
        md = MirrorData.build(rep.model, M + 1)
        cases = [
            (md.Q.compose(md.q.revert()).truncate(M), rep.bhat if alternating else rep.b),
            (md.q.compose(md.Q.revert()).truncate(M), rep.chat if alternating else rep.c),
        ]
        if parts == (3, 3, 3):  # fractional exponents, bhat_2 = -9/2
            assert any(x.denominator != 1 for x in rep.bhat.coeffs[1:])
        if parts == (2, 3, 7, 42):  # exponents m*b_m beyond 10^6
            assert max(abs(m * bm) for m, bm in enumerate(rep.b.coeffs[1:], start=1)) > 10**6
        for target, exact in cases:
            perturbed = exact + monomial(F(1, 3), M // 2 + 1, M)
            top = target + monomial(1, M, M)
            doubled = target + monomial(1, 1, M)
            inputs = [(target, exact), (target, perturbed), (top, exact), (doubled, exact)]
            verdicts = [product_check(t, b, alternating) for t, b in inputs]
            assert verdicts == [True, False, False, False]
            assert verdicts == [t == literal_product(b, alternating) for t, b in inputs]

    @pytest.mark.parametrize("alternating", [False, True])
    def test_one_exponential_and_no_series_products(self, monkeypatch, alternating):
        md = MirrorData.build(M333, 13)
        target = md.Q.compose(md.q.revert()).truncate(12)
        b = lambert_invert(u_series(md, 12), alternating=alternating)
        products = [recorded_calls(monkeypatch, name) for name in ("__mul__", "__rmul__")]
        exponentials = recorded_calls(monkeypatch, "exp")
        assert product_check(target, b, alternating)
        assert [right for calls in products for _, right in calls
                if isinstance(right, Series)] == []
        assert len(exponentials) == 1

    def test_empty_exponents_are_refused(self):
        with pytest.raises(ValueError, match="at least one exponent"):
            product_check(Series.identity(4), Series([0]))

    def test_a_target_shorter_than_the_exponents_is_refused(self):
        with pytest.raises(ValueError, match="^target order too small for the product test$"):
            product_check(Series.identity(2), Series([0, 1, 1, 1]))


class TestBinomialFactor:
    """The closed-form factors of the literal-product oracle against Series powers."""

    M = 10

    def power(self, sign, m, e):
        return (Series.one(self.M) - monomial(sign, m, self.M)) ** e

    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("m", [1, 3])
    @pytest.mark.parametrize("e", [0, 5, -7, F(-9, 2), F(1, 3)])
    def test_matches_power(self, sign, m, e):
        assert binomial_factor(sign, m, e, self.M) == self.power(sign, m, e)

    @pytest.mark.parametrize("sign", [1, -1])
    def test_largest_exponent_of_2_3_7_42(self, sign):
        md = MirrorData.build(Model.from_kvector((2, 3, 7, 42)), self.M + 1)
        b = lambert_invert(u_series(md, self.M))
        m, e = max(
            ((m, m * bm) for m, bm in enumerate(b.coeffs[1:], start=1)),
            key=lambda p: abs(p[1]),
        )
        assert abs(e) > 10**6
        assert binomial_factor(sign, m, e, self.M) == self.power(sign, m, e)


class TestG0Expansions:
    def test_22_in_Q(self):
        md = MirrorData.build(M22, 9)
        in_q, in_Q = g0_expansions(md, 8)
        assert in_Q.coeffs[1:] == (2,) * 8
        assert in_q == in_Q  # q == Q here

    def test_333_integrality(self):
        md = MirrorData.build(M333, 11)
        in_q, in_Q = g0_expansions(md, 10)
        assert in_q.denominator == 1 and in_Q.denominator == 1
        assert all(x.denominator == 1 for x in in_q.coeffs + in_Q.coeffs)

    @pytest.mark.parametrize("order", [12, 20])
    @pytest.mark.parametrize(
        "parts", [(2, 2), (3, 3, 3), (2, 3, 6), (4, 4, 4, 4), (5, 5, 5, 5, 5)]
    )
    def test_tails_equal_the_compositions(self, parts, order):
        md = MirrorData.build(Model.from_kvector(parts), order + 1)
        in_q, in_Q = g0_expansions(md, order)
        for tail, inner in ((in_q, md.q.revert()), (in_Q, md.Q.revert())):
            composed = md.g0.compose(inner)
            assert tail.coeffs[1:] == tuple(composed.coeff(m) for m in range(1, order + 1))
            assert tail.coeff(0) == 0
        # The report forms its g0 columns on its two sides without calling
        # g0_expansions, which is their independent oracle.
        rep = integrality_report(Model.from_kvector(parts), order)
        assert (rep.g0_in_q, rep.g0_in_Q) == (in_q, in_Q)

    def test_order_guard(self):
        md = MirrorData.build(M333, 6)
        with pytest.raises(ValueError):
            g0_expansions(md, 6)


class TestLagrangeIntegrality:
    def test_all_n_leq_4_models_to_order_20(self):
        from mahlerq import enumerate_solutions, lagrange_coeffs
        from mahlerq.mirror import f_series, g0_series, h_series

        for n in (2, 3, 4):
            for kv in enumerate_solutions(n):
                model = Model.from_kvector(kv)
                phi_q = h_series(model, 20) / g0_series(model, 20)
                for phi in (phi_q, f_series(model, 20)):
                    assert lagrange_coeffs(phi, 20).denominator == 1, model.name


class TestReport:
    def test_order_0_is_refused(self):
        with pytest.raises(ValueError, match="^order must be at least 1$"):
            integrality_report(M333, 0)

    def test_wrong_period_recurrence_raises_consistency_fault(self, monkeypatch):
        corrupt_last_period(monkeypatch)
        with pytest.raises(
            ConsistencyError,
            match="closed-form periods disagree for model 3,3,3 at order 7, m=7$",
        ):
            integrality_report(M333, 6)

    # A tampered q is reverted on its own side first, so that side's check
    # X(z_X) = t names it; zq and zQ are the sides' reversions of q and Q.
    TAMPERS = [
        ("q", 3, r"z\(q\) is not the reversion of q for model 3,3,3 at order 6, m=3$"),
        ("Q", 3, "u-series routes disagree for model 3,3,3 at order 6, m=2: "),
        ("zq", 3, r"z\(q\) is not the reversion of q for model 3,3,3 at order 6, m=3$"),
        ("zQ", 3, r"z\(Q\) is not the reversion of Q for model 3,3,3 at order 6, m=3$"),
        ("q", 1, r"z\(q\) is not the reversion of q for model 3,3,3 at order 6, m=1$"),
        ("Q", 1, r"u-series composition for model 3,3,3 at order 6 is not t \+ O\(t\^2\)"),
    ]

    @pytest.mark.parametrize(
        "field, degree, message",
        TAMPERS,
        ids=[f + "-" + m.split(" for model")[0].replace("\\", "") if d == 3 else f"{f}-z{d}"
             for f, d, m in TAMPERS],
    )
    def test_tampered_mirror_data_raises_consistency_fault(
        self, monkeypatch, field, degree, message
    ):
        if field in ("zq", "zQ"):
            corrupt_reversion(monkeypatch, M333, 6, field[1], degree)
        else:
            build = MirrorData.build.__func__

            def tampered(cls, model, order):
                md = build(cls, model, order)
                series = getattr(md, field)
                bump = monomial(1, degree, series.order)
                return md._replace(**{field: series + bump})

            monkeypatch.setattr(MirrorData, "build", classmethod(tampered))
        with pytest.raises(ConsistencyError, match=message):
            integrality_report(M333, 6)

    @pytest.mark.parametrize("m", [1, 6])
    @pytest.mark.parametrize("field, label", [(0, "u"), (1, "v")])
    def test_corrupted_g0_expansion_raises_consistency_fault(
        self, monkeypatch, field, label, m
    ):
        # Field 0 is g0 in q, the q side's g0(zq); field 1 is g0 in Q, the
        # Q side's 1/(Q d/dQ log zQ).  Each feeds its side's chain route.
        corrupt_g0_column(monkeypatch, M333, 6, "qQ"[field], m)
        with pytest.raises(
            ConsistencyError,
            match=f"{label}-series routes disagree for model 3,3,3 at order 6, m={m}:",
        ):
            integrality_report(M333, 6)

    @pytest.mark.parametrize("alternating", [False, True], ids=["plain", "alt"])
    @pytest.mark.parametrize("side", ["u", "v"])
    def test_wrong_exponent_fails_its_product_form(self, monkeypatch, side, alternating):
        # A product form is an identity of the sieve, so a wrong exponent
        # halts the report like any other route disagreement.
        corrupt_exponents(monkeypatch, M333, 6, side, alternating, 3)
        form = "alternating " if alternating else ""
        with pytest.raises(
            ConsistencyError,
            match=f"^{side}-series {form}product form fails for model 3,3,3 at order 6$",
        ):
            integrality_report(M333, 6)

    @pytest.mark.parametrize("call, label", [(0, "q"), (1, "Q")])
    def test_wrong_kth_root_raises_consistency_fault(self, monkeypatch, call, label):
        # The root is exp(exponent/k); skew its integer k-th power, the check.
        power = Series.__pow__
        integer = []

        def skewed(base, exponent):
            result = power(base, exponent)
            if isinstance(exponent, int):
                integer.append(exponent)
                if len(integer) == call + 1:
                    result = result + monomial(1, 2, result.order)
            return result

        monkeypatch.setattr(Series, "__pow__", skewed)
        with pytest.raises(
            ConsistencyError,
            match=f"k-th root of {label}/z fails its power check for model 3,3,3 "
            "at order 6$",
        ):
            integrality_report(M333, 6)

    def test_wrong_log_tail_halts(self, monkeypatch):
        # Every later route reads h through phi; only the Frobenius identity
        # of the operator sees it.
        corrupt_log_tail(monkeypatch, 5)
        with pytest.raises(
            ConsistencyError,
            match="log tail h fails the Frobenius identity for model 3,3,3 at order 13, m=5$",
        ):
            integrality_report(M333, 12)

    @pytest.mark.parametrize("parts", [(3, 3, 3), (2, 3, 6), (4, 4, 4, 4)])
    def test_no_composition_is_repeated(self, monkeypatch, parts):
        seen = recorded_calls(monkeypatch, "compose")
        integrality_report(Model.from_kvector(parts), 8)
        assert len(seen) - len(set(seen)) == 0
        # q(zq), Q(zq) and g0(zq) on the q side, Q(zQ), q(zQ) and
        # (1 + theta(phi))(zQ) on the Q side.
        assert len(seen) == 6

    @pytest.mark.parametrize("model, order", [
        (M333, 12), (Model.from_kvector((2, 3, 6)), 10),
        (Model.from_kvector((4, 4, 4, 4)), 8), (Model.from_weights(5, (2, 2, 1)), 8),
        (Model.from_weights(12, (4, 3, 3, 2)), 8),
    ], ids=["3,3,3", "2,3,6", "4,4,4,4", "5:2,2,1", "12:4,3,3,2"])
    def test_no_series_operation_is_repeated(self, monkeypatch, model, order):
        # Each intermediate series is computed once per report: no operation
        # runs twice on equal operands of order >= 1.
        calls = {name: recorded_calls(monkeypatch, name) for name in
                 ("compose", "revert", "exp", "__pow__", "__mul__", "__truediv__")}
        integrality_report(model, order)
        repeated = [name for name, operands in calls.items()
                    for ops, count in Counter(operands).items()
                    if count > 1 and all(x.order >= 1 for x in ops if isinstance(x, Series))]
        assert repeated == []

    def test_report_and_series_never_call_newton(self, monkeypatch):
        # Series.revert, Newton's method, is the tests' oracle: the report
        # and the zq and zQ series revert by Lagrange inversion alone.
        newton = recorded_calls(monkeypatch, "revert")
        integrality_report(M333, 8)
        md = MirrorData.build(M333, 9)
        md.series("zq")
        md.series("zQ")
        assert newton == []

    @pytest.mark.parametrize("model", [
        M333, Model.from_kvector((2, 3, 6)), Model.from_weights(12, (4, 3, 3, 2)),
    ], ids=["3,3,3", "2,3,6", "12:4,3,3,2"])
    def test_each_side_reversion_matches_newton(self, model):
        rep = integrality_report(model, 8)
        md = MirrorData.build(model, 9)
        assert rep.z_in_q == md.q.revert().truncate(8)
        assert rep.z_in_Q == md.Q.revert().truncate(8)

    def test_h_over_g0_is_divided_once(self, monkeypatch):
        from mahlerq.mirror import g0_series

        calls = recorded_calls(monkeypatch, "__truediv__")
        integrality_report(M333, 8)
        divisors = [divisor for _, divisor in calls if isinstance(divisor, Series)]
        # phi = h/g0 once in the build, and on each side its kernel
        # K_X(z_X) = s/(theta(s) + s) with s = z_X/z and the logarithmic
        # derivative of Y(z_X).  The chain rule is checked as a product
        # with K_X(z_X), so neither side divides by its kernel.
        assert len(divisors) == 5
        assert divisors.count(g0_series(M333, 9)) == 1

    def test_structure_and_schema(self):
        rep = integrality_report(M333, 6)
        payload = rep.to_json_dict()
        assert payload["order"] == 6
        assert len(payload["rows"]) == 6
        row = payload["rows"][0]
        assert row["m"] == 1
        assert row["b"] == "9" and row["bhat"] == "-9"
        assert row["c"] == "-9" and row["chat"] == "9"
        assert row["b_over_m"] == "9" and row["chat_over_m"] == "9"
        assert row["b_integer"] is True
        assert set(payload["checks"]) == {
            "product_plain",
            "product_alt",
            "lagrange_integral",
            "g0_in_q_integral",
            "g0_in_Q_integral",
            "proposition_qQ_integral",
            "conjecture1_root_integral",
        }

    def test_fractional_entries_reported_verbatim(self):
        rep = integrality_report(M333, 2)
        row = rep.rows()[1]
        assert row["bhat"] == "-9/2"
        assert row["bhat_integer"] is False
        assert row["c"] == "-63/2"

    def test_divisible_by_n_only_on_diagonal(self):
        diag = integrality_report(M333, 3)
        assert all("div_n" in row for row in diag.rows())
        off = integrality_report(Model.from_kvector((2, 3, 6)), 3)
        assert all("div_n" not in row for row in off.rows())

    def test_22_report_all_zero(self):
        rep = integrality_report(M22, 8)
        assert rep.b == rep.bhat == rep.c == rep.chat == Series.zero(8)
        assert all(rep.checks.values())

    def test_public_columns_read_as_fraction_tuples(self):
        # Each column is a field holding a series with constant term 0 whose
        # z^m coefficient is entry m; its coeffs read the entries as the
        # Fractions that the Fraction-based report stored.
        rep = integrality_report(M333, 6)
        assert rep._fields == (
            "model", "order", "u", "v", "b", "bhat", "c", "chat",
            "g0_in_q", "g0_in_Q", "z_in_q", "z_in_Q",
            "proposition_qQ_integral", "conjecture1_root_integral",
        )
        md = MirrorData.build(M333, 7)
        zq, zQ = md.q.revert(), md.Q.revert()
        assert rep.z_in_q.coeffs[1:] == tuple(zq.coeff(m) for m in range(1, 7))
        assert rep.z_in_Q.coeffs[1:] == tuple(zQ.coeff(m) for m in range(1, 7))
        g0_in_q = md.g0.compose(zq)
        assert rep.g0_in_q.coeffs[1:] == tuple(g0_in_q.coeff(m) for m in range(1, 7))
        columns = (rep.u, rep.v, rep.b, rep.bhat, rep.c, rep.chat,
                   rep.g0_in_q, rep.g0_in_Q, rep.z_in_q, rep.z_in_Q)
        for column in columns:
            assert type(column) is Series and column.order == 6
            assert column.coeff(0) == 0
            assert all(type(x) is F for x in column.coeffs[1:])
        assert rep.bhat.coeff(2) == F(-9, 2) and rep.c.coeff(2) == F(-63, 2)

    def test_verdicts_derived_not_stored(self):
        rep = integrality_report(M333, 4)
        fields = set(rep._fields)
        assert "rows" not in fields  # verdicts only exist as derived data

    @pytest.mark.parametrize("field, check", [
        ("z_in_q", "lagrange_integral"),
        ("z_in_Q", "lagrange_integral"),
        ("g0_in_q", "g0_in_q_integral"),
        ("g0_in_Q", "g0_in_Q_integral"),
    ])
    def test_column_verdicts_are_read_from_the_columns(self, field, check):
        rep = integrality_report(M333, 6)
        assert all(rep.checks.values())
        column = getattr(rep, field)
        tampered = rep._replace(**{field: column + monomial(F(1, 2), 2, 6)})
        assert [k for k, v in tampered.checks.items() if not v] == [check]
        assert tampered.to_json_dict()["checks"][check] is False

    def test_big_integers_survive_json(self):
        import json

        rep = integrality_report(Model.from_kvector((2, 3, 6)), 10)
        payload = json.loads(json.dumps(rep.to_json_dict()))
        assert payload["rows"][9]["b"] == "-2925411405456230806590"


class TestEllipticClosedForms:
    """The n = 3 reports against the modular closed forms of the elliptic
    case, which share no code with the engine, above every pinned order."""

    def test_333_at_120(self):
        N = 120
        rep = integrality_report(M333, N)
        z, u = elliptic_333(N)
        assert rep.g0_in_q + 1 == Series(cubic_theta(N))
        assert rep.z_in_q == Series(z)
        assert rep.u == Series(u)
        assert lambert_invert(Series(u)) == rep.b
        assert lambert_invert(Series(u), alternating=True) == rep.bhat

    def test_236_at_100(self):
        N = 100
        rep = integrality_report(Model.from_kvector((2, 3, 6)), N)
        assert (rep.g0_in_q + 1) ** 4 == Series(eisenstein_e4(N))
        assert rep.z_in_q - 432 * rep.z_in_q * rep.z_in_q == Series(inverse_j(N))

    @pytest.mark.parametrize("parts, power", [((2, 4, 4), 1), ((4, 4, 4, 4), 2)],
                             ids=["2,4,4", "4,4,4,4"])
    def test_level2_at_100(self, parts, power):
        # g0(z(q)) is E^(power/2): the square root of E for (2,4,4), E itself
        # for the quartic K3.
        N = 100
        rep = integrality_report(Model.from_kvector(parts), N)
        z, u = level2_columns(power, N)
        assert (rep.g0_in_q + 1) ** (2 // power) == Series(eisenstein_odd(N))
        assert rep.z_in_q == Series(z)
        assert rep.u == Series(u)
        assert lambert_invert(Series(u)) == rep.b
        assert lambert_invert(Series(u), alternating=True) == rep.bhat
