"""Acceptance suite: one test per criterion, printing one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as
they print.  Reference-table entries that the computation disproves are
reported as flagged ERRATUM lines, never silently corrected and never
allowed to fail the suite; every such flag is backed by an internal
identity (exact rational-sum test, quotient columns, parity relations)
asserted right next to it.  Anything else that disagrees fails loudly.
"""

import math
import random
from contextlib import contextmanager
from fractions import Fraction as F

from mahlerq import (
    MirrorData,
    Model,
    Series,
    enumerate_solutions,
    floor_gap_check,
    integrality_report,
    lagrange_coeffs,
    pf_operator,
)
from mahlerq.inversion import u_series, v_series
from mahlerq.mirror import f_series, g0_series, h_series, local_mirror_map, mirror_map

from oracles import pf_apply
from reference_data import (
    KNOWN_ERRATA,
    N4_LISTED,
    N5_LISTED,
    QUINTIC_B5,
    QUINTIC_B7,
    TABLE_236,
    TABLE_244,
    TABLE_333,
    TABLE_4444,
    frac,
)


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"criterion {number:2d} ({description}): FAIL")
        raise
    print(f"criterion {number:2d} ({description}): PASS")


def erratum(text: str) -> None:
    print(f"  ERRATUM: {text}")


def sums_to_one(parts) -> bool:
    return sum(F(1, p) for p in parts) == 1


def table_columns(parts, order=10):
    rep = integrality_report(Model.from_kvector(parts), order)
    cols = {key: getattr(rep, key).coeffs[1:] for key in ("b", "bhat", "c", "chat")}
    for key in list(cols):
        cols[f"{key}_over_m"] = tuple(x / (m + 1) for m, x in enumerate(cols[key]))
    return rep, cols


def compare_table(parts, reference, report_cols, errata_keys=()):
    """Exact entrywise comparison, diverting known-bad entries to errata."""
    for col, listed in reference.items():
        for m, value in enumerate(listed, start=1):
            computed = report_cols[col][m - 1]
            if (col, m) in errata_keys:
                assert computed != frac(value)
                erratum(
                    f"{parts} {col} at m={m}: listed {value}, computed "
                    f"{computed} (computed value matches the quotient column)"
                )
                continue
            assert computed == frac(value), (parts, col, m, value, str(computed))


def test_c01_enumeration_counts():
    with criterion(1, "enumeration counts for n=2..6"):
        sizes = {n: len(enumerate_solutions(n)) for n in range(2, 7)}
        assert sizes[2] == 1
        assert sizes[3] == 3
        assert sizes[5] == 147
        assert sizes[6] == 3462
        # Listed n=4 count is 13; the complete list has 14 members.  The
        # extra member passes the exact rational-sum test, and a search
        # matching 147/3462 at n=5,6 cannot return 13 at n=4.
        info = KNOWN_ERRATA["n4_count"]
        assert sizes[4] == info["actual"] == 14
        extra = set(kv.parts for kv in enumerate_solutions(4)) - set(N4_LISTED)
        assert extra == {info["omitted"]}
        assert sums_to_one(info["omitted"])
        erratum(
            f"n=4 count listed as {info['listed']}; the complete list has "
            f"{info['actual']} members (listing omits {info['omitted']})"
        )


def test_c02_solution_list_fidelity():
    with criterion(2, "solution-list fidelity for n=4 and n=5"):
        four = set(kv.parts for kv in enumerate_solutions(4))
        assert set(N4_LISTED) <= four
        assert len(four - set(N4_LISTED)) == 1  # flagged in criterion 1

        five = set(kv.parts for kv in enumerate_solutions(5))
        assert len(N5_LISTED) == 147
        invalid = [t for t in N5_LISTED if not sums_to_one(t)]
        valid = [t for t in N5_LISTED if sums_to_one(t)]
        assert invalid == [KNOWN_ERRATA["n5_list"]["invalid_entry"]]
        erratum(
            f"n=5 listing entry {invalid[0]} fails the rational-sum test "
            f"(sum of reciprocals is {sum(F(1, p) for p in invalid[0])})"
        )
        for t in valid:
            assert tuple(sorted(t)) in five, t
        # the valid listed entries cover all but exactly one member
        missing = five - {tuple(sorted(t)) for t in valid}
        assert len(missing) == 1
        erratum(f"the member not covered by the n=5 listing is {missing.pop()}")


def test_c03_n2_collapse():
    with criterion(3, "n=2 collapse: q = Q and vanishing tables"):
        model = Model.from_kvector((2, 2))
        assert mirror_map(model, 12) == local_mirror_map(model, 12)
        rep = integrality_report(model, 12)
        assert all(col.is_zero() for col in (rep.b, rep.bhat, rep.c, rep.chat))


def test_c04_n2_closed_forms():
    with criterion(4, "n=2 closed forms"):
        model = Model.from_kvector((2, 2))
        md = MirrorData.build(model, 12)
        assert md.g0 == Series([1, -4], 12) ** F(-1, 2)
        expected_zQ = Series([0] + [(-1) ** (m - 1) * m for m in range(1, 13)])
        zQ = md.Q.revert()
        assert zQ == expected_zQ
        g0_in_Q = md.g0.compose(zQ)
        assert g0_in_Q.coeffs == (1,) + (2,) * 12


def test_c05_333_table():
    with criterion(5, "(3,3,3) table m=1..10"):
        rep, cols = table_columns((3, 3, 3))
        compare_table((3, 3, 3), TABLE_333, cols, errata_keys={("chat", 8)})
        # the flagged entry is pinned by the 4|m identity chat_m == c_m
        assert cols["chat"][7] == cols["c"][7] == KNOWN_ERRATA["chat8_333"]["actual"]
        assert all(rep.checks.values())


def test_c06_244_table():
    with criterion(6, "(2,4,4) table m=1..10"):
        rep, cols = table_columns((2, 4, 4))
        compare_table((2, 4, 4), TABLE_244, cols)
        assert cols["b"][0] == 28
        assert cols["b"][1] == -134
        assert cols["b"][2] == 996
        assert cols["b"][9] == -158342776966
        assert cols["c"][0] == -28
        assert cols["c"][9] == -144178140979800
        assert all(rep.checks.values())


def test_c07_236_table():
    with criterion(7, "(2,3,6) table m=1..10"):
        rep, cols = table_columns((2, 3, 6))
        compare_table((2, 3, 6), TABLE_236, cols)
        assert cols["b"][0] == 252
        assert cols["b"][1] == -13374
        assert cols["b"][9] == -2925411405456230806590
        # b/m is integral except exactly at m=7
        for m in range(1, 11):
            quotient = cols["b_over_m"][m - 1]
            if m == 7:
                assert quotient == F(531216722607876, 7)
                assert quotient.denominator == 7
            else:
                assert quotient.denominator == 1
        assert all(rep.checks.values())


def test_c08_4444_table():
    with criterion(8, "(4,4,4,4) K3 table m=1..10"):
        rep, cols = table_columns((4, 4, 4, 4))
        compare_table((4, 4, 4, 4), TABLE_4444, cols)
        assert cols["c"][9] == -390188833066192395600
        assert all(rep.checks.values())


def test_c09_quintic():
    with criterion(9, "quintic divisibility and named values"):
        rep, cols = table_columns((5, 5, 5, 5, 5), order=8)
        assert cols["b"][4] == QUINTIC_B5
        assert cols["b"][6] == QUINTIC_B7
        assert QUINTIC_B7 % 7 != 0  # b_7/7 is not an integer
        for key in ("b", "bhat", "c", "chat"):
            for x in cols[key]:
                assert x.denominator == 1 and x.numerator % 5 == 0
        assert all(rep.checks.values())


def test_c10_proposition_suite():
    with criterion(10, "q, Q integral at order 30; floor gaps for n<=5"):
        for n in (2, 3, 4):
            for kv in enumerate_solutions(n):
                model = Model.from_kvector(kv)
                for series in (mirror_map(model, 30), local_mirror_map(model, 30)):
                    assert series.coeff(0) == 0 and series.coeff(1) == 1
                    assert all(c.denominator == 1 for c in series.coeffs), model.name
        for n in (2, 3, 4, 5):
            for kv in enumerate_solutions(n):
                assert floor_gap_check(Model.from_kvector(kv)), kv


def test_c11_conjecture1_suite():
    with criterion(11, "k-th roots of q/z and Q/z integral at order 20"):
        for n in (2, 3, 4):
            for kv in enumerate_solutions(n):
                model = Model.from_kvector(kv)
                e = F(1, model.k)
                for series in (mirror_map(model, 21), local_mirror_map(model, 21)):
                    root = series.shift_down(1) ** e
                    assert all(c.denominator == 1 for c in root.coeffs), model.name


def _random_phi(rng, order):
    coeffs = [F(0)] + [
        F(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(order)
    ]
    return Series(coeffs)


def test_c12_property_suite():
    with criterion(12, "always-on oracles"):
        # Lagrange inversion versus Newton reversion on 100 random series
        rng = random.Random(20260810)
        for _ in range(100):
            phi = _random_phi(rng, 8)
            w = phi.exp().zshift(1)
            newton = w.revert()
            assert lagrange_coeffs(phi, 9) == newton.truncate(9)

        # dual-route u/v and product checks on every tabulated model
        acceptance_models = [
            (2, 2), (3, 3, 3), (2, 4, 4), (2, 3, 6),
            (4, 4, 4, 4), (3, 3, 4, 12), (2, 4, 6, 12),
        ]
        for parts in acceptance_models:
            md = MirrorData.build(Model.from_kvector(parts), 7)
            u_series(md, 6)  # raises on any route disagreement
            v_series(md, 6)
            rep = integrality_report(Model.from_kvector(parts), 6)
            assert rep.checks["product_plain"] and rep.checks["product_alt"]

        # operator annihilation at order 20 on every n <= 4 model
        for n in (2, 3, 4):
            for kv in enumerate_solutions(n):
                model = Model.from_kvector(kv)
                g0 = g0_series(model, 20)
                one, zero = Series.one(20), Series.zero(20)
                red = pf_operator(model, "reduced")
                loc = pf_operator(model, "local")
                assert pf_apply(red, g0, zero, model) == (zero, zero), model.name
                res = pf_apply(red, h_series(model, 20), g0, model)
                if model.n == 2:
                    # first-order operator: no logarithmic solution exists;
                    # the combination satisfies L(g1) = 1 exactly
                    assert res == (one, zero)
                else:
                    assert res == (zero, zero), model.name
                assert pf_apply(loc, one, zero) == (zero, zero), model.name
                res = pf_apply(loc, f_series(model, 20), one)
                assert res == (zero, zero), model.name
        erratum(
            "for (2,2) the reduced operator is first order, so the stated "
            "annihilation of g1 = g0*log z + h cannot hold; the exact "
            "residual is the constant series 1 (asserted above)"
        )

        # binomial-harmonic identity up to m = 30
        for m in range(1, 31):
            lhs = sum(
                F(1, a) * math.comb(2 * a, a) * math.comb(2 * m - 2 * a, m - a)
                for a in range(1, m + 1)
            )
            rhs = math.comb(2 * m, m) * sum(
                1 / (k - F(1, 2)) - F(1, k) for k in range(1, m + 1)
            )
            assert lhs == rhs


def test_c13_substitute_models():
    with criterion(13, "substitute models in place of malformed cases"):
        # The listed 12psi values at n=4 and n=5 belong to exponent
        # vectors that fail the rational-sum test, so they cannot be
        # reproduced from a well-defined weight system; two well-defined
        # substitutes must run the full pipeline without fault.
        for parts in ((3, 3, 4, 12), (2, 4, 6, 12)):
            rep = integrality_report(Model.from_kvector(parts), 6)
            rows = rep.rows()
            assert len(rows) == 6
            assert rep.b.order == rep.bhat.order == 6
            assert rep.c.order == rep.chat.order == 6
            for row in rows:
                for key in ("b_integer", "bhat_integer", "c_integer", "chat_integer"):
                    assert isinstance(row[key], bool)
        assert not sums_to_one((4, 3, 3, 2))  # printed n=4 exponents
        assert not sums_to_one((3, 3, 2, 2, 2))  # printed n=5 exponents
