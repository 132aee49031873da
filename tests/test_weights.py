"""Tests for weight-system enumeration, counting and the floor-gap check."""

import math
from fractions import Fraction as F

import pytest

from mahlerq import (
    KVector,
    MirrorData,
    Model,
    aut_order,
    counts,
    enumerate_solutions,
    floor_gap_check,
    floor_gaps,
)


def fraction_search(n):
    """Parts of every solution for n, by a depth-first search on Fraction
    residuals: the oracle of the int-pair search in enumerate_solutions."""
    out = []

    def search(prefix, residual, slots):
        if slots == 1:
            if residual.numerator == 1 and residual.denominator >= prefix[-1]:
                out.append(prefix + (residual.denominator,))
            return
        low = max(prefix[-1] if prefix else 2, math.ceil(1 / residual))
        for k in range(low, math.floor(slots / residual) + 1):
            rest = residual - F(1, k)
            if rest > 0:
                search(prefix + (k,), rest, slots - 1)

    search((), F(1), n)
    return sorted(out)


class TestKVector:
    def test_valid(self):
        kv = KVector([2, 3, 6])
        assert kv.parts == (2, 3, 6)
        assert kv.n == 3

    @pytest.mark.parametrize(
        "parts",
        [(2, 5), (3, 2, 6), (1, 1), (2,), (2, 3, 7)],
    )
    def test_invalid(self, parts):
        with pytest.raises(ValueError):
            KVector(parts)

    @pytest.mark.parametrize("parts", [(2, 2, 2), (3, 3, 4), (2, 3, 7, 43), (4, 4, 4)])
    def test_sum_is_checked_over_the_lcm(self, parts):
        assert sum(F(1, k) for k in parts) != 1
        with pytest.raises(ValueError, match="do not sum to 1"):
            KVector(parts)
        assert KVector((2, 3, 7, 42)).parts == (2, 3, 7, 42)


class TestEnumerate:
    def test_n2(self):
        assert [kv.parts for kv in enumerate_solutions(2)] == [(2, 2)]

    def test_n3(self):
        assert [kv.parts for kv in enumerate_solutions(3)] == [
            (2, 3, 6),
            (2, 4, 4),
            (3, 3, 3),
        ]

    def test_n4_complete(self):
        sols = {kv.parts for kv in enumerate_solutions(4)}
        assert len(sols) == 14
        assert (3, 3, 6, 6) in sols  # the member the reference listing omits

    def test_all_sums_exact(self):
        for kv in enumerate_solutions(4):
            assert sum(F(1, p) for p in kv.parts) == 1

    def test_ascending_lexicographic(self):
        sols = [kv.parts for kv in enumerate_solutions(4)]
        assert sols == sorted(sols)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_int_search_matches_fraction_search(self, n):
        assert [kv.parts for kv in enumerate_solutions(n)] == fraction_search(n)

    def test_n6_count(self):
        assert len(enumerate_solutions(6)) == 3462

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            enumerate_solutions(1)

    def test_reference_n6_exemplar_needs_rational_oracle(self):
        # The five-entry chain (2,7,43,1807,3263442) does not sum to 1;
        # its six-entry completion does and is an n=6 member.
        assert sum(F(1, k) for k in (2, 7, 43, 1807, 3263442)) != 1
        assert sum(F(1, k) for k in (2, 3, 7, 43, 1807, 3263442)) == 1


class TestCounts:
    def test_simple_counts(self):
        assert counts(enumerate_solutions(3))[0] == 3
        assert counts(enumerate_solutions(4))[0] == 14

    def test_weighted_n3(self):
        # |Aut| = 1, 2, 6 for (2,3,6), (2,4,4), (3,3,3)
        assert counts(enumerate_solutions(3))[1] == F(5, 3)

    def test_weighted_at_most_simple(self):
        for n in (2, 3, 4):
            simple, weighted = counts(enumerate_solutions(n))
            assert weighted <= simple


class TestAutOrder:
    @pytest.mark.parametrize(
        "parts,expected",
        [((5, 5, 5, 5, 5), 120), ((2, 3, 6), 1), ((2, 4, 4), 2)],
    )
    def test_values(self, parts, expected):
        assert aut_order(KVector(parts)) == expected

    def test_divides_n_factorial(self):
        import math

        for kv in enumerate_solutions(4):
            assert math.factorial(kv.n) % aut_order(kv) == 0


class TestModel:
    @pytest.mark.parametrize(
        "parts,k,w",
        [
            ((2, 3, 6), 6, (3, 2, 1)),
            ((2, 2), 2, (1, 1)),
            ((4, 4, 4, 4), 4, (1, 1, 1, 1)),
        ],
    )
    def test_from_kvector(self, parts, k, w):
        model = Model.from_kvector(KVector(parts))
        assert model.k == k and model.w == w

    def test_direct_weights(self):
        model = Model.from_weights(12, (4, 3, 3, 2))
        assert model.kvec is None
        assert model.name == "12:4,3,3,2"

    def test_direct_weights_must_sum(self):
        with pytest.raises(ValueError):
            Model.from_weights(12, (3, 4, 4, 6))

    def test_is_diagonal(self):
        assert Model.from_kvector((3, 3, 3)).is_diagonal()
        assert not Model.from_kvector((2, 3, 6)).is_diagonal()
        assert not Model.from_weights(3, (1, 1, 1)).is_diagonal()

    def test_json_shape(self):
        payload = Model.from_kvector((2, 3, 6)).to_json_dict()
        assert payload == {"k": [2, 3, 6], "lcm": 6, "w": [3, 2, 1], "name": "2,3,6"}


# (k, w) of models given by their weights.  In the first ten some w_i does
# not divide k, and the gap drops to 0 only between multiples of 1/k;
# 12:4,3,3,2, 6:3,2,1 and 6:2,2,1,1 are k-vector models.
WEIGHTS_MODELS = [
    (5, (2, 2, 1)), (5, (2, 3)), (7, (2, 2, 3)), (7, (3, 2, 2)), (8, (3, 3, 2)),
    (9, (4, 3, 2)), (10, (5, 3, 2)), (10, (4, 3, 3)), (11, (5, 4, 2)), (6, (4, 1, 1)),
    (12, (4, 3, 3, 2)), (6, (3, 2, 1)), (6, (2, 2, 1, 1)), (4, (2, 2)),
]


class TestFloorGap:
    def test_236_gaps(self):
        assert floor_gaps(Model.from_kvector((2, 3, 6))) == [1, 1, 1, 1, 2]

    def test_22(self):
        assert floor_gap_check(Model.from_kvector((2, 2)))

    def test_zero_gap_fails(self):
        model = Model.from_weights(4, (2, 2))
        assert floor_gaps(model) == [1, 0, 1]
        assert not floor_gap_check(model)

    def test_all_enumerated_up_to_4(self):
        for n in (2, 3, 4):
            for kv in enumerate_solutions(n):
                assert floor_gap_check(Model.from_kvector(kv)), kv

    def test_weights_jump_between_multiples_of_1_over_k(self):
        # [2x] jumps at x = 1/2, where the gap of (5; 2,2,1) is
        # [5/2] - 1 - 1 - 0 = 0; sampling at x = j/5 alone misses it.
        model = Model.from_weights(5, (2, 2, 1))
        assert floor_gaps(model) == [1, 1, 2, 0, 1, 1, 2, 2]  # x = 2/10..9/10
        assert not floor_gap_check(model)

    @pytest.mark.parametrize("model", [
        *(Model.from_weights(k, w) for k, w in WEIGHTS_MODELS),
        *(Model.from_kvector(kv) for n in (2, 3, 4) for kv in enumerate_solutions(n)),
    ], ids=lambda model: model.name)
    def test_matches_integrality_of_the_mirror_map(self, model):
        assert floor_gap_check(model) == (MirrorData.build(model, 24).q.denominator == 1)
