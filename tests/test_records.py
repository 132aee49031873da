"""The record types, and the series they hold, are immutable values that
survive pickling under every protocol.

``batch`` itself passes reports between processes only as JSON cache
entries, but pickling is a library property: a caller that sends records
through a process pool or a queue must get back the same values, and a
record that lost a field or its validation on the way would corrupt a
report quietly.
"""

import pickle
from fractions import Fraction

import pytest

from mahlerq import (
    IntegralityReport,
    KVector,
    MahlerMeasure,
    MirrorData,
    Model,
    PFOperator,
    Series,
    integrality_report,
    mahler_measure,
    pf_operator,
)

M333 = Model.from_kvector((3, 3, 3))


def _records():
    report = integrality_report(M333, 4)
    return {
        KVector: KVector((2, 3, 6)),
        Model: Model.from_weights(12, (4, 3, 3, 2)),
        PFOperator: pf_operator(M333, "local"),
        MirrorData: MirrorData.build(M333, 5),
        MahlerMeasure: mahler_measure(M333, 2, 16),
        IntegralityReport: report,
        Series: Series([Fraction(1, 6), -2, 0, Fraction(5, 4)]),
    }


RECORDS = _records()


@pytest.mark.parametrize("cls", list(RECORDS), ids=lambda cls: cls.__name__)
class TestRecord:
    def test_pickle_round_trip(self, cls):
        value = RECORDS[cls]
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            copy = pickle.loads(pickle.dumps(value, protocol))
            assert type(copy) is cls
            assert copy == value
            assert repr(copy) == repr(value)

    def test_attributes_are_read_only(self, cls):
        value = RECORDS[cls]
        with pytest.raises(AttributeError):
            value.order = 99
        with pytest.raises(AttributeError):
            value.extra = 1


@pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
def test_series_pickle_keeps_its_int_pair(protocol):
    value = RECORDS[Series]
    copy = pickle.loads(pickle.dumps(value, protocol))
    assert copy.numerators == value.numerators == (2, -24, 0, 15)
    assert copy.denominator == value.denominator == 12


class TestKVectorPickle:
    """Under every protocol, unpickling a KVector validates its parts again;
    protocols 0 and 1 would otherwise rebuild the tuple without __new__."""

    @pytest.mark.parametrize("protocol", [0, 1])
    def test_round_trip_under_the_oldest_protocols(self, protocol):
        kv = KVector((2, 3, 6))
        copy = pickle.loads(pickle.dumps(kv, protocol))
        assert type(copy) is KVector
        assert copy == kv

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_tampered_parts_are_refused(self, protocol):
        data = pickle.dumps(KVector((2, 3, 6)), protocol)
        six, seven = (b"I6\n", b"I7\n") if protocol == 0 else (b"K\x06", b"K\x07")
        assert data.count(six) == 1
        with pytest.raises(ValueError, match=r"reciprocals of \(2, 3, 7\) do not sum to 1"):
            pickle.loads(data.replace(six, seven))


class TestRecordPickle:
    """Model and PFOperator, like KVector, pass their fields back through
    ``__new__`` under every protocol, so an edited pickle is refused."""

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_model_with_an_edited_degree_is_refused(self, protocol):
        data = pickle.dumps(Model.from_kvector((3, 3, 3)), protocol)
        three, four = (b"I3\n", b"I4\n") if protocol == 0 else (b"K\x03", b"K\x04")
        # The degree k is the first 3 pickled; the k-vector's parts follow.
        with pytest.raises(ValueError, match=r"weights \(1, 1, 1\) do not sum to degree 4"):
            pickle.loads(data.replace(three, four, 1))

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_operator_with_an_edited_form_is_refused(self, protocol):
        data = pickle.dumps(pf_operator(M333, "local"), protocol)
        assert data.count(b"local") == 1
        with pytest.raises(ValueError, match="unknown operator form 'bogus'"):
            pickle.loads(data.replace(b"local", b"bogus"))


class TestIntegerFields:
    """A k-vector's parts, a model's degree and its weights are ints; a
    float or a string is refused, never truncated or kept."""

    @pytest.mark.parametrize("build", [
        lambda: KVector([2.9, 2]),
        lambda: KVector(["3", "3", "3"]),
        lambda: Model.from_kvector((3.7, 3, 3)),
        lambda: Model.from_weights(5.9, [2, 2, 1]),
        lambda: Model.from_weights(5, [2, 2, 1.5]),
        lambda: Model(6, (3, 2, 1.0)),
        lambda: Model("6", (3, 2, 1)),
    ], ids=["kvector-float", "kvector-str", "from-kvector-float", "from-weights-degree",
            "from-weights-weight", "model-weight", "model-degree-str"])
    def test_non_integers_are_refused(self, build):
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            build()

    def test_weights_are_stored_as_a_tuple_of_ints(self):
        model = Model(6, [3, 2, 1])
        assert model == Model.from_weights(6, (3, 2, 1))
        assert model.w == (3, 2, 1) and model.name == "6:3,2,1"


class TestKVectorValue:
    def test_equality_and_hash_follow_parts(self):
        a, b = KVector([2, 3, 6]), KVector((2, 3, 6))
        assert a == b and hash(a) == hash(b)
        assert a != KVector((3, 3, 3))
        assert a != (2, 3, 6)
        assert {a: 1}[b] == 1

    def test_repr_and_iteration(self):
        kv = KVector((2, 4, 4))
        assert repr(kv) == "KVector(parts=(2, 4, 4))"
        assert list(kv) == [2, 4, 4]
        assert str(kv) == "2,4,4"


class TestValidation:
    def test_model_default_names(self):
        assert Model.from_kvector((2, 3, 6)).name == "2,3,6"
        assert Model.from_weights(12, (4, 3, 3, 2)).name == "12:4,3,3,2"
        assert Model.from_kvector((2, 3, 6), name="E8").name == "E8"

    @pytest.mark.parametrize("k, w", [(6, (3, 2, 2)), (0, ()), (4, (5, -1)), (3, (3,))])
    def test_model_rejects_bad_weights(self, k, w):
        with pytest.raises(ValueError):
            Model(k, w)

    def test_pf_operator_rejects_unknown_form(self):
        op = pf_operator(M333)
        with pytest.raises(ValueError, match="unknown operator form"):
            PFOperator(op.constant, op.a, op.b, "scrambled")

    @pytest.mark.parametrize("edit, message", [
        (lambda a, b: (a, b[1:]), "reduced form needs equally many a and b"),
        (lambda a, b: ((a[0] + 1,) + a[1:], b), r"reduced a parameters must lie in \(0, 1\]"),
        (lambda a, b: (a, (b[0] - 1,) + b[1:]), r"reduced b parameters must lie in \[0, 1\)"),
    ], ids=["unequal", "a-outside", "b-outside"])
    def test_reduced_pf_operator_rejects_malformed_parameters(self, edit, message):
        op = pf_operator(M333)
        with pytest.raises(ValueError, match=f"^{message}$"):
            PFOperator(op.constant, *edit(op.a, op.b), "reduced")

    def test_reduced_pf_operator_rejects_overlapping_parameters(self):
        op = pf_operator(M333)
        with pytest.raises(ValueError, match="disjoint"):
            PFOperator(op.constant, op.a, (1 - op.a[0],) + op.b[1:], "reduced")
