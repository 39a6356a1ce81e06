"""The Certificate record: construction, validation, immutability, JSON."""

import json
from fractions import Fraction

import pytest

from leraykit.certificates import Certificate, first_failure


def test_positional_and_keyword_construction_agree():
    by_position = Certificate("c.id", "exact", "verified", "a claim", {"q": Fraction(2, 3)}, {"w": [1, 2]})
    by_keyword = Certificate(claim_id="c.id", method="exact", verdict="verified", anchor="a claim",
                             inputs={"q": Fraction(2, 3)}, witnesses={"w": [1, 2]})
    assert by_position == by_keyword
    assert (by_keyword.claim_id, by_keyword.method, by_keyword.verdict, by_keyword.anchor) == (
        "c.id", "exact", "verified", "a claim")
    assert by_keyword.inputs == {"q": Fraction(2, 3)} and by_keyword.witnesses == {"w": [1, 2]}
    assert by_keyword != Certificate("c.id", "exact", "failed", "a claim", {"q": Fraction(2, 3)}, {"w": [1, 2]})
    assert by_keyword != "c.id"
    assert repr(by_keyword) == ("Certificate(claim_id='c.id', method='exact', verdict='verified', "
                                "anchor='a claim', inputs={'q': Fraction(2, 3)}, witnesses={'w': [1, 2]})")


def test_default_dicts_are_fresh():
    first, second = Certificate("a", "exact", "verified", "x"), Certificate("b", "exact", "verified", "y")
    assert first.inputs == {} and first.witnesses == {}
    first.inputs["k"] = 1
    first.witnesses["k"] = 2
    assert second.inputs == {} and second.witnesses == {}
    assert first.inputs is not first.witnesses


@pytest.mark.parametrize("method, verdict, message", [
    ("exact", "proved", "unknown verdict 'proved'"),
    ("heuristic", "verified", "unknown method 'heuristic'"),
])
def test_unknown_verdict_or_method_is_a_value_error(method, verdict, message):
    with pytest.raises(ValueError, match=message):
        Certificate("c", method, verdict, "a")


def test_fields_cannot_be_assigned_or_deleted():
    cert = Certificate("c", "bounded-numeric", "supports", "a")
    with pytest.raises(AttributeError):
        cert.verdict = "refutes"
    with pytest.raises(AttributeError):
        cert.extra = 1
    with pytest.raises(AttributeError):
        del cert.claim_id
    assert cert.verdict == "supports" and cert.passed
    with pytest.raises(TypeError):  # the dict fields make it unhashable
        hash(cert)


def test_json_and_passing_verdicts():
    cert = Certificate("c", "exact", "failed", "a", inputs={"q": Fraction(-2, 3)}, witnesses={"t": (1, 0.5)})
    assert not cert.passed and first_failure([Certificate("ok", "exact", "verified", "b"), cert]) is cert
    assert json.loads(cert.to_json()) == {
        "claim_id": "c", "method": "exact", "verdict": "failed", "anchor": "a",
        "inputs": {"q": "-2/3"}, "witnesses": {"t": [1, 0.5]},
    }
    assert cert.to_json(indent=1) == json.dumps(cert.to_dict(), indent=1, sort_keys=True)

