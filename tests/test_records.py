"""The value records of the engine and the oracle: built with keywords and
defaults as their callers build them, equal and hashed by their fields, and
immutable."""

import pytest

from evolute.chow import SheafData, VarietyDescriptor
from evolute.oracle import EvoluteResult, PlaneCurve
from evolute.pipelines import EnumerativeReport, IdentityResult, LocusResult, curve_report
from evolute.ring import GeneratorTable, generator, unit
from evolute.varieties import CurveGeometry, CurveInvariants, SurfaceChernNumbers, curve_geometry

TABLE = GeneratorTable(("K", "H"), (1, 1), bound=1)
COTANGENT = SheafData(1, unit(TABLE) + generator(TABLE, "K"))

# class -> (record built from v, whether it hashes); v = 1 twice gives two
# equal but distinct records, v = 2 one that differs in a field
RECORDS = {
    GeneratorTable: (lambda v: GeneratorTable(("K", "H"), (1, 1), bound=v), True),
    SheafData: (lambda v: SheafData(v, unit(TABLE) + generator(TABLE, "H")), False),
    VarietyDescriptor: (
        lambda v: VarietyDescriptor(1, 3, TABLE, COTANGENT, {(1, 0): -2, (0, 1): v}),
        False,
    ),
    CurveInvariants: (lambda v: CurveInvariants(3, v + 1, 0), True),
    CurveGeometry: (lambda v: curve_geometry(CurveInvariants(3, v + 1, 0)), False),
    SurfaceChernNumbers: (lambda v: SurfaceChernNumbers(K2=v, c2=12, KH=0, H2=1), True),
    LocusResult: (lambda v: LocusResult("envelope", 1, v, v, True), True),
    IdentityResult: (lambda v: IdentityResult("relation", v, v, True), True),
    EnumerativeReport: (lambda v: curve_report(CurveInvariants(3, v + 1, 0)), False),
    PlaneCurve: (lambda v: PlaneCurve({(2, 0): 1, (0, 2): v, (0, 0): -1}, 2, 0, 0), True),
    EvoluteResult: (lambda v: EvoluteResult({(2, 0): v, (0, 0): -1}, 6, None, (), ("log",)), False),
}


@pytest.mark.parametrize("cls", list(RECORDS), ids=lambda cls: cls.__name__)
def test_record_semantics(cls):
    build, hashable = RECORDS[cls]
    a, b, other = build(1), build(1), build(2)
    assert type(a) is cls and a is not b
    assert a == b and not a != b
    assert a != other and not a == other
    assert a != object()
    if hashable:
        assert hash(a) == hash(b)
    else:
        with pytest.raises(TypeError):
            hash(a)
    field = cls.__slots__[0]
    assert repr(a).startswith(f"{cls.__name__}({field}=")
    with pytest.raises(AttributeError):
        setattr(a, field, getattr(other, field))
    with pytest.raises(AttributeError):
        a.extra = 1
    assert a == b


def test_keywords_and_defaults():
    assert GeneratorTable(("K",), (1,), bound=1) == GeneratorTable(("K",), (1,), 1, 0, 0)
    assert SurfaceChernNumbers(K2=1, c2=2, KH=3, H2=4) == SurfaceChernNumbers(1, 2, 3, 4)
    assert CurveInvariants(4, 3, 0) == CurveInvariants(4, 3, 0, (0, 0, 0))


def test_table_memos_are_not_compared():
    # a table that has memoized degrees equals a fresh one
    used = GeneratorTable(("K", "H"), (1, 2), bound=2)
    fresh = GeneratorTable(("K", "H"), (1, 2), bound=2)
    assert used.admissible((1, 1)) is False and used.degree((0, 1)) == 2
    assert used == fresh and hash(used) == hash(fresh)


def test_report_dict_keeps_the_field_order():
    # the text and CSV renderers and the JSON payload iterate over these keys
    report = curve_report(CurveInvariants(3, 3, 0))
    payload = report.to_dict()
    assert list(payload) == ["input", "results", "identities", "citations", "flags"]
    assert [list(r) for r in payload["results"]] == [
        ["locus", "k", "engine_degree", "closed_form", "match"]
    ] * len(report.results)
    assert [list(i) for i in payload["identities"]] == [
        ["name", "lhs", "rhs", "holds"]
    ] * len(report.identities)
    assert payload["input"] is report.input
    assert payload["results"][0]["engine_degree"] == report.results[0].engine_degree
    assert payload["citations"] == report.citations and payload["flags"] == report.flags
