"""Every record type of the package is immutable: assigning to one of its
fields raises AttributeError."""

import pytest

from semibrace import classify, core, nilpotency, tables, ybe
from semibrace.construct import trivial_semibrace

MODULES = (tables, core, ybe, nilpotency, classify)


@pytest.fixture(scope="module")
def b():
    # E = {0, 1}, G = {0}: decomposable, so every record below can be built
    return trivial_semibrace(tables.cyclic_group(2))


# (record type, a field, how to build one from the fixture)
RECORDS = [
    (tables.CayleyTable, "table", lambda b: b.add),
    (tables.GroupReport, "identity", lambda b: tables.check_group(b.circ.op)),
    (tables.FiniteGroup, "inverse", lambda b: b.circ),
    (tables.Subgroup, "normal", lambda b: tables.subgroups(b.circ)[0]),
    (core.SemiBrace, "lam", lambda b: b),
    (core.EPart, "elements", core.idempotents),
    (core.GPart, "semibrace", core.skew_part),
    (core.IdealReport, "witness", lambda b: core.is_ideal(b, b.e_elements)),
    (core.SemidirectData, "alpha", core.decompose),
    (ybe.SolutionMap, "r", ybe.solution_from),
    (ybe.SolutionProperties, "bijective", lambda b: ybe.check_properties(ybe.solution_from(b))),
    (nilpotency.SeriesReport, "verdict", nilpotency.right_series),
    (nilpotency.Rnilp1Report, "series_side", nilpotency.check_rnilp1),
    (classify.CensusEntry, "provenance", lambda b: classify.enumerate_generic(2)[0]),
    (classify.ClassificationReport, "problems",
     lambda b: classify.verify_classification("pq-congruent", 3, 2)),
]


def test_every_record_type_is_listed():
    defined = {
        obj for module in MODULES for obj in vars(module).values()
        if isinstance(obj, type) and obj.__module__ == module.__name__
        and not issubclass(obj, BaseException)
    }
    assert defined == {cls for cls, _, _ in RECORDS}


@pytest.mark.parametrize("cls, field, build", RECORDS, ids=[cls.__name__ for cls, _, _ in RECORDS])
def test_record_rejects_attribute_assignment(b, cls, field, build):
    record = build(b)
    assert type(record) is cls
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(record, field))
