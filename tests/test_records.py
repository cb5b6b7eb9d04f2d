"""The package's records are plain classes: each holds the fields its
constructor names, prints like a dataclass, and equals only a record of its
own type.  No import of the package loads ``dataclasses``."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import equidim
from equidim import (
    BoundsReport,
    Ecc2Report,
    EmptyBisectorGraph,
    EquidimResult,
    FamilySpec,
    FormulaValue,
    ForwardPair,
    Graph,
    bounds_report,
    empty_bisector_graph,
    vertex_cover_number,
)
from equidim.families import fish_graph

FISH_BOUNDS = dict(floor=6, lower_weak=7, lower=7, upper=8, upper_via_xi=10, exact=8)

#: Per value record: its fields in order, the defaults of the trailing
#: ones, an object of another type holding the same field values, its
#: repr, and, where a solver builds it, that solver call.
VALUE_RECORDS = {
    "EmptyBisectorGraph": (
        EmptyBisectorGraph,
        dict(graph=Graph(2, [(0, 1)])),
        {},
        (Graph(2, [(0, 1)]),),
        "EmptyBisectorGraph(graph=Graph(n=2, m=1))",
        lambda: empty_bisector_graph(Graph(2, [(0, 1)])),
    ),
    "EquidimResult": (
        EquidimResult,
        dict(value=1, witness=frozenset({3}), decomposition=None),
        dict(decomposition=None),
        (1, frozenset({3}), None),
        "EquidimResult(value=1, witness=frozenset({3}), decomposition=None)",
        lambda: vertex_cover_number(empty_bisector_graph(fish_graph()).graph),
    ),
    "ForwardPair": (
        ForwardPair,
        dict(x=frozenset({0}), y=frozenset({1, 2})),
        {},
        (frozenset({0}), frozenset({1, 2})),
        "ForwardPair(x=frozenset({0}), y=frozenset({1, 2}))",
        None,
    ),
    "FamilySpec": (
        FamilySpec,
        dict(name="path", params=(3,)),
        dict(params=()),
        ("path", (3,)),
        "FamilySpec(name='path', params=(3,))",
        None,
    ),
    "BoundsReport": (
        BoundsReport,
        FISH_BOUNDS,
        {},
        tuple(FISH_BOUNDS.values()),
        "BoundsReport(floor=6, lower_weak=7, lower=7, upper=8, upper_via_xi=10, exact=8)",
        lambda: bounds_report(fish_graph(), 2),
    ),
    "FormulaValue": (
        FormulaValue,
        dict(value=3, alternate_value=3),
        dict(alternate_value=None),
        Ecc2Report(3, 3),
        "FormulaValue(value=3, alternate_value=3)",
        None,
    ),
    "Ecc2Report": (
        Ecc2Report,
        dict(upper=3, exact=3),
        {},
        FormulaValue(3, 3),
        "Ecc2Report(upper=3, exact=3)",
        None,
    ),
}


@pytest.mark.parametrize(
    "cls, fields, defaults, twin, text, solve", VALUE_RECORDS.values(), ids=VALUE_RECORDS
)
def test_value_record_contract(cls, fields, defaults, twin, text, solve):
    record = cls(*fields.values())
    assert vars(record) == fields and list(vars(record)) == list(fields)
    assert cls(**fields) == record
    required = {name: value for name, value in fields.items() if name not in defaults}
    assert vars(cls(*required.values())) == {**fields, **defaults}
    assert vars(cls(**required)) == {**fields, **defaults}

    # Equal only within one type: the same field values in another record
    # type, or in a tuple, compare unequal.
    assert record != twin and twin != record
    assert record != tuple(fields.values())
    assert hash(cls(**fields)) == hash(record)

    name = next(iter(fields))
    with pytest.raises(AttributeError):
        setattr(record, name, None)
    with pytest.raises(AttributeError):
        record.extra = None
    with pytest.raises(AttributeError):
        delattr(record, name)
    assert vars(record) == fields

    assert repr(record) == text
    if solve is not None:
        built = solve()
        assert type(built) is cls and built == record
        assert list(vars(built)) == list(fields)


@pytest.mark.parametrize("module", ["equidim", "equidim.cli"])
def test_import_loads_no_dataclasses(module):
    # Every @dataclass compiles its generated methods at import, a cost
    # each fresh interpreter pays; the records are plain classes instead.
    env = dict(os.environ, PYTHONPATH=str(Path(equidim.__file__).parents[1]))
    code = f"import sys, {module}; print('dataclasses' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"
