"""Instance file schema: exact numerals, validation paths, round trips."""

import dataclasses
import json
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from maxminconv.core import DomainError, UNIT
from maxminconv.geometry import point
from maxminconv.instance import (
    _OBJECTS,
    _SECTIONS,
    Instance,
    dumps_instance,
    instance_from_dict,
    loads_instance,
    parse_raw,
)

from support import instance_from_dict_loop

FULL_DOC = """
{
  "schema": 1,
  "dimension": 2,
  "points": {"p": ["0.5", "0.3"], "q": [0.1, "2/5"]},
  "pointsets": {"cloud": [["0.1", "0.2"], ["0.1", "0.2"], ["0.9", "0.8"]]},
  "polytopes": {
    "X": [["0.2", "0.8"], ["0.8", "0.2"]],
    "Y": [["0.5", "0.5"]]
  },
  "boxes": {"B": {"lower": ["0.1", "0.2"], "upper": ["0.4", "0.6"]}},
  "matrices": {"A": [["0.9", "0.1"], ["0.8", "0.3"], ["0.5", "0.4"]]},
  "hyperplanes": {"H": {"a": ["0.6", "0", "0.2"], "b": ["0", "0.6", "0.2"]}},
  "families": {"F": ["X", "Y", "X"]},
  "colorings": {"C": [[["0", "0"]], [["1", "0.2"]], [["0.2", "1"]]]}
}
"""


def test_full_document_parses():
    inst = loads_instance(FULL_DOC)
    assert inst.tnorm.is_min
    assert inst.bounds == UNIT
    assert inst.dimension == 2
    assert inst.points["p"] == point("0.5", "0.3")
    assert inst.points["q"] == point("0.1", "0.4")
    assert len(inst.pointsets["cloud"]) == 3
    assert len(inst.polytopes["X"].generators) == 2
    assert inst.boxes["B"].lower == point("0.1", "0.2")
    assert inst.matrices["A"].rows[2] == (Fraction(1, 2), Fraction(2, 5))
    assert inst.hyperplanes["H"].dim == 2
    assert inst.families["F"] == ("X", "Y", "X")
    assert len(inst.colorings["C"]) == 3


def test_bare_float_literal_is_exact():
    """JSON 0.1 must arrive as one tenth, not the nearest double."""
    inst = loads_instance('{"schema": 1, "points": {"p": [0.1]}}')
    assert inst.points["p"][0] == Fraction(1, 10)


def test_fraction_strings():
    inst = loads_instance('{"schema": 1, "points": {"p": ["3/20", "1"]}}')
    assert inst.points["p"].coords == (Fraction(3, 20), Fraction(1))


def test_defaults():
    inst = loads_instance('{"schema": 1}')
    assert inst.tnorm.is_min and inst.bounds == UNIT
    assert inst.dimension is None and inst.grid_step is None
    assert inst.points == {} and inst.polytopes == {}


def test_tnorm_and_grid_step_sections():
    inst = loads_instance('{"schema": 1, "tnorm": "product", "grid_step": "1/50"}')
    assert inst.tnorm.tag == "product"
    assert inst.grid_step == Fraction(1, 50)


def test_custom_bounds():
    inst = loads_instance('{"schema": 1, "bounds": ["-1", "2"], "points": {"p": ["1.5"]}}')
    assert inst.bounds.lo == -1 and inst.bounds.hi == 2
    assert inst.points["p"][0] == Fraction(3, 2)


# ---------------------------------------------------------------------------
# validation diagnostics
# ---------------------------------------------------------------------------


def test_unknown_section():
    with pytest.raises(DomainError, match="polygon: unknown section"):
        loads_instance('{"schema": 1, "polygon": {}}')


def test_schema_version_required():
    with pytest.raises(DomainError, match="schema: expected 1, got None"):
        loads_instance('{"points": {}}')
    with pytest.raises(DomainError, match="schema: expected 1, got 2"):
        loads_instance('{"schema": 2}')
    # JSON true is a Python bool, and bool subclasses int: True == 1
    with pytest.raises(DomainError, match="schema: expected 1, got True"):
        loads_instance('{"schema": true}')


def test_bad_numeral_reports_path():
    with pytest.raises(DomainError, match=r"points\.p\[1\]"):
        loads_instance('{"schema": 1, "points": {"p": ["0.5", "zebra"]}}')


def test_bounds_shape():
    with pytest.raises(DomainError, match=r"bounds: expected \[lo, hi\]"):
        loads_instance('{"schema": 1, "bounds": ["0"]}')
    with pytest.raises(DomainError, match="bounds"):
        loads_instance('{"schema": 1, "bounds": ["1", "0"]}')


def test_unknown_tnorm():
    with pytest.raises(DomainError, match="tnorm"):
        loads_instance('{"schema": 1, "tnorm": "drastic"}')


def test_non_min_tnorm_needs_unit_bounds():
    with pytest.raises(DomainError, match="tnorm"):
        loads_instance('{"schema": 1, "tnorm": "product", "bounds": ["0", "2"]}')


def test_dimension_declared_mismatch():
    doc = '{"schema": 1, "dimension": 3, "points": {"p": ["0.5", "0.3"]}}'
    with pytest.raises(DomainError, match=r"points\.p: expected dimension 3, got 2"):
        loads_instance(doc)


def test_dimension_inferred_mismatch():
    doc = (
        '{"schema": 1, "points": {"p": ["0.5", "0.3"]},'
        ' "polytopes": {"X": [["0.1"]]}}'
    )
    with pytest.raises(DomainError, match=r"polytopes\.X\[0\]: expected dimension 2"):
        loads_instance(doc)


def test_dimension_must_be_positive_integer():
    with pytest.raises(DomainError, match="dimension"):
        loads_instance('{"schema": 1, "dimension": 0}')
    with pytest.raises(DomainError, match="dimension"):
        loads_instance('{"schema": 1, "dimension": "two"}')
    with pytest.raises(DomainError, match="dimension: expected a positive integer, got True"):
        loads_instance('{"schema": 1, "dimension": true, "points": {"p": ["0.5"]}}')


def test_grid_step_positive():
    with pytest.raises(DomainError, match="grid_step: must be positive"):
        loads_instance('{"schema": 1, "grid_step": "0"}')


def test_empty_point_rejected():
    with pytest.raises(DomainError, match="empty point"):
        loads_instance('{"schema": 1, "points": {"p": []}}')


def test_empty_polytope_rejected():
    with pytest.raises(DomainError, match="at least one generator"):
        loads_instance('{"schema": 1, "polytopes": {"X": []}}')


def test_box_requires_lower_and_upper():
    with pytest.raises(DomainError, match=r"boxes\.B: expected"):
        loads_instance('{"schema": 1, "boxes": {"B": {"lower": ["0.1"]}}}')


def test_box_ordering_enforced():
    doc = '{"schema": 1, "boxes": {"B": {"lower": ["0.7"], "upper": ["0.2"]}}}'
    with pytest.raises(DomainError, match=r"boxes\.B"):
        loads_instance(doc)


def test_matrix_ragged_rows():
    doc = '{"schema": 1, "matrices": {"A": [["0.1", "0.2"], ["0.3"]]}}'
    with pytest.raises(DomainError, match="ragged"):
        loads_instance(doc)


def test_matrix_shape_enforced():
    doc = '{"schema": 1, "matrices": {"A": [["0.1", "0.2"], ["0.3", "0.4"]]}}'
    with pytest.raises(DomainError, match=r"matrices\.A"):
        loads_instance(doc)


def test_hyperplane_requires_a_and_b():
    doc = '{"schema": 1, "hyperplanes": {"H": {"a": ["0.1", "0.2"]}}}'
    with pytest.raises(DomainError, match=r"hyperplanes\.H: expected"):
        loads_instance(doc)


def test_hyperplane_length_mismatch():
    doc = '{"schema": 1, "hyperplanes": {"H": {"a": ["0.1", "0.2"], "b": ["0.3"]}}}'
    with pytest.raises(DomainError, match=r"hyperplanes\.H"):
        loads_instance(doc)


def test_family_member_must_exist():
    doc = '{"schema": 1, "polytopes": {"X": [["0.1"]]}, "families": {"F": ["X", "Z"]}}'
    with pytest.raises(DomainError, match=r"families\.F\[1\].*unknown polytope 'Z'"):
        loads_instance(doc)


def test_coloring_empty_class():
    doc = '{"schema": 1, "colorings": {"C": [[["0.1"]], []]}}'
    with pytest.raises(DomainError, match=r"colorings\.C\[1\]"):
        loads_instance(doc)


def test_coordinate_outside_bounds():
    with pytest.raises(DomainError, match="outside bounds"):
        loads_instance('{"schema": 1, "points": {"p": ["1.5"]}}')


@pytest.mark.parametrize(
    "sections, message",
    [
        ({"points": {"p": ["0.1", "1.5"]}}, "points.p: value 3/2 outside bounds [0, 1]"),
        ({"pointsets": {"S": [["0.1"], ["0.2"], ["3/2"]]}},
         "pointsets.S[2]: value 3/2 outside bounds [0, 1]"),
        ({"polytopes": {"C": [["0.1"], ["1.5"]]}},
         "polytopes.C[1]: value 3/2 outside bounds [0, 1]"),
        ({"boxes": {"B": {"lower": ["0.1"], "upper": ["2"]}}},
         "boxes.B.upper: value 2 outside bounds [0, 1]"),
        ({"colorings": {"K": [[["0.1"]], [["0.2"], ["-1"]]]}},
         "colorings.K[1][1]: value -1 outside bounds [0, 1]"),
        ({"bounds": ["-1", "2"], "points": {"p": ["5/2"]}},
         "points.p: value 5/2 outside bounds [-1, 2]"),
        ({"matrices": {"A": [["0.1", "0.2"], ["1/2", "-3"], ["1/5", "1"]]}},
         "matrices.A[1]: value -3 outside bounds [0, 1]"),
        ({"hyperplanes": {"H": {"a": ["7", "0", "1/5"], "b": ["0", "3/5", "1/5"]}}},
         "hyperplanes.H.a: value 7 outside bounds [0, 1]"),
        ({"hyperplanes": {"H": {"a": ["3/5", "0", "1/5"], "b": ["0", "3/5", "6/5"]}}},
         "hyperplanes.H.b: value 6/5 outside bounds [0, 1]"),
    ],
    ids=[
        "points", "pointsets", "polytopes", "boxes", "colorings", "wide-bounds",
        "matrices", "hyperplane-a", "hyperplane-b",
    ],
)
def test_bounds_error_names_the_point(sections, message):
    with pytest.raises(DomainError) as exc:
        instance_from_dict({"schema": 1, **sections})
    assert str(exc.value) == message


def test_box_errors_get_one_prefix():
    with pytest.raises(DomainError) as exc:
        instance_from_dict({"schema": 1, "boxes": {"B": {"lower": "x", "upper": ["0.2"]}}})
    assert str(exc.value) == "boxes.B.lower: expected a list of numerals"
    with pytest.raises(DomainError) as exc:
        instance_from_dict({"schema": 1, "boxes": {"B": {"lower": ["0.7"], "upper": ["0.2"]}}})
    assert str(exc.value) == "boxes.B: box needs lower <= upper componentwise"


def test_bounds_error_is_reported_in_document_order():
    doc = {
        "schema": 1,
        "points": {"p": ["1.5"]},
        "polytopes": {"X": [["0.1"]]},
        "families": {"F": ["Z"]},
    }
    with pytest.raises(DomainError) as exc:
        instance_from_dict(doc)
    assert str(exc.value) == "points.p: value 3/2 outside bounds [0, 1]"


# Numerals as instance_from_dict receives them from parse_raw: strings,
# ints, and Fractions for bare JSON decimals; besides JSON booleans,
# floats from other callers, and malformed or out-of-bounds values.  A
# small pool makes most numerals repeat within their document.
_GOOD_NUMERALS = [
    "0", "1", "1/2", "0.5", "3/2", "2", "-1", "0.25", " 1/2 ",
    0, 1, 2, Fraction(1, 2), Fraction(3, 2), Fraction(1),
]
_BAD_NUMERALS = [
    True, False, 0.5, None, [], "", "zebra", "1/0", "1e5000", "1e-1001", "7" * 1001,
]
_numerals = st.sampled_from(_GOOD_NUMERALS * 4 + _BAD_NUMERALS)
_UNIT_NUMERALS = ["0", "1", "1/2", "0.5", "0.25", " 1/2 ", 0, 1, Fraction(1, 2), Fraction(1)]


@st.composite
def _numeral_documents(draw, numerals=_numerals, ragged=True):
    d = draw(st.integers(1, 3))
    fits = st.lists(numerals, min_size=d, max_size=d)
    row = fits
    if ragged:
        row = st.one_of(fits, fits, st.lists(numerals, max_size=d + 1))  # 2 in 3 fit d
    rows = st.lists(row, min_size=1, max_size=3)
    named = lambda entry: st.dictionaries(st.sampled_from("pqr"), entry, max_size=2)
    doc = {"schema": 1}
    if draw(st.booleans()):
        doc["bounds"] = draw(st.sampled_from([["0", "2"], ["-1", "2"], [0, "3/2"]]))
    doc["points"] = draw(named(row))
    doc["pointsets"] = draw(named(rows))
    doc["polytopes"] = draw(named(rows))
    doc["boxes"] = draw(named(st.fixed_dictionaries({"lower": row, "upper": row})))
    doc["matrices"] = draw(named(st.lists(row, min_size=1, max_size=d + 1)))
    vector = st.lists(_numerals, min_size=d + 1, max_size=d + 1)
    doc["hyperplanes"] = draw(named(st.fixed_dictionaries({"a": vector, "b": vector})))
    doc["colorings"] = draw(named(st.lists(rows, min_size=1, max_size=d + 1)))
    return doc


def _outcome(parse, doc):
    try:
        return parse(doc)
    except DomainError as exc:
        return str(exc)


@settings(max_examples=400, deadline=None)
@given(doc=_numeral_documents())
@example(doc={"schema": 1, "points": {"p": ["1", "0"], "q": [True, "0"]}})
@example(doc={"schema": 1, "points": {"p": [1, 0], "q": [1, False]}})
@example(doc={"schema": 1, "points": {"p": ["3/2", "zebra"], "q": ["3/2"]}})
@example(doc={"schema": 1, "points": {"p": ["3/2"], "q": ["0", "3/2"]}})
def test_numeral_table_matches_the_per_coordinate_parser(doc):
    """One conversion per distinct numeral string gives the same Instance,
    or the same first error, as converting every coordinate."""
    assert _outcome(instance_from_dict, doc) == _outcome(instance_from_dict_loop, doc)


def test_numeral_table_lives_for_one_document():
    wide = {"schema": 1, "bounds": ["0", "2"], "points": {"p": ["3/2", "3/2"]}}
    assert instance_from_dict(wide).points["p"] == point("3/2", "3/2")
    with pytest.raises(DomainError) as exc:
        instance_from_dict({"schema": 1, "points": {"p": ["3/2", "1"]}})
    assert str(exc.value) == "points.p: value 3/2 outside bounds [0, 1]"


def test_section_entries_must_be_named():
    with pytest.raises(DomainError, match="expected an object"):
        loads_instance('{"schema": 1, "points": [["0.1"]]}')


def test_invalid_json_reports_position():
    with pytest.raises(DomainError, match="invalid JSON at line"):
        parse_raw('{"schema": 1,}')


def test_top_level_must_be_object():
    with pytest.raises(DomainError, match="JSON object"):
        parse_raw("[1, 2]")


def test_deep_nesting_is_refused():
    def nested(depth):
        return '{"schema": 1, "points": {"p": %s%s}}' % ("[" * depth, "]" * depth)

    with pytest.raises(DomainError) as exc:
        parse_raw(nested(100000))
    assert str(exc.value) == "instance file nests too deeply"
    with pytest.raises(DomainError, match=r"^points\.p\[0\]: "):
        loads_instance(nested(500))


# ---------------------------------------------------------------------------
# lookup
# ---------------------------------------------------------------------------


def test_lookup_by_name_and_sole_entry():
    inst = loads_instance(FULL_DOC)
    assert inst.lookup("points", "p") == point("0.5", "0.3")
    assert inst.lookup("boxes", None).upper == point("0.4", "0.6")


def test_lookup_missing_name_lists_available():
    inst = loads_instance(FULL_DOC)
    with pytest.raises(DomainError, match=r"no 'r' in section points.*'p', 'q'"):
        inst.lookup("points", "r")


def test_lookup_unnamed_needs_single_entry():
    inst = loads_instance(FULL_DOC)
    with pytest.raises(DomainError, match="section points has 2 entries"):
        inst.lookup("points", None)


def test_family_polytopes_resolves_names():
    inst = loads_instance(FULL_DOC)
    fam = inst.family_polytopes("F")
    assert len(fam) == 3
    assert fam[0] is fam[2]


# ---------------------------------------------------------------------------
# round trip
# ---------------------------------------------------------------------------


def test_round_trip_identity():
    inst = loads_instance(FULL_DOC)
    again = loads_instance(dumps_instance(inst))
    assert again == inst


def test_round_trip_preserves_settings():
    doc = (
        '{"schema": 1, "tnorm": "lukasiewicz", "grid_step": "1/20",'
        ' "points": {"p": ["0.15"]}}'
    )
    inst = loads_instance(doc)
    again = loads_instance(dumps_instance(inst))
    assert again == inst
    assert again.tnorm.tag == "lukasiewicz"
    assert again.grid_step == Fraction(1, 20)


def test_round_trip_custom_bounds():
    doc = '{"schema": 1, "bounds": ["-1", "2"], "points": {"p": ["1.5", "-0.25"]}}'
    inst = loads_instance(doc)
    assert loads_instance(dumps_instance(inst)) == inst


@st.composite
def _whole_documents(draw):
    """One object section of a ``_numeral_documents`` document, in most
    of them with numerals in [0, 1] and rows of one length; families
    naming its polytopes, and the scalar sections."""
    if draw(st.integers(0, 3)):
        doc = draw(_numeral_documents(st.sampled_from(_UNIT_NUMERALS), ragged=False))
    else:
        doc = draw(_numeral_documents())
    kept = draw(st.sampled_from(sorted(set(doc) & set(_OBJECTS))))
    assume(doc[kept])
    doc = {key: value for key, value in doc.items() if key not in _OBJECTS or key == kept}
    if kept == "polytopes":
        members = st.lists(st.sampled_from(sorted(doc["polytopes"])), max_size=3)
        doc["families"] = draw(st.dictionaries(st.sampled_from("FG"), members, min_size=1))
    if draw(st.booleans()):
        doc["tnorm"] = draw(st.sampled_from(["min", "product", "lukasiewicz"]))
    if draw(st.booleans()):
        doc["grid_step"] = draw(st.sampled_from(["1/20", "0.05", 1]))
    if draw(st.booleans()):
        doc["dimension"] = draw(st.integers(1, 3))
    return doc


@settings(max_examples=300, deadline=None)
@given(doc=_whole_documents())
def test_every_section_round_trips(doc):
    try:
        inst = instance_from_dict(doc)
    except DomainError:
        return
    assert loads_instance(dumps_instance(inst)) == inst


def test_object_table_matches_the_instance_fields():
    sections = [f.name for f in dataclasses.fields(Instance) if f.type.startswith("dict[")]
    assert list(_OBJECTS) == sections
    assert _SECTIONS == ("schema", "dimension", "tnorm", "bounds", "grid_step", *sections)


def test_dump_is_valid_json_with_schema():
    inst = loads_instance(FULL_DOC)
    doc = json.loads(dumps_instance(inst))
    assert doc["schema"] == 1
    assert set(doc["polytopes"]) == {"X", "Y"}


def test_instance_from_dict_directly():
    inst = instance_from_dict({"schema": 1, "points": {"p": ["0.5"]}})
    assert isinstance(inst, Instance)
    assert inst.points["p"] == point("0.5")
