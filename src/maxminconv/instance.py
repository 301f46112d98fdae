"""Problem instance files: a single versioned JSON schema, exact numerals.

Every numeral in an instance file is parsed as an exact rational.
Strings may use decimal ("0.15") or fraction ("3/20") form; bare JSON
numbers are intercepted before float conversion, so "0.1" means one
tenth, not the nearest double.  Serialization writes fractions in p/q
form, which makes parse -> dump -> parse the identity.

Within one document each distinct numeral string is converted once and
checked against the bounds once; later occurrences reuse both.  Errors
name the path of the first offending value, in document order: per
row, a numeral that does not parse first, then an empty point or a
dimension mismatch, then the first value outside the bounds.  A numeral
longer than ``core.NUMERAL_LIMIT`` characters, or with a decimal
exponent beyond it, is refused at its path, bare JSON numbers included,
since its value could not be printed back.

``_OBJECTS`` declares the object sections, points to colorings, in
parse order, which is also the order in which errors are found; a
family names polytopes parsed before it.  Each entry pairs the parser
of one named entry with its formatter, and ``instance_from_dict`` and
``instance_to_dict`` each run one loop over it.

Top-level sections (all optional, all holding named objects):

    schema      literal 1
    dimension   expected coordinate count, checked against every object
    tnorm       "min" | "product" | "lukasiewicz" (default "min")
    bounds      [lo, hi] semiring carrier (default [0, 1])
    grid_step   refinement step for non-min witness searches
    points      {"name": [c1, ..., cd]}
    pointsets   {"name": [[...], ...]}     ordered, duplicates kept
    polytopes   {"name": [[...], ...]}     generator lists
    boxes       {"name": {"lower": [...], "upper": [...]}}
    matrices    {"name": [[...], ...]}     (d+1) x d for diagram work
    hyperplanes {"name": {"a": [...], "b": [...]}}  length d+1 each
    families    {"name": ["polytopeA", "polytopeB", ...]}
    colorings   {"name": [[[...], ...], ...]}  d+1 generator lists
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable, Mapping, Sequence

from .core import (
    NUMERAL_LIMIT,
    DomainError,
    SemiringBounds,
    TNorm,
    UNIT,
    as_value,
    format_value,
)
from .geometry import Point
from .hull import Polytope
from .koenig import Matrix
from .semispaces import Hyperplane
from .separation import Box

SCHEMA_VERSION = 1


def _fail(path: str, message: str) -> DomainError:
    return DomainError("%s: %s" % (path, message))


def _value(raw: Any, path: str, index: int | None = None) -> Fraction:
    """``raw`` as a Fraction; a refusal names ``path``, or ``path[index]``."""
    try:
        if isinstance(raw, ValueError):
            raise raw  # a JSON number that parse_raw could not convert
        return as_value(raw)
    except (ValueError, TypeError) as exc:
        if index is not None:
            path = "%s[%d]" % (path, index)
        raise _fail(path, str(exc)) from None


def _numeral_list(raw: Any, path: str) -> Sequence[Any]:
    if not isinstance(raw, Sequence) or isinstance(raw, str):
        raise _fail(path, "expected a list of numerals")
    return raw


def _named(raw: Any, path: str) -> dict[str, Any]:
    if raw is None:
        return {}
    if not isinstance(raw, Mapping):
        raise _fail(path, "expected an object of named entries")
    for key in raw:
        if not isinstance(key, str):
            raise _fail(path, "entry names must be strings, got %r" % (key,))
    return dict(raw)


@dataclass(frozen=True)
class Instance:
    """Parsed instance file; all values exact, all names preserved."""

    tnorm: TNorm
    bounds: SemiringBounds = UNIT
    dimension: int | None = None
    grid_step: Fraction | None = None
    points: dict[str, Point] = field(default_factory=dict)
    pointsets: dict[str, tuple[Point, ...]] = field(default_factory=dict)
    polytopes: dict[str, Polytope] = field(default_factory=dict)
    boxes: dict[str, Box] = field(default_factory=dict)
    matrices: dict[str, Matrix] = field(default_factory=dict)
    hyperplanes: dict[str, Hyperplane] = field(default_factory=dict)
    families: dict[str, tuple[str, ...]] = field(default_factory=dict)
    colorings: dict[str, tuple[Polytope, ...]] = field(default_factory=dict)

    def lookup(self, section: str, name: str | None):
        """Entry by name, or the sole entry of the section when unnamed."""
        table: Mapping[str, Any] = getattr(self, section)
        if name is not None:
            if name not in table:
                raise DomainError(
                    "no %r in section %s; available: %s"
                    % (name, section, sorted(table) or "none")
                )
            return table[name]
        if len(table) == 1:
            return next(iter(table.values()))
        raise DomainError(
            "section %s has %d entries; pick one of %s by name"
            % (section, len(table), sorted(table))
        )

    def family_polytopes(self, name: str | None) -> tuple[Polytope, ...]:
        members = self.lookup("families", name)
        return tuple(self.lookup("polytopes", m) for m in members)


def _check_dim(dim: int | None, got: int, path: str) -> int:
    if dim is not None and got != dim:
        raise _fail(path, "expected dimension %d, got %d" % (dim, got))
    return got


class _Reader:
    """What the object sections of one document share while they parse.

    The bounds, the dimension found so far, the sections parsed so far,
    and one entry per distinct numeral string of the document: its value
    and whether it lies inside the bounds.  Numeral keys are strings
    only, as JSON true == 1 and hash(True) == hash(1).
    """

    def __init__(self, bounds: SemiringBounds, dim: int | None):
        self.bounds = bounds
        self.dim = dim
        self.objects: dict[str, dict[str, Any]] = {}
        self.numerals: dict[str, tuple[Fraction, bool]] = {}

    def row(self, raw: Any, path: str, point: bool = True) -> tuple[Fraction, ...]:
        """A row's values: parse errors first; for a point, the empty and
        dimension checks next; the first value outside the bounds last."""
        numerals, bounds = self.numerals, self.bounds
        values = []
        outside = None
        for i, v in enumerate(_numeral_list(raw, path)):
            entry = numerals.get(v) if isinstance(v, str) else None
            if entry is None:
                value = _value(v, path, i)
                entry = (value, bounds.contains(value))
                if isinstance(v, str):
                    numerals[v] = entry
            values.append(entry[0])
            if outside is None and not entry[1]:
                outside = entry[0]
        if point:
            if not values:
                raise _fail(path, "empty point")
            self.dim = _check_dim(self.dim, len(values), path)
        if outside is not None:
            raise _fail(path, "value %s outside bounds %s" % (outside, bounds))
        return tuple(values)

    def point(self, raw: Any, path: str) -> Point:
        return Point(self.row(raw, path))

    def points(self, raw: Any, path: str) -> tuple[Point, ...]:
        if not isinstance(raw, Sequence) or isinstance(raw, str):
            raise _fail(path, "expected a list of points")
        return tuple(self.point(row, "%s[%d]" % (path, i)) for i, row in enumerate(raw))


def _polytope(rd: _Reader, raw: Any, path: str) -> Polytope:
    rows = rd.points(raw, path)
    if not rows:
        raise _fail(path, "a polytope needs at least one generator")
    return Polytope(rows)


def _box(rd: _Reader, raw: Any, path: str) -> Box:
    if not isinstance(raw, Mapping) or set(raw) != {"lower", "upper"}:
        raise _fail(path, 'expected {"lower": [...], "upper": [...]}')
    return Box(rd.point(raw["lower"], path + ".lower"), rd.point(raw["upper"], path + ".upper"))


def _matrix(rd: _Reader, raw: Any, path: str) -> Matrix:
    if not isinstance(raw, Sequence) or isinstance(raw, str) or not raw:
        raise _fail(path, "expected a non-empty list of rows")
    rows = tuple(rd.row(row, "%s[%d]" % (path, i), point=False) for i, row in enumerate(raw))
    ncols = len(rows[0])
    if any(len(r) != ncols for r in rows):
        raise _fail(path, "ragged rows")
    rd.dim = _check_dim(rd.dim, ncols, path)
    return Matrix(rows)


def _hyperplane(rd: _Reader, raw: Any, path: str) -> Hyperplane:
    if not isinstance(raw, Mapping) or set(raw) != {"a", "b"}:
        raise _fail(path, 'expected {"a": [...], "b": [...]}')
    h = Hyperplane(rd.row(raw["a"], path + ".a", point=False),
                   rd.row(raw["b"], path + ".b", point=False))
    rd.dim = _check_dim(rd.dim, h.dim, path)
    return h


def _family(rd: _Reader, raw: Any, path: str) -> tuple[str, ...]:
    if not isinstance(raw, Sequence) or isinstance(raw, str):
        raise _fail(path, "expected a list of polytope names")
    polytopes = rd.objects["polytopes"]
    for i, member in enumerate(raw):
        if not isinstance(member, str) or member not in polytopes:
            raise _fail(
                "%s[%d]" % (path, i),
                "unknown polytope %r; available: %s" % (member, sorted(polytopes)),
            )
    return tuple(raw)


def _coloring(rd: _Reader, raw: Any, path: str) -> tuple[Polytope, ...]:
    if not isinstance(raw, Sequence) or isinstance(raw, str) or not raw:
        raise _fail(path, "expected a non-empty list of color classes")
    classes = []
    for i, cls in enumerate(raw):
        rows = rd.points(cls, "%s[%d]" % (path, i))
        if not rows:
            raise _fail("%s[%d]" % (path, i), "empty color class")
        classes.append(Polytope(rows))
    return tuple(classes)


def _formatted(values: Sequence[Fraction]) -> list[str]:
    return [format_value(v) for v in values]


def _generators(poly: Polytope) -> list[list[str]]:
    return [_formatted(g.coords) for g in poly.generators]


# section -> (parse one named entry, format one entry), in parse order
_OBJECTS: dict[str, tuple[Callable[[_Reader, Any, str], Any], Callable[[Any], Any]]] = {
    "points": (_Reader.point, lambda p: _formatted(p.coords)),
    "pointsets": (_Reader.points, lambda ps: [_formatted(p.coords) for p in ps]),
    "polytopes": (_polytope, _generators),
    "boxes": (_box, lambda b: {"lower": _formatted(b.lower.coords),
                               "upper": _formatted(b.upper.coords)}),
    "matrices": (_matrix, lambda m: [_formatted(row) for row in m.rows]),
    "hyperplanes": (_hyperplane, lambda h: {"a": _formatted(h.a), "b": _formatted(h.b)}),
    "families": (_family, list),
    "colorings": (_coloring, lambda classes: [_generators(c) for c in classes]),
}

_SECTIONS = ("schema", "dimension", "tnorm", "bounds", "grid_step", *_OBJECTS)


def instance_from_dict(doc: Mapping[str, Any]) -> Instance:
    for key in doc:
        if key not in _SECTIONS:
            raise _fail(key, "unknown section (known: %s)" % (", ".join(_SECTIONS)))
    schema = doc.get("schema")
    if isinstance(schema, bool) or schema != SCHEMA_VERSION:
        raise _fail("schema", "expected %d, got %r" % (SCHEMA_VERSION, schema))

    raw_bounds = doc.get("bounds")
    if raw_bounds is None:
        bounds = UNIT
    else:
        pair = [
            _value(v, "bounds", i)
            for i, v in enumerate(_numeral_list(raw_bounds, "bounds"))
        ]
        if len(pair) != 2:
            raise _fail("bounds", "expected [lo, hi]")
        bounds = SemiringBounds(pair[0], pair[1])

    tag = doc.get("tnorm", "min")
    try:
        tnorm = TNorm(tag, bounds)
    except ValueError as exc:
        raise _fail("tnorm", str(exc)) from None

    dimension = doc.get("dimension")
    if dimension is not None and (
        isinstance(dimension, bool) or not isinstance(dimension, int) or dimension < 1
    ):
        raise _fail("dimension", "expected a positive integer, got %r" % (dimension,))

    grid_step = None
    if doc.get("grid_step") is not None:
        grid_step = _value(doc["grid_step"], "grid_step")
        if grid_step <= 0:
            raise _fail("grid_step", "must be positive")

    rd = _Reader(bounds, dimension)
    for section, (parse, _) in _OBJECTS.items():
        entries = rd.objects[section] = {}
        for name, raw in _named(doc.get(section), section).items():
            path = "%s.%s" % (section, name)
            try:
                entries[name] = parse(rd, raw, path)
            except DomainError:
                raise
            except ValueError as exc:  # a constructor's refusal
                raise _fail(path, str(exc)) from None
    return Instance(
        tnorm=tnorm, bounds=bounds, dimension=dimension, grid_step=grid_step, **rd.objects
    )


def instance_to_dict(inst: Instance) -> dict[str, Any]:
    doc: dict[str, Any] = {"schema": SCHEMA_VERSION}
    if inst.dimension is not None:
        doc["dimension"] = inst.dimension
    if not inst.tnorm.is_min:
        doc["tnorm"] = inst.tnorm.tag
    if inst.bounds != UNIT:
        doc["bounds"] = [format_value(inst.bounds.lo), format_value(inst.bounds.hi)]
    if inst.grid_step is not None:
        doc["grid_step"] = format_value(inst.grid_step)

    for section, (_, dump) in _OBJECTS.items():
        entries = getattr(inst, section)
        if entries:
            doc[section] = {name: dump(entry) for name, entry in entries.items()}
    return doc


def _json_number(text: str) -> Fraction | ValueError:
    """A JSON number as an exact value, or the ValueError that refuses it.

    json.loads does not say where in the document a number stands, so a
    refusal is returned, not raised: ``_value`` raises it under the
    number's path.
    """
    try:
        return as_value(text)
    except ValueError as exc:
        return exc


def _json_integer(text: str) -> int | ValueError:
    return int(text) if len(text) <= NUMERAL_LIMIT else _json_number(text)


def parse_raw(text: str) -> dict[str, Any]:
    """JSON text to a raw section dict with exact numerals, unvalidated."""
    try:
        doc = json.loads(text, parse_float=_json_number, parse_int=_json_integer)
    except json.JSONDecodeError as exc:
        raise DomainError("invalid JSON at line %d column %d: %s"
                          % (exc.lineno, exc.colno, exc.msg)) from None
    except RecursionError:
        raise DomainError("instance file nests too deeply") from None
    if not isinstance(doc, dict):
        raise DomainError("instance file must be a JSON object")
    return doc


def loads_instance(text: str) -> Instance:
    return instance_from_dict(parse_raw(text))


def dumps_instance(inst: Instance) -> str:
    return json.dumps(instance_to_dict(inst), indent=2) + "\n"
