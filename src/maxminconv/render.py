"""Deterministic SVG figures for planar instances.

Only d = 2 is drawable.  The carrier square maps onto a fixed 512 x 512
canvas with a 16 px margin and the second coordinate pointing up; all
pixel coordinates are printed with three decimals.  Given equal inputs
the emitted bytes are equal: every collection is iterated in sorted or
input order and nothing depends on hashing.

The hyperplane figure is exact, not sampled.  The carrier is cut into
cells by the coefficient values and triangulated along the diagonal;
on each closed triangle both sides of the equation are linear, so the
solution set restricted to it is decided by evaluating the corners.
Two-dimensional chunks are filled, one-dimensional ones drawn as
segments, isolated solutions as dots.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

from .core import PreconditionError, SemiringBounds, UNIT
from .geometry import Point, segment_decompose
from .hull import Polytope
from .semispaces import Hyperplane, SemispaceId, hyperplane_contains, semispace_family
from .separation import Box

SIZE = 512
MARGIN = 16
INNER = SIZE - 2 * MARGIN

PALETTE = ("#1b6ca8", "#cc5500", "#2e8540", "#8e44ad", "#c0392b", "#16786c")
FILL_OPACITY = "0.18"


class Canvas:
    """Collects SVG elements over the carrier square."""

    def __init__(self, bounds: SemiringBounds):
        self.bounds = bounds
        self.parts: list[str] = []

    def px(self, v: Fraction) -> str:
        t = (v - self.bounds.lo) / (self.bounds.hi - self.bounds.lo)
        return "%.3f" % float(MARGIN + t * INNER)

    def py(self, v: Fraction) -> str:
        t = (v - self.bounds.lo) / (self.bounds.hi - self.bounds.lo)
        return "%.3f" % float(SIZE - MARGIN - t * INNER)

    def map_point(self, p: Point) -> tuple[str, str]:
        return self.px(p[0]), self.py(p[1])

    def add(self, element: str) -> None:
        self.parts.append(element)

    def frame(self) -> None:
        self.add(
            '<rect x="%d" y="%d" width="%d" height="%d" fill="none" '
            'stroke="#999999" stroke-width="1"/>' % (MARGIN, MARGIN, INNER, INNER)
        )

    def dot(self, p: Point, color: str, radius: int = 4, label: str | None = None) -> None:
        x, y = self.map_point(p)
        self.add('<circle cx="%s" cy="%s" r="%d" fill="%s"/>' % (x, y, radius, color))
        if label:
            self.add(
                '<text x="%s" y="%s" dx="6" dy="-6" font-size="12" '
                'font-family="monospace" fill="%s">%s</text>' % (x, y, color, label)
            )

    def polyline(self, pts: Sequence[Point], color: str, width: int = 3,
                 cls: str | None = None) -> None:
        coords = " ".join("%s,%s" % self.map_point(p) for p in pts)
        attr = ' class="%s"' % cls if cls else ""
        self.add(
            '<polyline%s points="%s" fill="none" stroke="%s" stroke-width="%d" '
            'stroke-linecap="round" stroke-linejoin="round"/>' % (attr, coords, color, width)
        )

    def polygon(self, pts: Sequence[Point], color: str) -> None:
        coords = " ".join("%s,%s" % self.map_point(p) for p in pts)
        self.add(
            '<polygon points="%s" fill="%s" fill-opacity="%s" stroke="none"/>'
            % (coords, color, FILL_OPACITY)
        )

    def rect_region(self, lo1: Fraction, hi1: Fraction, lo2: Fraction, hi2: Fraction,
                    color: str) -> None:
        if lo1 >= hi1 or lo2 >= hi2:
            return
        self.polygon(
            [
                Point((lo1, lo2)),
                Point((hi1, lo2)),
                Point((hi1, hi2)),
                Point((lo1, hi2)),
            ],
            color,
        )

    def render(self, title: str) -> str:
        head = (
            '<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" '
            'viewBox="0 0 %d %d">' % (SIZE, SIZE, SIZE, SIZE)
        )
        bg = '<rect width="%d" height="%d" fill="#ffffff"/>' % (SIZE, SIZE)
        caption = (
            '<text x="%d" y="%d" font-size="12" font-family="monospace" '
            'fill="#333333">%s</text>' % (MARGIN, SIZE - 3, _escape(title))
        )
        return "\n".join([head, bg] + self.parts + [caption, "</svg>"]) + "\n"


def _escape(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _require_planar(dim: int) -> None:
    if dim != 2:
        raise PreconditionError(
            "rendering is planar only (d = 2); got d = %d. "
            "Project or slice the instance first." % dim
        )


def render_segment(x: Point, y: Point, bounds: SemiringBounds = UNIT) -> str:
    """Segment staircase; one polyline per elementary piece."""
    _require_planar(x.dim)
    dec = segment_decompose(x, y, bounds)
    canvas = Canvas(bounds)
    canvas.frame()
    for k, (start, end, _moving) in enumerate(dec.elementary()):
        canvas.polyline([start, end], PALETTE[k % len(PALETTE)], cls="piece")
    canvas.dot(x, "#111111", label="x")
    canvas.dot(y, "#111111", label="y")
    if dec.corner is not None:
        canvas.dot(dec.corner, "#777777", radius=3, label="m")
    return canvas.render("segment [%s, %s]" % (x, y))


def _semispace_regions(s: SemispaceId, bounds: SemiringBounds) -> list[tuple[Fraction, Fraction, Fraction, Fraction]]:
    """Axis-parallel regions (lo1, hi1, lo2, hi2) whose union is the semispace.

    A band below the anchor in coordinate index - 1, then a band above it
    in each tail coordinate; index 0 has no lower band and every
    coordinate as its tail.
    """
    lo, hi = bounds.lo, bounds.hi
    p = s.anchor

    def band(m: int, a: Fraction, b: Fraction) -> tuple[Fraction, Fraction, Fraction, Fraction]:
        # coordinate m in [a, b], the other one free
        return (a, b, lo, hi) if m == 0 else (lo, hi, a, b)

    if s.index == 0:
        return [band(m, p[m], hi) for m in range(p.dim)]
    c = s.index - 1
    return [band(c, lo, p[c])] + [band(m, p[m], hi) for m in s.tail()]


def render_semispaces(p: Point, bounds: SemiringBounds = UNIT) -> str:
    """All semispaces at p, one tinted region group per valid index."""
    _require_planar(p.dim)
    canvas = Canvas(bounds)
    canvas.frame()
    for s in semispace_family(p, bounds):
        color = PALETTE[s.index % len(PALETTE)]
        canvas.add('<g class="semispace" data-index="%d">' % s.index)
        for lo1, hi1, lo2, hi2 in _semispace_regions(s, bounds):
            canvas.rect_region(lo1, hi1, lo2, hi2, color)
        canvas.add("</g>")
    canvas.dot(p, "#111111", label="p")
    return canvas.render("semispaces at %s" % (p,))


def _critical_values(h: Hyperplane, bounds: SemiringBounds) -> list[Fraction]:
    vals = {bounds.lo, bounds.hi}
    for v in list(h.a) + list(h.b):
        if bounds.lo < v < bounds.hi:
            vals.add(v)
    return sorted(vals)


def render_hyperplane(h: Hyperplane, bounds: SemiringBounds = UNIT) -> str:
    """Exact solution set of lhs = rhs, cell by cell."""
    _require_planar(h.dim)
    cuts = _critical_values(h, bounds)
    canvas = Canvas(bounds)
    canvas.frame()
    color = PALETTE[0]
    solid_keys: set[tuple[tuple[Fraction, ...], tuple[Fraction, ...]]] = set()
    covered: set[tuple[tuple[Fraction, ...], tuple[Fraction, ...]]] = set()
    vertices: dict[tuple[Fraction, ...], bool] = {}

    for i in range(len(cuts) - 1):
        for j in range(len(cuts) - 1):
            u1, u2 = cuts[i], cuts[i + 1]
            v1, v2 = cuts[j], cuts[j + 1]
            corners = [
                Point((u1, v1)),
                Point((u2, v1)),
                Point((u2, v2)),
                Point((u1, v2)),
            ]
            # split along the diagonal direction so each triangle avoids
            # sign changes of x1 - x2 in its interior
            tris = (
                (corners[0], corners[1], corners[2]),
                (corners[0], corners[2], corners[3]),
            )
            for tri in tris:
                flags = [hyperplane_contains(h, q) for q in tri]
                for q, f in zip(tri, flags):
                    vertices.setdefault(q.coords, f)
                if all(flags):
                    canvas.polygon(list(tri), color)
                    for a, b in ((0, 1), (1, 2), (0, 2)):
                        covered.add(_edge_key(tri[a], tri[b]))
                else:
                    for a, b in ((0, 1), (1, 2), (0, 2)):
                        if flags[a] and flags[b]:
                            solid_keys.add(_edge_key(tri[a], tri[b]))

    drawn = sorted(solid_keys - covered)
    for key in drawn:
        canvas.polyline([Point(key[0]), Point(key[1])], color, width=3, cls="solution")
    on_edge = {c for key in covered | set(drawn) for c in key}
    for coords in sorted(vertices):
        if vertices[coords] and coords not in on_edge:
            canvas.dot(Point(coords), color, radius=3)
    return canvas.render("hyperplane a=%s b=%s" % (list(map(str, h.a)), list(map(str, h.b))))


def _edge_key(a: Point, b: Point):
    return tuple(sorted((a.coords, b.coords)))


def render_overview(
    points: Iterable[tuple[str, Point]] = (),
    polytopes: Iterable[tuple[str, Polytope]] = (),
    boxes: Iterable[tuple[str, Box]] = (),
    bounds: SemiringBounds = UNIT,
) -> str:
    """Instance contents: named points, polytope skeletons, boxes."""
    canvas = Canvas(bounds)
    canvas.frame()
    color_idx = 0
    for name, poly in sorted(polytopes, key=lambda kv: kv[0]):
        _require_planar(poly.dim)
        color = PALETTE[color_idx % len(PALETTE)]
        color_idx += 1
        gens = list(poly.generators)
        for i in range(len(gens)):
            for j in range(i + 1, len(gens)):
                dec = segment_decompose(gens[i], gens[j], bounds)
                canvas.polyline(list(dec.corner_chain()), color, width=2)
        for i, g in enumerate(gens):
            canvas.dot(g, color, label="%s[%d]" % (name, i))
    for name, box in sorted(boxes, key=lambda kv: kv[0]):
        _require_planar(box.dim)
        color = PALETTE[color_idx % len(PALETTE)]
        color_idx += 1
        canvas.rect_region(box.lower[0], box.upper[0], box.lower[1], box.upper[1], color)
        canvas.polyline(
            [
                box.lower,
                Point((box.upper[0], box.lower[1])),
                box.upper,
                Point((box.lower[0], box.upper[1])),
                box.lower,
            ],
            color,
            width=2,
        )
        canvas.dot(box.lower, color, radius=2, label=name)
    for name, p in sorted(points, key=lambda kv: kv[0]):
        _require_planar(p.dim)
        canvas.dot(p, "#111111", label=name)
    return canvas.render("instance overview")
