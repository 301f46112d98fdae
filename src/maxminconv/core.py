"""Exact scalar arithmetic for bounded chains and triangular norms.

All values are `fractions.Fraction` instances and every operation in this
module is exact.  The ambient structure is a bounded totally ordered set
[lo, hi] equipped with max as addition and a t-norm as multiplication.
The default t-norm is min, which works over arbitrary bounds; the product
and Lukasiewicz norms are only defined on [0, 1].
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable, Union

RationalLike = Union[Fraction, int, str]

MIN_TAG = "min"
PRODUCT_TAG = "product"
LUKASIEWICZ_TAG = "lukasiewicz"

TNORM_TAGS = (MIN_TAG, PRODUCT_TAG, LUKASIEWICZ_TAG)


class DomainError(ValueError):
    """A value fell outside the bounds it is required to live in."""


class PreconditionError(ValueError):
    """An operation was called on inputs that violate its contract."""


class ResolutionExhausted(RuntimeError):
    """A witness search ran out of grid resolution without an answer.

    Raised only for t-norms where grid search is a heuristic (product,
    Lukasiewicz).  For the min t-norm the search grids are exact, and a
    miss where a theorem guarantees a witness raises AssertionError, the
    soundness alarm, instead.  ``grid_step`` and ``grid_size``, the
    number of values per coordinate, name the grid that was exhausted.
    """

    def __init__(
        self, message: str, grid_step: Fraction | None = None, grid_size: int | None = None
    ):
        super().__init__(message)
        self.grid_step = grid_step
        self.grid_size = grid_size


# Longest numeral string, and largest decimal exponent magnitude, that
# ``as_value`` accepts.  Every value is printed back as "p/q", and Python
# refuses to convert an int of more than 4300 digits to text; within
# these limits an input's numerator and denominator have at most 2000
# digits, so an input and the product of two inputs both print.  The
# exponent is checked before the Fraction is built, because building
# Fraction("1e-40000000") alone takes about a minute.
NUMERAL_LIMIT = 1000


def as_value(x: RationalLike) -> Fraction:
    """Coerce ``x`` to an exact Fraction.

    Accepts Fractions, ints and strings ("3/10" or "0.3").  Floats are
    rejected on purpose: binary floats silently misrepresent decimal
    inputs and this library promises exact arithmetic.  A string longer
    than ``NUMERAL_LIMIT`` characters, or with a decimal exponent beyond
    ``NUMERAL_LIMIT`` in magnitude, is refused with ValueError.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, bool):
        raise TypeError("bool is not a rational value")
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        if len(x) > NUMERAL_LIMIT:
            raise ValueError(
                "numeral of %d characters, more than the %d accepted"
                % (len(x), NUMERAL_LIMIT)
            )
        _, marker, tail = x.lower().partition("e")
        if marker:
            try:
                exponent = int(tail)
            except ValueError:
                pass  # not a numeral; Fraction says why
            else:
                if abs(exponent) > NUMERAL_LIMIT:
                    raise ValueError(
                        "exponent %d in %r is beyond the %d accepted"
                        % (exponent, x, NUMERAL_LIMIT)
                    )
        try:
            return Fraction(x)
        except ZeroDivisionError:
            raise ValueError("zero denominator in %r" % (x,)) from None
    if isinstance(x, float):
        raise TypeError(
            "refusing to coerce float %r; pass a string like '0.3' or a Fraction"
            % (x,)
        )
    raise TypeError("cannot interpret %r as a rational value" % (x,))


@dataclass(frozen=True)
class SemiringBounds:
    """Closed interval [lo, hi] the semiring lives on."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "lo", as_value(self.lo))
        object.__setattr__(self, "hi", as_value(self.hi))
        if not self.lo < self.hi:
            raise DomainError("bounds require lo < hi, got [%s, %s]" % (self.lo, self.hi))

    def contains(self, v: Fraction) -> bool:
        return self.lo <= v <= self.hi

    def check(self, v: RationalLike) -> Fraction:
        value = as_value(v)
        if not self.contains(value):
            raise DomainError("value %s outside bounds [%s, %s]" % (value, self.lo, self.hi))
        return value

    def interior(self, v: Fraction) -> bool:
        """True when v is strictly between lo and hi."""
        return self.lo < v < self.hi

    def extended(self) -> "SemiringBounds":
        """Bounds widened by one full width on each side.

        For the unit interval this gives [-1, 2].  Used when a construction
        needs every input coordinate to be strictly inside the bounds.
        """
        width = self.hi - self.lo
        return SemiringBounds(self.lo - width, self.hi + width)

    def __str__(self) -> str:
        return "[%s, %s]" % (self.lo, self.hi)


UNIT = SemiringBounds(Fraction(0), Fraction(1))

# Most multiples of a grid step that ``grid_levels`` adds: a step of
# 1/10^4 on [0, 1] is the finest accepted.  Every multiple becomes an
# integer level of the search grid, so a finer step would still cost
# time and memory in proportion.
MAX_STEP_VALUES = 10**4 + 1


@dataclass(frozen=True)
class TNorm:
    """A t-norm on [0,1], or min on arbitrary bounds.

    The three supported norms:

    * min:          T(a, b) = min(a, b)
    * product:      T(a, b) = a * b
    * lukasiewicz:  T(a, b) = max(0, a + b - 1)

    ``apply`` and ``residual`` trust their operands to lie inside the
    bounds: values are checked once, where they enter (the free functions
    ``tnorm_apply`` and ``residual`` check both operands first).
    """

    tag: str
    bounds: SemiringBounds = UNIT

    def __post_init__(self) -> None:
        if self.tag not in TNORM_TAGS:
            raise ValueError("unknown t-norm tag %r" % (self.tag,))
        if self.tag != MIN_TAG and self.bounds != UNIT:
            raise DomainError(
                "t-norm %r is only defined on [0, 1]; got bounds %s"
                % (self.tag, self.bounds)
            )

    @property
    def is_min(self) -> bool:
        return self.tag == MIN_TAG

    def apply(self, a: Fraction, b: Fraction) -> Fraction:
        """T(a, b) for operands already inside the bounds."""
        if self.tag == MIN_TAG:
            return min(a, b)
        if self.tag == PRODUCT_TAG:
            return a * b
        return max(Fraction(0), a + b - 1)

    def residual(self, a: Fraction, c: Fraction) -> Fraction:
        """sup { lam : T(lam, a) <= c } for operands already inside the bounds."""
        if a <= c:
            return self.bounds.hi
        if self.tag == MIN_TAG:
            return c
        if self.tag == PRODUCT_TAG:
            return c / a
        # lukasiewicz: max(0, lam + a - 1) <= c  iff  lam <= 1 - a + c
        return 1 - a + c


MIN = TNorm(MIN_TAG)
PRODUCT = TNorm(PRODUCT_TAG)
LUKASIEWICZ = TNorm(LUKASIEWICZ_TAG)


def tnorm_apply(t: TNorm, a: RationalLike, b: RationalLike) -> Fraction:
    """Evaluate T(a, b) exactly; DomainError when an operand is out of bounds."""
    return t.apply(t.bounds.check(a), t.bounds.check(b))


def residual(t: TNorm, a: RationalLike, c: RationalLike) -> Fraction:
    """The residual sup { lam : T(lam, a) <= c }.

    This is the largest multiplier that keeps a below c, the workhorse of
    exact hull membership.  Galois connection: T(lam, a) <= c if and only
    if lam <= residual(a, c).  DomainError when an operand is out of bounds.
    """
    return t.residual(t.bounds.check(a), t.bounds.check(c))


def grid_levels(
    values: Iterable[Fraction],
    bounds: SemiringBounds,
    step: Fraction | None = None,
) -> tuple[tuple[int, ...], int]:
    """The search grid as sorted integer levels over one denominator.

    The grid holds both bounds and every supplied value; with ``step``
    also every multiple of ``step`` inside the bounds.  Returns
    ``(levels, denom)``: grid value v is ``Fraction(level, denom)``, and
    ``denom`` is the least common denominator of the grid.  With step
    p/q in lowest terms, the multiple i*p/q has denominator
    q / gcd(q, i); as k and k + 1 are coprime, the first two multiples
    inside the bounds already have lcm q, which every multiple's
    denominator divides.  So those two fix ``denom``, and the rest
    follow as an integer range.  DomainError for a value outside the
    bounds, ValueError for a non-positive step, and PreconditionError
    for a step with more than ``MAX_STEP_VALUES`` multiples inside the
    bounds, raised before any multiple is built.
    """
    values = [bounds.lo, bounds.hi, *values]
    for v in values[2:]:
        if not bounds.contains(v):
            raise DomainError("grid value %s outside bounds %s" % (v, bounds))
    count = 0
    if step is not None:
        step = as_value(step)
        if step <= 0:
            raise ValueError("grid step must be positive")
        k = -(-bounds.lo // step)  # ceil division
        count = bounds.hi // step - k + 1
        if count > MAX_STEP_VALUES:
            raise PreconditionError(
                "grid step %s puts %d values in %s, more than the %d a search accepts"
                % (step, count, bounds, MAX_STEP_VALUES)
            )
        values += [i * step for i in range(k, k + min(count, 2))]
    denom = common_denominator(values)
    levels = {v.numerator * (denom // v.denominator) for v in values}
    if count > 2:
        s = step.numerator * (denom // step.denominator)
        levels.update(range((k + 2) * s, (k + count) * s, s))
    return tuple(sorted(levels)), denom


def value_grid(
    values: Iterable[Fraction],
    bounds: SemiringBounds,
    step: Fraction | None = None,
) -> tuple[Fraction, ...]:
    """Sorted tuple of candidate coordinate values for witness searches.

    The Fraction view of ``grid_levels``, with the same values and the
    same refusals: always the bounds and every supplied value; with
    ``step`` also every multiple of ``step`` inside the bounds.  For the
    min t-norm the coordinate set of the inputs plus the bounds is
    already exact (max and min of grid values stay on the grid); uniform
    refinement is for the arithmetic t-norms.
    """
    levels, denom = grid_levels(values, bounds, step)
    return tuple(Fraction(level, denom) for level in levels)


def common_denominator(values: Iterable[Fraction]) -> int:
    """Least common multiple of the denominators of ``values``."""
    return lcm(*(v.denominator for v in values))


def format_value(v: Fraction) -> str:
    """Serialize a Fraction as 'p/q' (or plain 'p' for integers)."""
    return str(v)
