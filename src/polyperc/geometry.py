"""Exact linear forms and half-spaces over rational coordinates.

Everything here is immutable and every computation is exact rational
arithmetic, so the distinction between a lax boundary (``f >= 0``) and a
strict one (``f > 0``) survives arbitrarily long pipelines.  Coefficients
and points are :class:`fractions.Fraction`; plain ints are accepted and
coerced on construction.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from decimal import Decimal
from enum import Enum
from fractions import Fraction
from operator import mul
from typing import Iterable, Iterator, Sequence

from .errors import ConstantFormError, DimensionError, ParseError

__all__ = [
    "Point",
    "LinearForm",
    "InequalityKind",
    "HalfSpace",
    "parse_rational",
    "format_rational",
    "parse_point",
    "format_point",
    "parse_halfspace",
    "parse_halfspace_block",
    "format_halfspace",
]

Point = tuple[Fraction, ...]

# A rational may be written with at most this many digits, counting the
# magnitude of a decimal exponent as digits too (``1e5000`` counts 5001).
MAX_DIGITS = 100_000

# an integer, ``p/q``, or a decimal with an optional exponent, in ASCII digits
_RATIONAL = re.compile(
    r"\s*(?:(?P<decimal>[+-]?(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<num>[+-]?\d+)/(?P<den>\d+))\s*",
    re.ASCII,
)


def _shown(text: str) -> str:
    """How an error message echoes input text: ``repr`` of a text of at
    most 64 characters, and of a longer one its first 32 characters,
    ``...`` and its length."""
    if len(text) <= 64:
        return repr(text)
    return f"{text[:32]!r}... ({len(text)} characters)"


def _digit_count(text: str) -> int:
    """Digits written, plus the magnitude of any decimal exponent."""
    mantissa, _, exponent = text.lower().partition("e")
    exponent = exponent.strip().lstrip("+-").replace("_", "").lstrip("0")
    count = sum(ch.isdigit() for ch in mantissa)
    if exponent.isdecimal():
        # an exponent too long to read is past the limit anyway
        count += int(exponent) if len(exponent) < 10 else MAX_DIGITS + 1
    return count


def parse_rational(text: str) -> Fraction:
    """Parse an integer (``7``), a fraction (``-3/2``) or a decimal (``0.25``).

    Any value written with at most :data:`MAX_DIGITS` digits is read
    exactly through ``Decimal``, past the int-string digit limit.
    """
    if (len(text) > MAX_DIGITS or "e" in text or "E" in text) and _digit_count(
        text
    ) > MAX_DIGITS:
        raise ParseError(f"rational with more than {MAX_DIGITS} digits")
    match = _RATIONAL.fullmatch(text)
    if match is not None:
        if match["decimal"] is not None:
            return Fraction(Decimal(match["decimal"]))
        if match["den"].strip("0"):
            return Fraction(int(Decimal(match["num"])), int(Decimal(match["den"])))
    raise ParseError(f"bad rational {_shown(text)}")


def _int_text(n: int) -> str:
    # Decimal prints an int of any length, past the int-string digit limit
    return str(Decimal(n))


def _shown_int(n: int) -> str:
    """How an error message echoes an integer: in full up to 64 digits,
    and past that as :func:`_shown` shortens a text."""
    text = _int_text(n)
    return text if len(text) <= 64 else f"{text[:32]}... ({len(text)} digits)"


def format_rational(value: Fraction) -> str:
    """Render as ``p/q``, or a bare integer when the denominator is 1."""
    try:
        return str(value)
    except ValueError:
        text = _int_text(value.numerator)
        if value.denominator == 1:
            return text
        return f"{text}/{_int_text(value.denominator)}"


def parse_point(line: str, lineno: int | None = None) -> Point:
    """Parse a whitespace-separated list of rationals into a point."""
    try:
        return tuple(parse_rational(token) for token in line.split())
    except ParseError as exc:
        raise ParseError(exc.message, lineno) from exc


def format_point(point: Sequence[Fraction]) -> str:
    return "(" + ",".join(format_rational(Fraction(c)) for c in point) + ")"


class InequalityKind(Enum):
    """Which inequality a half-space imposes on its form."""

    LAX = ">="
    STRICT = ">"


@dataclass(frozen=True)
class LinearForm:
    """Affine function ``w0 + w1*y1 + ... + wn*yn``.

    All-zero weight vectors are tolerated here (adders over empty index
    sets produce them internally); :class:`HalfSpace` is where constant
    forms become illegal.
    """

    bias: Fraction
    weights: tuple[Fraction, ...]

    def __post_init__(self):
        # a Fraction is immutable, so one that is already exact is kept as is
        if type(self.bias) is not Fraction:
            object.__setattr__(self, "bias", Fraction(self.bias))
        object.__setattr__(
            self,
            "weights",
            tuple(w if type(w) is Fraction else Fraction(w) for w in self.weights),
        )
        if not self.weights:
            raise ValueError("a linear form needs at least one variable")

    @property
    def dimension(self) -> int:
        return len(self.weights)

    @property
    def is_constant(self) -> bool:
        return not any(self.weights)

    def evaluate(self, point: Sequence[Fraction]) -> Fraction:
        if len(point) != self.dimension:
            raise DimensionError(
                f"point has {len(point)} coordinates, form expects {self.dimension}"
            )
        total = self.bias
        for w, c in zip(self.weights, point):
            if w:
                total += w * c
        return total

    def _scale(self) -> int:
        """The positive lcm of the coefficient denominators."""
        return math.lcm(self.bias.denominator, *(w.denominator for w in self.weights))

    def lowered(self) -> tuple[int, tuple[int, ...]]:
        """Bias and weights times :meth:`_scale`."""
        scale = self._scale()
        bias = self.bias.numerator * (scale // self.bias.denominator)
        return bias, tuple(w.numerator * (scale // w.denominator) for w in self.weights)

    def negated(self) -> "LinearForm":
        return LinearForm(-self.bias, tuple(-w for w in self.weights))


# a unit or constraint in integers: (strict, bias, weights) of its lowered form
Row = tuple[bool, int, tuple[int, ...]]


def _row(form: LinearForm, kind: InequalityKind) -> Row:
    return (kind is InequalityKind.STRICT, *form.lowered())


def _complement(row: Row) -> Row:
    """The row of the complement: the form negated, lax and strict swapped."""
    strict, bias, coeffs = row
    return (not strict, -bias, tuple([-c for c in coeffs]))


def _holds(row: Row, den: int, coords: Sequence[int]) -> bool:
    """Whether the point ``coords / den`` (``den > 0``, absent coordinates 0) satisfies the row."""
    strict, bias, coeffs = row
    value = bias * den + sum(map(mul, coeffs, coords))
    return value > 0 if strict else value >= 0


def _lowered_point(x: Point, dimension: int) -> tuple[int, list[int]]:
    """A point of ``dimension`` coordinates as a positive common
    denominator and integer coordinates, as :func:`_holds` takes it."""
    if len(x) != dimension:
        raise DimensionError(f"point has {len(x)} coordinates, form expects {dimension}")
    den = math.lcm(*[c.denominator for c in x])
    return den, [c.numerator * (den // c.denominator) for c in x]


@dataclass(frozen=True)
class HalfSpace:
    """A linear form together with a lax or strict inequality.

    The perceptron unit of the half-space is its characteristic
    function, exposed as :meth:`contains`.
    """

    form: LinearForm
    kind: InequalityKind

    def __post_init__(self):
        if self.form.is_constant:
            raise ConstantFormError("half-space form has all-zero weights")

    @property
    def dimension(self) -> int:
        return self.form.dimension

    def contains(self, point: Sequence[Fraction]) -> int:
        """Membership bit: 1 iff the point satisfies the inequality."""
        value = self.form.evaluate(point)
        if self.kind is InequalityKind.LAX:
            return 1 if value >= 0 else 0
        return 1 if value > 0 else 0

    def complement(self) -> "HalfSpace":
        """Set complement: negate the form and swap lax with strict."""
        kind = InequalityKind.STRICT if self.kind is InequalityKind.LAX else InequalityKind.LAX
        return HalfSpace(self.form.negated(), kind)


_OPERATORS = {kind.value: kind for kind in InequalityKind}


def parse_halfspace(line: str, lineno: int | None = None) -> HalfSpace:
    """Parse a half-space line ``w0 w1 ... wn OP`` with OP one of ``>=``, ``>``."""
    tokens = line.split()
    if len(tokens) < 3:
        raise ParseError("half-space line needs a bias, at least one weight and an operator", lineno)
    kind = _OPERATORS.get(tokens[-1])
    if kind is None:
        raise ParseError(f"unknown inequality operator {_shown(tokens[-1])}", lineno)
    try:
        coefficients = [parse_rational(token) for token in tokens[:-1]]
        return HalfSpace(LinearForm(coefficients[0], tuple(coefficients[1:])), kind)
    except ParseError as exc:
        raise ParseError(exc.message, lineno) from exc
    except ConstantFormError as exc:
        raise ParseError(str(exc), lineno) from exc


def format_halfspace(halfspace: HalfSpace) -> str:
    parts = [format_rational(halfspace.form.bias)]
    parts.extend(format_rational(w) for w in halfspace.form.weights)
    parts.append(halfspace.kind.value)
    return " ".join(parts)


def _rows(lines: Iterable[str], first_lineno: int = 1) -> Iterator[tuple[int, str]]:
    """``(line number, stripped text)`` of each non-blank line, counting from ``first_lineno``."""
    stripped = enumerate(map(str.strip, lines), first_lineno)
    return ((lineno, line) for lineno, line in stripped if line)


def _count(text: str) -> int | None:
    """An unsigned run of at most :data:`MAX_DIGITS` ASCII digits as an
    int; None for any other text."""
    if len(text) > MAX_DIGITS or not (text.isascii() and text.isdigit()):
        return None
    try:
        return int(text)
    except ValueError:  # past the int-string digit limit, read as parse_rational does
        return int(Decimal(text))


def parse_halfspace_block(lines: Iterable[str]) -> tuple[HalfSpace, ...]:
    """Parse consecutive half-space lines, skipping blank ones."""
    return tuple(parse_halfspace(line, lineno) for lineno, line in _rows(lines))
