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


def _ratio(text: str) -> tuple[int, int]:
    """A rational text as ``(numerator, denominator)`` in lowest terms,
    the denominator positive: the one grammar of :func:`parse_rational`."""
    if (len(text) > MAX_DIGITS or "e" in text or "E" in text) and _digit_count(text) > MAX_DIGITS:
        raise ParseError(f"rational with more than {MAX_DIGITS} digits")
    match = _RATIONAL.fullmatch(text)
    if match is not None:
        decimal = match["decimal"]
        if decimal is not None:
            if decimal.lstrip("+-").isdigit():
                return _int(decimal), 1
            return Decimal(decimal).as_integer_ratio()
        num, den = _int(match["num"]), _int(match["den"])
        if den:
            g = math.gcd(num, den)
            return num // g, den // g
    raise ParseError(f"bad rational {_shown(text)}")


def parse_rational(text: str) -> Fraction:
    """Parse an integer (``7``), a fraction (``-3/2``) or a decimal (``0.25``),
    exactly at up to :data:`MAX_DIGITS` digits, past the int-string digit limit."""
    return Fraction(*_ratio(text))


def _int(text: str) -> int:
    """A signed run of ASCII digits as an int, through ``Decimal`` past the int-string digit limit."""
    try:
        return int(text)
    except ValueError:
        return int(Decimal(text))


def _int_text(n: int) -> str:
    # Decimal prints an int of any length, past the int-string digit limit
    return str(Decimal(n))


def _shown_int(n: int | str) -> str:
    """How an error message echoes an integer or a run of digits: in
    full up to 64 digits, and past that as :func:`_shown` shortens a text."""
    text = n if isinstance(n, str) else _int_text(n)
    return text if len(text) <= 64 else f"{text[:32]}... ({len(text)} digits)"


def _ratio_text(num: int, den: int) -> str:
    """``num/den`` (``den > 0``) in lowest terms as ``p/q``, or as ``p`` when q is 1."""
    g = math.gcd(num, den)
    num, den = num // g, den // g
    try:
        return str(num) if den == 1 else f"{num}/{den}"
    except ValueError:  # past the int-string digit limit
        return _int_text(num) if den == 1 else f"{_int_text(num)}/{_int_text(den)}"


def format_rational(value: Fraction) -> str:
    """Render as ``p/q``, or a bare integer when the denominator is 1."""
    return _ratio_text(value.numerator, value.denominator)


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
        weights = tuple(w if type(w) is Fraction else Fraction(w) for w in self.weights)
        object.__setattr__(self, "weights", weights)
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
            raise DimensionError(f"point has {len(point)} coordinates, form expects {self.dimension}")
        total = self.bias
        for w, c in zip(self.weights, point):
            if w:
                total += w * c
        return total

    def negated(self) -> "LinearForm":
        return LinearForm(-self.bias, tuple(-w for w in self.weights))


# a unit or constraint in integers: (strict, bias, weights) of its lowered form
Row = tuple[bool, int, tuple[int, ...]]

# a row's kind, indexed by its strict flag
_KINDS = (InequalityKind.LAX, InequalityKind.STRICT)


def _cleared(ratios: Sequence[tuple[int, int]]) -> tuple[int, int, tuple[int, ...]]:
    """Clear the denominators of a bias and weights, each ``(numerator,
    denominator)`` over a positive denominator: the positive lcm of the
    denominators, then the bias and the weights times it."""
    scale = math.lcm(*[den for _, den in ratios])
    bias, *weights = [num * (scale // den) for num, den in ratios]
    return scale, bias, tuple(weights)


def _scaled_row(form: LinearForm, kind: InequalityKind) -> tuple[Row, int]:
    """The row of a form and kind, and its positive scale: the one lowering of a Fraction form."""
    scale, bias, weights = _cleared([c.as_integer_ratio() for c in (form.bias, *form.weights)])
    return (kind is InequalityKind.STRICT, bias, weights), scale


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


_CONSTANT = "half-space form has all-zero weights"


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
            raise ConstantFormError(_CONSTANT)

    @property
    def dimension(self) -> int:
        return self.form.dimension

    def contains(self, point: Sequence[Fraction]) -> int:
        """Membership bit: 1 iff the point satisfies the inequality."""
        value = self.form.evaluate(point)
        return int(value > 0 if self.kind is InequalityKind.STRICT else value >= 0)

    def complement(self) -> "HalfSpace":
        """Set complement: negate the form and swap lax with strict."""
        return HalfSpace(self.form.negated(), _KINDS[self.kind is InequalityKind.LAX])


def _unit(row: Row, scale: int) -> HalfSpace:
    """The half-space of a row over its positive scale: each coefficient ``Fraction(c, scale)``."""
    strict, bias, weights = row
    return HalfSpace(LinearForm(Fraction(bias, scale), tuple([Fraction(w, scale) for w in weights])), _KINDS[strict])


_STRICT = {kind.value: kind is InequalityKind.STRICT for kind in InequalityKind}


def _parse_row(line: str, lineno: int | None = None) -> tuple[Row, int]:
    """A half-space line ``w0 w1 ... wn OP``, OP one of ``>=`` and ``>``,
    as its row and positive scale."""
    tokens = line.split()
    if len(tokens) < 3:
        raise ParseError("half-space line needs a bias, at least one weight and an operator", lineno)
    strict = _STRICT.get(tokens[-1])
    if strict is None:
        raise ParseError(f"unknown inequality operator {_shown(tokens[-1])}", lineno)
    try:
        scale, bias, weights = _cleared([_ratio(token) for token in tokens[:-1]])
    except ParseError as exc:
        raise ParseError(exc.message, lineno) from exc
    if not any(weights):
        raise ParseError(_CONSTANT, lineno)
    return (strict, bias, weights), scale


def parse_halfspace(line: str, lineno: int | None = None) -> HalfSpace:
    """Parse a half-space line ``w0 w1 ... wn OP`` with OP one of ``>=``, ``>``."""
    return _unit(*_parse_row(line, lineno))


class _Texts(dict):
    """The text of each coefficient over one scale, formatted on first use."""

    def __init__(self, scale: int):
        super().__init__()
        self.scale = scale

    def __missing__(self, coefficient: int) -> str:
        text = self[coefficient] = _ratio_text(coefficient, self.scale)
        return text


def _unit_lines(scaled: Iterable[tuple[Row, int]]) -> list[str]:
    """The half-space line of each row over its positive scale, formatting
    each distinct coefficient over each scale once: the one printer of
    half-space lines."""
    lines = []
    by_scale: dict[int, _Texts] = {}
    for (strict, bias, weights), scale in scaled:
        texts = by_scale.get(scale)
        if texts is None:
            texts = by_scale[scale] = _Texts(scale)
        lines.append(f"{texts[bias]} {' '.join(map(texts.__getitem__, weights))} {_KINDS[strict].value}")
    return lines


def format_halfspace(halfspace: HalfSpace) -> str:
    return _unit_lines([_scaled_row(halfspace.form, halfspace.kind)])[0]


def _rows(lines: Iterable[str], first_lineno: int = 1) -> Iterator[tuple[int, str]]:
    """``(line number, stripped text)`` of each non-blank line, counting from ``first_lineno``."""
    stripped = enumerate(map(str.strip, lines), first_lineno)
    return ((lineno, line) for lineno, line in stripped if line)


def _count(text: str) -> int | None:
    """An unsigned run of at most :data:`MAX_DIGITS` ASCII digits as an
    int; None for any other text."""
    if len(text) > MAX_DIGITS or not (text.isascii() and text.isdigit()):
        return None
    return _int(text)


def parse_halfspace_block(lines: Iterable[str]) -> tuple[HalfSpace, ...]:
    """Parse consecutive half-space lines, skipping blank ones."""
    return tuple(parse_halfspace(line, lineno) for lineno, line in _rows(lines))
