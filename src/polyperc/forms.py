"""Adder, conjunctive and disjunctive linear forms and their lax units.

These are the explicit threshold forms that compute AND/OR over binary
vectors.  On binary input every conjunctive or disjunctive form takes
half-integer values, never an integer, so the lax unit threshold at zero
is immune to boundary ambiguity.
"""

from __future__ import annotations

from fractions import Fraction
from operator import sub

from .errors import PreconditionError, SchemeError
from .geometry import HalfSpace, InequalityKind, LinearForm, Row
from .indexing import IndexPair, IndexSet

__all__ = [
    "adder",
    "conj_form",
    "disj_form",
    "conj_unit",
    "disj_unit",
]

ZERO = Fraction(0)
ONE = Fraction(1)
MINUS_ONE = Fraction(-1)
HALF = Fraction(1, 2)
# a mask's bit text, lowest bit first, read as 2 on each member and 0 elsewhere
_TWOS = bytes.maketrans(b"01", b"\x00\x02")


def _weights(ones: int, zeros: int, ambient: int) -> tuple[Fraction, ...]:
    """Weight 1 on each ones index, -1 on each zeros index, 0 elsewhere."""
    if (ones | zeros) >> ambient:
        raise PreconditionError(f"pair names an index outside 1..{ambient}")
    return tuple(ONE if ones >> i & 1 else MINUS_ONE if zeros >> i & 1 else ZERO for i in range(ambient))


def adder(indices: IndexSet) -> LinearForm:
    """Sum of the selected coordinates; counts ones on binary vectors."""
    return LinearForm(ZERO, _weights(indices.mask, 0, indices.ambient))


def _unit_form(ones: int, zeros: int, ambient: int, conj: bool) -> LinearForm:
    """AND-form (``conj``) or OR-form of the literals given by two masks."""
    what = "conjunctive form" if conj else "disjunctive form"
    if ones & zeros:
        raise SchemeError(f"inconsistent index pair in {what}")
    if not ones | zeros:
        raise SchemeError(f"empty index pair would give a constant {what}")
    bias = HALF - ones.bit_count() if conj else zeros.bit_count() - HALF
    return LinearForm(bias, _weights(ones, zeros, ambient))


def _unit_row(ones: int, zeros: int, ambient: int, conj: bool) -> Row:
    """The lax row of :func:`_unit_form`, which is twice the form: bias
    ``1 - 2|ones|`` (AND) or ``2|zeros| - 1`` (OR), weight 2 on each ones
    index, -2 on each zeros index and 0 elsewhere.  The masks must be
    disjoint, not both empty and below ``1 << ambient``."""
    bias = 1 - 2 * ones.bit_count() if conj else 2 * zeros.bit_count() - 1
    twos = [format(mask, "b").zfill(ambient)[::-1].encode().translate(_TWOS) for mask in (ones, zeros)]
    return (False, bias, tuple(map(sub, *twos)))


def conj_form(pair: IndexPair) -> LinearForm:
    """Form that is 1/2 on binary b exactly when every ones index is 1 and
    every zeros index is 0, and at most -1/2 otherwise."""
    return _unit_form(pair.ones_mask, pair.zeros_mask, pair.ambient, True)


def disj_form(pair: IndexPair) -> LinearForm:
    """Form that is -1/2 on binary b exactly when every ones index is 0 and
    every zeros index is 1, and at least 1/2 otherwise."""
    return _unit_form(pair.ones_mask, pair.zeros_mask, pair.ambient, False)


def conj_unit(pair: IndexPair) -> HalfSpace:
    """Lax unit of the conjunctive form: AND over the pair's literals."""
    return HalfSpace(conj_form(pair), InequalityKind.LAX)


def disj_unit(pair: IndexPair) -> HalfSpace:
    """Lax unit of the disjunctive form: OR over the pair's literals."""
    return HalfSpace(disj_form(pair), InequalityKind.LAX)
