"""Index sets, index pairs and schemes, with their lexicographic orders.

A scheme is the finite presentation everything else in the package is
driven by: an ordered list of index pairs, held as two columns of int
masks, plus a selector picking which of them participate.  Raw schemes
may arrive unsorted or with duplicate pairs; :func:`normalize_scheme`
produces the canonical sorted, duplicate-free version without changing
what any polyhedron built from the scheme contains.  An index set is an
int mask, bit i-1 standing for index i; its member tuple is derived
from the mask on each read.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cache, reduce
from itertools import compress, count, repeat
from operator import add, and_, floordiv, lshift, lt, mod, mul, or_, rshift
from typing import Callable, Iterable, Sequence

from .errors import ParseError, PreconditionError, SchemeError, SizeCapError
from .geometry import _count, _rows, _shown, _shown_int

__all__ = [
    "IndexSet",
    "IndexPair",
    "Scheme",
    "normalize_scheme",
    "parse_scheme",
    "format_scheme",
]

# The largest N= a scheme file may declare: one mask over it takes 2 MiB.
MAX_AMBIENT = 2**24
# The most pair lines times N= a scheme file may declare: 32 MiB of masks.
MAX_SCHEME_BITS = 2**28

_set = object.__setattr__
_MEMBERS_FIRST = str.maketrans("01", "10")
# the 1-based positions of the set bits of each byte value
_BYTE_MEMBERS = [tuple(i + 1 for i in range(8) if byte >> i & 1) for byte in range(256)]
# how many low bytes of a mask _byte_texts covers
_TEXT_BYTES = 8


def _checked(members: Iterable[int], ambient: int) -> tuple[int, ...]:
    """The members, once they are strictly increasing positive integers,
    all at most ``ambient``; ``ValueError`` otherwise."""
    members = tuple(members)
    if ambient < 0:
        raise ValueError("ambient must be non-negative")
    if not all(map(lt, (0,) + members, members)):
        raise ValueError("members must be strictly increasing positive integers")
    if members and members[-1] > ambient:
        raise ValueError(f"member {_shown_int(members[-1])} exceeds ambient {_shown_int(ambient)}")
    return members


def _mask_of(members: Sequence[int]) -> int:
    """Mask of checked members, in time linear in the largest one."""
    digits = bytearray(b"0") * (members[-1] if members else 1)
    for i in members:
        digits[-i] = 49  # "1"
    return int(digits, 2)


def _members(mask: int) -> tuple[int, ...]:
    """Ascending indices of a mask, in time linear in its length."""
    octets = mask.to_bytes((mask.bit_length() + 7) // 8, "little")
    return tuple([8 * k + i for k, octet in enumerate(octets) for i in _BYTE_MEMBERS[octet]])


def lex_key(mask: int) -> str:
    """Sorts masks as their ascending member tuples sort: reading index 1
    first, a member (0) beats a non-member (1), and a set that has no
    member left beats both."""
    return bin(mask)[:1:-1].rstrip("0").translate(_MEMBERS_FIRST)


@dataclass(frozen=True, slots=True, init=False)
class IndexSet:
    """Distinct indices in 1..``ambient``; bit i-1 of ``mask`` is index i."""

    mask: int
    ambient: int

    def __init__(self, members: Iterable[int], ambient: int):
        _set(self, "mask", _mask_of(_checked(members, ambient)))
        _set(self, "ambient", ambient)

    @classmethod
    def of(cls, members: Iterable[int], ambient: int) -> "IndexSet":
        """Build from any iterable, sorting and deduplicating."""
        return cls(sorted(set(members)), ambient)

    @classmethod
    def from_mask(cls, mask: int, ambient: int) -> "IndexSet":
        """Wrap a mask the caller knows lies below ``1 << ambient``."""
        if ambient < 0:
            raise ValueError("ambient must be non-negative")
        index_set = object.__new__(cls)
        _set(index_set, "mask", mask)
        _set(index_set, "ambient", ambient)
        return index_set

    @property
    def members(self) -> tuple[int, ...]:
        return _members(self.mask)

    @property
    def size(self) -> int:
        return self.mask.bit_count()

    @property
    def is_empty(self) -> bool:
        return not self.mask

    def __iter__(self):
        return iter(self.members)

    def __contains__(self, index: int) -> bool:
        return 0 < index <= self.ambient and self.mask >> (index - 1) & 1 == 1


@dataclass(frozen=True, slots=True)
class IndexPair:
    """A pair of index sets over a shared ambient, selecting half-spaces
    to include as-is (``ones``) and to include complemented (``zeros``).
    The pair holds both masks; ``ones`` and ``zeros`` wrap them."""

    ones_mask: int
    zeros_mask: int
    ambient: int

    def __post_init__(self):
        if self.ambient < 0:
            raise ValueError("ambient must be non-negative")

    @classmethod
    def of(cls, ones: Iterable[int], zeros: Iterable[int], ambient: int) -> "IndexPair":
        return cls(IndexSet.of(ones, ambient).mask, IndexSet.of(zeros, ambient).mask, ambient)

    @property
    def ones(self) -> IndexSet:
        return IndexSet.from_mask(self.ones_mask, self.ambient)

    @property
    def zeros(self) -> IndexSet:
        return IndexSet.from_mask(self.zeros_mask, self.ambient)

    @property
    def is_empty(self) -> bool:
        return not self.ones_mask | self.zeros_mask

    def is_consistent(self) -> bool:
        return not self.ones_mask & self.zeros_mask

    def swapped(self) -> "IndexPair":
        return IndexPair(self.zeros_mask, self.ones_mask, self.ambient)

    def sort_key(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        return (self.ones.members, self.zeros.members)


def check_ground(ambient: int, halfspaces: int) -> None:
    """A scheme over ``ambient`` indices needs exactly that many half-spaces."""
    if ambient != halfspaces:
        raise SchemeError(f"scheme over {_shown_int(ambient)} pairs with {halfspaces} half-spaces")


@dataclass(frozen=True, slots=True, init=False)
class Scheme:
    """An ordered list of index pairs over ``ambient`` plus a selector
    over positions 1..q choosing which pairs participate.  Pair k is
    ``(ones_masks[k-1], zeros_masks[k-1])``; ``pairs`` builds
    ``IndexPair``s from the two columns on each read."""

    ambient: int
    ones_masks: tuple[int, ...]
    zeros_masks: tuple[int, ...]
    selector: IndexSet

    def __init__(self, ambient: int, pairs: Iterable[IndexPair], selector: IndexSet):
        pairs = tuple(pairs)
        ones, zeros = tuple([p.ones_mask for p in pairs]), tuple([p.zeros_mask for p in pairs])
        self._fill(ambient, ones, zeros, selector, pairs)

    @classmethod
    def _of_columns(cls, ambient: int, ones_masks: tuple, zeros_masks: tuple, selector: IndexSet) -> "Scheme":
        """Checked as the public constructor checks, a whole column at a time."""
        scheme = object.__new__(cls)
        scheme._fill(ambient, ones_masks, zeros_masks, selector)
        return scheme

    def _fill(self, ambient, ones_masks, zeros_masks, selector, pairs=()) -> None:
        if ambient < 0:
            raise PreconditionError(f"scheme ambient {ambient} is negative")
        for pair in pairs:
            if pair.ambient != ambient:
                raise PreconditionError(f"pair over {pair.ambient} in a scheme over {ambient}")
        if (reduce(or_, ones_masks, 0) | reduce(or_, zeros_masks, 0)) >> ambient:
            raise PreconditionError(f"pair names an index outside 1..{ambient}")
        if selector.ambient != len(ones_masks):
            raise PreconditionError("selector ambient must equal the number of pairs")
        if selector.mask >> len(ones_masks):
            raise PreconditionError(f"selector names a pair outside 1..{len(ones_masks)}")
        for name, value in zip(self.__slots__, (ambient, ones_masks, zeros_masks, selector)):
            _set(self, name, value)

    @property
    def pairs(self) -> tuple[IndexPair, ...]:
        return tuple([IndexPair(*masks, self.ambient) for masks in zip(self.ones_masks, self.zeros_masks)])

    @property
    def q(self) -> int:
        return len(self.ones_masks)

    def selected_pairs(self) -> tuple[IndexPair, ...]:
        ones, zeros = self.ones_masks, self.zeros_masks
        return tuple(IndexPair(ones[j - 1], zeros[j - 1], self.ambient) for j in self.selector)


def _sorted_pairs(ambient: int, keys: Iterable[int], selected: Iterable[int] | None = None) -> Scheme:
    """Scheme of the distinct pair keys ``ones | zeros << ambient`` in pair
    order, selecting those in ``selected``, or every pair when it is None.
    Each distinct mask is ranked by ``lex_key`` once; pairs sort as the
    ints rank(ones) * R + rank(zeros)."""
    keys = list(set(keys))
    ones = list(map(and_, keys, repeat((1 << ambient) - 1)))
    zeros = list(map(rshift, keys, repeat(ambient)))
    distinct = sorted({*ones, *zeros}, key=lex_key)
    width = len(distinct)
    rank = dict(zip(distinct, range(width))).__getitem__
    order = sorted(map(add, map(mul, map(rank, ones), repeat(width)), map(rank, zeros)))
    ones = tuple(map(distinct.__getitem__, map(floordiv, order, repeat(width))))
    zeros = tuple(map(distinct.__getitem__, map(mod, order, repeat(width))))
    chosen = (1 << len(order)) - 1
    if selected is not None:
        picked = map(set(selected).__contains__, map(or_, ones, map(lshift, zeros, repeat(ambient))))
        chosen = _mask_of(tuple(compress(count(1), picked)))
    return Scheme._of_columns(ambient, ones, zeros, IndexSet.from_mask(chosen, len(order)))


def normalize_scheme(scheme: Scheme) -> Scheme:
    """Sort pairs, merge duplicates, and re-index the selector.

    A merged pair is selected when any of its original copies was, which
    leaves both the DNF union and the CNF intersection unchanged.
    """
    n = scheme.ambient
    keys = list(map(or_, scheme.ones_masks, map(lshift, scheme.zeros_masks, repeat(n))))
    # the selector's bits, lowest first, pick the selected keys
    return _sorted_pairs(n, keys, compress(keys, map("1".__eq__, bin(scheme.selector.mask)[:1:-1])))


@cache
def _byte_texts() -> list[list[str]]:
    """``[k][byte]``: the members of byte value ``byte`` at byte k of a
    mask, as text, for the first :data:`_TEXT_BYTES` bytes."""
    return [[",".join([str(8 * k + i) for i in members]) for members in _BYTE_MEMBERS] for k in range(_TEXT_BYTES)]


def _format_members(mask: int) -> str:
    """The mask's members as a comma list, ``-`` for none; the members of
    each of its low bytes come from :func:`_byte_texts` as one text."""
    octets = mask.to_bytes((mask.bit_length() + 7) // 8, "little")
    parts = [texts[octet] for texts, octet in zip(_byte_texts(), octets) if octet]
    if len(octets) > _TEXT_BYTES:
        parts += [str(8 * _TEXT_BYTES + i) for i in _members(mask >> 8 * _TEXT_BYTES)]
    return ",".join(parts) or "-"


def _parse_members(text: str, ambient: int, lineno: int) -> tuple[int, ...]:
    members = () if text == "-" else tuple(map(_count, text.split(",")))
    if None in members:
        raise ParseError(f"bad index list {_shown(text)}", lineno)
    try:
        return _checked(members, ambient)
    except ValueError as exc:
        raise ParseError(f"bad index list {_shown(text)}: {exc}", lineno) from exc


_PAIR_LINE = re.compile(r"^G([0-9]+): ONES=([0-9,]+|-) ZEROS=([0-9,]+|-)$")


def format_scheme(scheme: Scheme) -> str:
    """The scheme block text; ``SizeCapError`` for a scheme past the
    bounds :func:`parse_scheme_lines` reads, before any text is built."""
    bits = scheme.q * scheme.ambient
    if scheme.ambient > MAX_AMBIENT:
        raise SizeCapError(f"scheme N={scheme.ambient} is past {MAX_AMBIENT}, the most a reader takes")
    if bits > MAX_SCHEME_BITS:
        raise SizeCapError(f"pair lines times N= is {bits}, past {MAX_SCHEME_BITS}, the most a reader takes")
    ones, zeros = scheme.ones_masks, scheme.zeros_masks
    text = {mask: _format_members(mask) for mask in {*ones, *zeros}}
    lines = [f"N={scheme.ambient}"]
    lines += [f"G{k}: ONES={text[o]} ZEROS={text[z]}" for k, (o, z) in enumerate(zip(ones, zeros), 1)]
    lines.append(f"J={_format_members(scheme.selector.mask)}")
    return "\n".join(lines) + "\n"


def parse_scheme_lines(
    lines: list[str],
    first_lineno: int = 1,
    check_ambient: Callable[[int], None] | None = None,
) -> Scheme:
    """Parse the scheme block format: ``N=``, then ``G<k>:`` lines, then ``J=``.

    ``check_ambient`` sees N= after every line has parsed and before any
    mask is built, so a caller can refuse an N= that does not match its
    half-spaces before a huge index costs a huge mask; an N= past
    :data:`MAX_AMBIENT` is refused right after that check, and then the
    first pair line past :data:`MAX_SCHEME_BITS` pair bits.
    """
    rows = _rows(lines, first_lineno)
    lineno, header = next(rows, (first_lineno, ""))
    if not header:
        raise ParseError("empty scheme block", lineno)
    if not header.startswith("N="):
        raise ParseError("scheme block must start with N=<n>", lineno)
    ambient = _count(header[2:])
    if ambient is None:
        raise ParseError(f"bad ambient {_shown(header[2:])}", lineno)
    if ambient < 1:
        raise ParseError("scheme ambient must be positive", lineno)
    head_lineno = lineno

    texts: list[tuple[str, str]] = []
    # each distinct index list is checked at its first line only
    members: dict[str, tuple[int, ...]] = {}
    selector: tuple[int, ...] | None = None
    past_bound: int | None = None
    for lineno, line in rows:
        if selector is not None:
            raise ParseError("unexpected content after J= line", lineno)
        if line.startswith("J="):
            selector = _parse_members(line[2:], len(texts), lineno)
            continue
        match = _PAIR_LINE.match(line)
        if not match:
            raise ParseError(f"bad scheme line {_shown(line)}", lineno)
        if _count(match.group(1)) != len(texts) + 1:
            raise ParseError(f"pair lines must be numbered consecutively, got G{_shown_int(match.group(1))}", lineno)
        texts.append(match.group(2, 3))
        if past_bound is None and len(texts) * ambient > MAX_SCHEME_BITS:
            past_bound = lineno
        for text in texts[-1]:
            if text not in members:
                members[text] = _parse_members(text, ambient, lineno)
    if selector is None:
        raise ParseError("scheme block has no J= line", lineno)
    if check_ambient is not None:
        check_ambient(ambient)
    if ambient > MAX_AMBIENT:
        raise ParseError(f"scheme ambient must be at most {MAX_AMBIENT}", head_lineno)
    if past_bound is not None:
        raise ParseError(f"pair lines times N= must be at most {MAX_SCHEME_BITS}", past_bound)
    mask = {text: _mask_of(indices) for text, indices in members.items()}
    ones = tuple([mask[text] for text, _ in texts])
    zeros = tuple([mask[text] for _, text in texts])
    return Scheme._of_columns(ambient, ones, zeros, IndexSet.from_mask(_mask_of(selector), len(texts)))


def parse_scheme(text: str) -> Scheme:
    return parse_scheme_lines(text.splitlines())
