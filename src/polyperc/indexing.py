"""Index sets, index pairs and schemes, with their lexicographic orders.

A scheme is the finite presentation everything else in the package is
driven by: an ordered list of index pairs plus a selector picking which
of them participate.  Raw schemes may arrive unsorted or with duplicate
pairs; :func:`normalize_scheme` produces the canonical sorted,
duplicate-free version without changing what any polyhedron built from
the scheme contains.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable

from .errors import ParseError, PreconditionError


@dataclass(frozen=True)
class IndexSet:
    """Strictly increasing positive integers, all at most ``ambient``."""

    members: tuple[int, ...]
    ambient: int

    def __post_init__(self):
        object.__setattr__(self, "members", tuple(self.members))
        if self.ambient < 0:
            raise ValueError("ambient must be non-negative")
        previous = 0
        for index in self.members:
            if index <= previous:
                raise ValueError("members must be strictly increasing positive integers")
            previous = index
        if self.members and self.members[-1] > self.ambient:
            raise ValueError(f"member {self.members[-1]} exceeds ambient {self.ambient}")

    @classmethod
    def of(cls, members: Iterable[int], ambient: int) -> "IndexSet":
        """Build from any iterable, sorting and deduplicating."""
        return cls(tuple(sorted(set(members))), ambient)

    @property
    def size(self) -> int:
        return len(self.members)

    @property
    def is_empty(self) -> bool:
        return not self.members

    def __iter__(self):
        return iter(self.members)

    def __contains__(self, index: int) -> bool:
        return index in self.members


@dataclass(frozen=True)
class IndexPair:
    """A pair of index sets over a shared ambient, selecting half-spaces
    to include as-is (``ones``) and to include complemented (``zeros``)."""

    ones: IndexSet
    zeros: IndexSet

    def __post_init__(self):
        if self.ones.ambient != self.zeros.ambient:
            raise PreconditionError("pair components have different ambients")

    @classmethod
    def of(cls, ones: Iterable[int], zeros: Iterable[int], ambient: int) -> "IndexPair":
        return cls(IndexSet.of(ones, ambient), IndexSet.of(zeros, ambient))

    @property
    def ambient(self) -> int:
        return self.ones.ambient

    @property
    def is_empty(self) -> bool:
        return self.ones.is_empty and self.zeros.is_empty

    def is_consistent(self) -> bool:
        return not set(self.ones.members) & set(self.zeros.members)

    def swapped(self) -> "IndexPair":
        return IndexPair(self.zeros, self.ones)

    def sort_key(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        return (self.ones.members, self.zeros.members)


@dataclass(frozen=True)
class Scheme:
    """An ordered list of index pairs over ``ambient`` plus a selector
    over positions 1..q choosing which pairs participate."""

    ambient: int
    pairs: tuple[IndexPair, ...]
    selector: IndexSet

    def __post_init__(self):
        object.__setattr__(self, "pairs", tuple(self.pairs))
        for pair in self.pairs:
            if pair.ambient != self.ambient:
                raise PreconditionError(
                    f"pair over {pair.ambient} in a scheme over {self.ambient}"
                )
        if self.selector.ambient != len(self.pairs):
            raise PreconditionError("selector ambient must equal the number of pairs")

    @property
    def q(self) -> int:
        return len(self.pairs)

    def selected_pairs(self) -> tuple[IndexPair, ...]:
        return tuple(self.pairs[j - 1] for j in self.selector)


def normalize_scheme(scheme: Scheme) -> Scheme:
    """Sort pairs, merge duplicates, and re-index the selector.

    A merged pair is selected when any of its original copies was, which
    leaves both the DNF union and the CNF intersection unchanged.
    """
    unique = {pair.sort_key(): pair for pair in scheme.pairs}
    ordered = sorted(unique.values(), key=IndexPair.sort_key)
    position = {pair.sort_key(): k + 1 for k, pair in enumerate(ordered)}
    selected = {position[scheme.pairs[j - 1].sort_key()] for j in scheme.selector}
    return Scheme(scheme.ambient, tuple(ordered), IndexSet.of(selected, len(ordered)))


def _format_members(index_set: IndexSet) -> str:
    return ",".join(str(i) for i in index_set.members) if index_set.members else "-"


def _parse_members(text: str, ambient: int, lineno: int | None) -> IndexSet:
    if text == "-":
        return IndexSet((), ambient)
    try:
        members = tuple(int(part) for part in text.split(","))
        return IndexSet(members, ambient)
    except ValueError as exc:
        raise ParseError(f"bad index list {text!r}: {exc}", lineno) from exc


_PAIR_LINE = re.compile(r"^G(\d+): ONES=([0-9,]+|-) ZEROS=([0-9,]+|-)$")


def format_scheme(scheme: Scheme) -> str:
    lines = [f"N={scheme.ambient}"]
    for k, pair in enumerate(scheme.pairs, 1):
        lines.append(f"G{k}: ONES={_format_members(pair.ones)} ZEROS={_format_members(pair.zeros)}")
    lines.append(f"J={_format_members(scheme.selector)}")
    return "\n".join(lines) + "\n"


def parse_scheme_lines(lines: list[str], first_lineno: int = 1) -> Scheme:
    """Parse the scheme block format: ``N=``, then ``G<k>:`` lines, then ``J=``."""
    rows = [(first_lineno + k, line) for k, line in enumerate(lines) if line.strip()]
    if not rows:
        raise ParseError("empty scheme block", first_lineno)
    lineno, header = rows[0]
    if not header.startswith("N="):
        raise ParseError("scheme block must start with N=<n>", lineno)
    try:
        ambient = int(header[2:])
    except ValueError as exc:
        raise ParseError(f"bad ambient {header[2:]!r}", lineno) from exc
    if ambient < 1:
        raise ParseError("scheme ambient must be positive", lineno)

    pairs: list[IndexPair] = []
    selector: IndexSet | None = None
    for row, (lineno, line) in enumerate(rows[1:], 1):
        if line.startswith("J="):
            selector = _parse_members(line[2:], len(pairs), lineno)
            if row < len(rows) - 1:
                raise ParseError("unexpected content after J= line", rows[row + 1][0])
            break
        match = _PAIR_LINE.match(line)
        if not match:
            raise ParseError(f"bad scheme line {line!r}", lineno)
        if int(match.group(1)) != len(pairs) + 1:
            raise ParseError(f"pair lines must be numbered consecutively, got G{match.group(1)}", lineno)
        pairs.append(
            IndexPair(
                _parse_members(match.group(2), ambient, lineno),
                _parse_members(match.group(3), ambient, lineno),
            )
        )
    if selector is None:
        raise ParseError("scheme block has no J= line", rows[-1][0])
    return Scheme(ambient, tuple(pairs), selector)


def parse_scheme(text: str) -> Scheme:
    return parse_scheme_lines(text.splitlines())
