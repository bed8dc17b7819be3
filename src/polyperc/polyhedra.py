"""Scheme-presented polyhedra: membership and a Boolean algebra on presentations.

A presentation is a first layer of half-spaces plus a scheme plus a
mode.  In DNF mode the point set is the union over selected pairs of
their cells; in CNF mode it is the intersection of their cocells.  A
bundle is read into the layer's integer rows and printed from them, and
each operation hands its operand's layer to its result.  Every operation
is exact and syntactic; point sets are only ever compared pointwise.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property
from operator import and_
from typing import Sequence

from .errors import DimensionError, ParseError, PreconditionError, SchemeError
from .feasibility import _pair_rows
from .geometry import HalfSpace, Point, _holds, _lowered_point, _parse_row, _rows, _shown, _unit_lines
from .indexing import IndexPair, Scheme, _members, _sorted_pairs, check_ground, format_scheme
from .indexing import parse_scheme_lines
from .network import PerceptronLayer

__all__ = [
    "Mode",
    "PresentedPolyhedron",
    "cell_contains",
    "cocell_contains",
    "union",
    "intersection",
    "complement_poly",
    "cnf_to_dnf",
    "dnf_to_cnf",
    "parse_bundle",
    "format_bundle",
]

_MIXED = "half-spaces of mixed dimension"


class Mode(enum.Enum):
    DNF = "DNF"
    CNF = "CNF"


def cell_contains(halfspaces: Sequence[HalfSpace], pair: IndexPair, x: Point) -> int:
    """Membership in the intersection of the ones half-spaces and the
    complements of the zeros half-spaces.  An inconsistent pair denotes
    the empty set; the empty pair denotes the whole space."""
    rows, dimension = _pair_rows(halfspaces, pair)
    den, coords = _lowered_point(x, dimension)
    return int(all(_holds(row, den, coords) for row in rows))


def cocell_contains(halfspaces: Sequence[HalfSpace], pair: IndexPair, x: Point) -> int:
    """Membership in the union of the ones half-spaces and the complements
    of the zeros half-spaces, the complement of the swapped pair's cell.
    The empty pair denotes the empty set."""
    return 1 - cell_contains(halfspaces, pair.swapped(), x)


@dataclass(frozen=True)
class PresentedPolyhedron:
    """Half-spaces (a tuple, lowered once, or a layer), a scheme and a mode."""

    layer: PerceptronLayer
    scheme: Scheme
    mode: Mode

    def __post_init__(self) -> None:
        if not isinstance(self.layer, PerceptronLayer):
            halfspaces = tuple(self.layer)
            if not halfspaces:
                raise PreconditionError("a presentation needs at least one half-space")
            if len({h.dimension for h in halfspaces}) != 1:
                raise DimensionError(_MIXED)
            object.__setattr__(self, "layer", PerceptronLayer(halfspaces))
        check_ground(self.scheme.ambient, self.layer.output_dim)
        if any(map(and_, self.scheme.ones_masks, self.scheme.zeros_masks)):
            for j, (ones, zeros) in zip(self.scheme.selector, self._selected_masks):
                if ones & zeros:
                    raise SchemeError(f"selected pair G{j} is inconsistent")

    @property
    def halfspaces(self) -> tuple[HalfSpace, ...]:
        return self.layer.units

    @property
    def dimension(self) -> int:
        return self.layer.input_dim

    def signature(self, x: Point) -> tuple[int, ...]:
        """One containment bit per half-space."""
        return self.layer.apply(x)

    @cached_property
    def _selected_masks(self) -> tuple[tuple[int, int], ...]:
        masks = tuple(zip(self.scheme.ones_masks, self.scheme.zeros_masks))
        return tuple([masks[j - 1] for j in self.scheme.selector])

    def member(self, x: Point) -> int:
        mask = self.layer.point_mask(x)
        if self.mode is Mode.DNF:
            for m1, m0 in self._selected_masks:
                if mask & m1 == m1 and not mask & m0:
                    return 1
            return 0
        for m1, m0 in self._selected_masks:
            # a cocell is missed when no ones bit is set and no zeros bit is clear
            if not mask & m1 and mask & m0 == m0:
                return 0
        return 1


def _same_ground(a: PresentedPolyhedron, b: PresentedPolyhedron) -> None:
    if a.layer != b.layer:
        raise PreconditionError("operands use different half-space tuples")


def _require_dnf(k: PresentedPolyhedron, op: str) -> None:
    if k.mode is not Mode.DNF:
        raise PreconditionError(f"{op} expects a DNF presentation")


def _dnf_of_pairs(layer: PerceptronLayer, keys: set[int], mode: Mode = Mode.DNF) -> PresentedPolyhedron:
    """Presentation over the layer with the given pair keys all selected, normalized."""
    return PresentedPolyhedron(layer, _sorted_pairs(layer.output_dim, keys), mode)


def _keys(k: PresentedPolyhedron) -> set[int]:
    """The selected pairs as keys ``ones | zeros << n``, n the half-space
    count: the ones bits are 0..n-1 and the zeros bits n..2n-1."""
    n = k.layer.output_dim
    return {ones | zeros << n for ones, zeros in k._selected_masks}


def union(a: PresentedPolyhedron, b: PresentedPolyhedron) -> PresentedPolyhedron:
    """Union of two DNF presentations over the same half-space tuple."""
    _require_dnf(a, "union")
    _require_dnf(b, "union")
    _same_ground(a, b)
    return _dnf_of_pairs(a.layer, _keys(a) | _keys(b))


def intersection(a: PresentedPolyhedron, b: PresentedPolyhedron) -> PresentedPolyhedron:
    """Intersection of two DNF presentations: pairwise merge of cells,
    dropping inconsistent merges (they denote empty cells)."""
    _require_dnf(a, "intersection")
    _require_dnf(b, "intersection")
    _same_ground(a, b)
    n = a.layer.output_dim
    other = _keys(b)
    # a merged key is consistent when its ones bits miss its zeros bits
    merged = {key for left in _keys(a) for right in other if not (key := left | right) & key >> n}
    return _dnf_of_pairs(a.layer, merged)


def _distribute(clauses: Sequence[tuple[int, int]], n: int) -> set[int]:
    """Distribute a conjunction of literal-disjunctions into a disjunction
    of literal-conjunctions (or dually; the combinatorics are identical).

    Each clause contributes one literal per choice; a merged pair that
    needs some index both plain and complemented is dropped.  With zero
    clauses the single empty choice yields the empty pair.  Partial
    merges are keys ``ones | zeros << n``, deduplicated after every
    clause, which bounds the working set by 3^n instead of the full
    product of clause sizes.  Each literal is its key bit and the bit
    that clashes with it, the same index on the other side.  The keys
    come out unordered; every caller normalizes them.
    """
    partial = {0}
    for ones, zeros in clauses:
        plain = [1 << i - 1 for i in _members(ones)]
        complemented = [1 << i - 1 for i in _members(zeros)]
        literals = [(bit, bit << n) for bit in plain] + [(bit << n, bit) for bit in complemented]
        partial = {key | bit for key in partial for bit, clash in literals if not key & clash}
        if not partial:
            break
    return partial


def cnf_to_dnf(k: PresentedPolyhedron) -> PresentedPolyhedron:
    """Rewrite an intersection of cocells as a union of cells, pointwise equal."""
    if k.mode is not Mode.CNF:
        raise PreconditionError("cnf_to_dnf expects a CNF presentation")
    return _dnf_of_pairs(k.layer, _distribute(k._selected_masks, k.layer.output_dim), Mode.DNF)


def dnf_to_cnf(k: PresentedPolyhedron) -> PresentedPolyhedron:
    """Rewrite a union of cells as an intersection of cocells, pointwise equal."""
    _require_dnf(k, "dnf_to_cnf")
    return _dnf_of_pairs(k.layer, _distribute(k._selected_masks, k.layer.output_dim), Mode.CNF)


def complement_poly(k: PresentedPolyhedron) -> PresentedPolyhedron:
    """Complement of a DNF presentation, returned in DNF.

    The complement of a union of cells is the intersection of the
    complementary cocells (swap each pair), which is then distributed
    back into DNF.  Output size can grow as the product of pair sizes.
    """
    _require_dnf(k, "complement")
    swapped = [(zeros, ones) for ones, zeros in k._selected_masks]
    return _dnf_of_pairs(k.layer, _distribute(swapped, k.layer.output_dim))


def format_bundle(k: PresentedPolyhedron) -> str:
    lines = _unit_lines(zip(k.layer.lowered, k.layer.scales))
    lines.append(f"MODE={k.mode.value}")
    return "\n".join(lines) + "\n" + format_scheme(k.scheme)


def parse_bundle(text: str) -> PresentedPolyhedron:
    lines = text.splitlines()
    scaled = []
    for lineno, line in _rows(lines):
        if line.startswith("MODE="):
            break
        scaled.append(_parse_row(line, lineno))
    else:
        raise ParseError("missing MODE=DNF|CNF line", len(lines) or 1)
    value = line[len("MODE=") :]
    if value not in ("DNF", "CNF"):
        raise ParseError(f"unknown mode {_shown(value)}", lineno)
    if not scaled:
        raise ParseError("bundle has no half-space lines", lineno)
    scheme = parse_scheme_lines(lines[lineno:], lineno + 1, lambda n: check_ground(n, len(scaled)))
    if len({len(row[2]) for row, _ in scaled}) != 1:
        raise DimensionError(_MIXED)
    return PresentedPolyhedron(PerceptronLayer._of_rows(*zip(*scaled)), scheme, Mode(value))
