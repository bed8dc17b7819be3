"""Threshold layers and networks with an exact integer forward pass.

A layer holds one integer row ``(strict, bias, weights)`` per unit, plus
the unit's positive scale, the lcm of its coefficient denominators: the
unit is the half-space of the row divided by its scale, so rows and
scales match units one for one.  ``PerceptronLayer.units`` is a cached
view of them as half-spaces.  A layer built from half-spaces lowers them
at once and keeps them only as that cache; synthesis and the network and
bundle readers write rows, and :func:`format_network` prints rows
through ``geometry._unit_lines``, the one half-space line printer.  A
network is a composable sequence of layers; a presented polyhedron holds
its half-spaces as one.  The first layer evaluates a rational point over
a common denominator; later layers, and the tail kernel
(:func:`tail_accepted_set`), sum integer weights over set bits.  So
every bit is the one :meth:`HalfSpace.contains` gives, without rational
arithmetic, and Python ints keep it exact at any magnitude.  The tail
kernel runs the first tail layer on every bit vector eight units at a
time, each unit's firing set packed into ints of byte fields, and hands
only the distinct firing codes to the later layers.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate, compress, count, repeat
from operator import lshift, neg, or_
from typing import Iterable, Sequence

from .errors import DimensionError, ParseError, PolypercError, PreconditionError, SizeCapError
from .geometry import HalfSpace, Point, Row, _count, _holds, _lowered_point, _parse_row, _rows, _scaled_row
from .geometry import _shown_int, _unit, _unit_lines
from .indexing import _members

__all__ = [
    "PerceptronLayer",
    "PerceptronNetwork",
    "bits_of_index",
    "parse_network",
    "format_network",
    "tail_accepted_set",
    "lower_layer",
    "HAVE_COMPILED",
]

BitVector = tuple[int, ...]

# There is one pure-Python kernel and no compiled extension; the name
# stays so that callers reporting the build keep working.
HAVE_COMPILED = False


def bits_of_index(g: int, n_bits: int) -> BitVector:
    """Bit vector encoded by g: bit i-1 of g is vector entry i."""
    return tuple((g >> i) & 1 for i in range(n_bits))


@dataclass(frozen=True, init=False, repr=False)
class PerceptronLayer:
    """Threshold units sharing an input dimension: unit u is the row
    ``lowered[u]`` over the scale ``scales[u]``.  A frozen dataclass, it compares
    and hashes on these two fields alone; ``units`` views them as half-spaces."""

    lowered: tuple[Row, ...]
    scales: tuple[int, ...]
    input_dim: int = field(compare=False)
    output_dim: int = field(compare=False)

    def __init__(self, units: Iterable[HalfSpace]):
        units = tuple(units)
        scaled = [_scaled_row(unit.form, unit.kind) for unit in units]
        of_rows = self._of_rows(tuple([row for row, _ in scaled]), tuple([scale for _, scale in scaled]))
        # the given half-spaces are the units view's cache
        self.__dict__.update(of_rows.__dict__, units=units)

    @classmethod
    def _of_rows(cls, rows: tuple[Row, ...], scales: tuple[int, ...]) -> "PerceptronLayer":
        """The layer of rows, none all-zero, each in lowest terms over its positive scale."""
        dim = _input_dim({len(weights) for _, _, weights in rows})
        layer = object.__new__(cls)
        layer.__dict__.update(lowered=rows, scales=scales, input_dim=dim, output_dim=len(rows))
        return layer

    @cached_property
    def units(self) -> tuple[HalfSpace, ...]:
        return tuple(map(_unit, self.lowered, self.scales))

    def __repr__(self) -> str:
        return f"PerceptronLayer(units={self.units!r})"

    def point_mask(self, x: Point) -> int:
        """Firing units on a rational point as an int mask (bit u-1 is unit u).

        The point is brought to a common denominator D > 0, so a unit fires
        iff ``bias*D + sum(w_i * D*x_i)`` is > 0, or >= 0 when it is lax.
        """
        denom, coords = _lowered_point(x, self.input_dim)
        mask = 0
        for u, row in enumerate(self.lowered):
            if _holds(row, denom, coords):
                mask |= 1 << u
        return mask

    def next_mask(self, mask: int) -> int:
        """Firing units on the bit vector encoded by mask (bit j-1 is input j)."""
        if mask >> self.input_dim:  # also -1 for a negative mask
            raise PreconditionError(f"mask is not a bit vector over {self.input_dim} inputs")
        on = [i - 1 for i in _members(mask)]
        out = 0
        for u, (strict, bias, weights) in enumerate(self.lowered):
            # only set bits are summed, and a lax unit starts 1 higher, as in the kernel
            if bias + (not strict) + sum([weights[j] for j in on]) > 0:
                out |= 1 << u
        return out

    def apply(self, x: Point) -> BitVector:
        return bits_of_index(self.point_mask(x), self.output_dim)


def _input_dim(dims: set[int]) -> int:
    """The one input dimension of a layer's units."""
    if not dims:
        raise PreconditionError("empty layer")
    if len(dims) != 1:
        raise DimensionError("mixed unit dimensions in layer")
    return dims.pop()


def lower_layer(
    layer: PerceptronLayer,
) -> tuple[list[int], list[list[int]], list[bool]]:
    """The layer's rows (see ``PerceptronLayer.lowered``) as fresh lists of
    biases, weights and lax flags; the positive per-unit scale keeps every sign."""
    strict, biases, weights = zip(*layer.lowered)
    return list(biases), [list(row) for row in weights], [not s for s in strict]


def _doubled_sums(start: int, weights: Sequence[int]) -> list[int]:
    """``start`` plus the sum of weights[j] over the set bits j of each
    index, for every index in [0, 2^len(weights))."""
    sums = [start]
    for w in weights:
        sums += [s + w for s in sums]
    return sums


def tail_accepted_set(
    tail_layers: Sequence[PerceptronLayer], n_bits: int
) -> list[int]:
    """Ascending indices of the bit vectors the tail maps to 1.

    Bit i-1 of an index is input bit i, so index 5 over 3 bits is the
    vector (1, 0, 1).

    The first tail layer is evaluated on every index at once, eight units
    at a time.  The index splits into its low and high bits, and each
    unit's partial sums over the two halves are built by doubling.  For
    each block of indices sharing their high bits, the eight units'
    firing sets are packed into one int of byte fields (see
    :func:`_byte_fields`), and each touched block is merged into the
    codes once per eight units: the first eight units' bytes are copied
    in, and each later group's bytes are OR'd in shifted by the group's
    first unit.  The later layers then only see the distinct firing
    codes of the first.  No table is larger than the list of 2^n_bits
    codes.
    """
    if not tail_layers:
        raise PreconditionError("empty tail")
    PerceptronNetwork(tuple(tail_layers))  # the layers must chain
    if tail_layers[0].input_dim != n_bits:
        raise PreconditionError(
            f"tail expects {tail_layers[0].input_dim} bits, got {n_bits}"
        )
    if tail_layers[-1].output_dim != 1:
        raise PreconditionError("tail must be single-output")
    low = (n_bits + 1) // 2
    width = 1 << low
    try:
        codes = [0] * (1 << n_bits)
    except (OverflowError, MemoryError):
        raise SizeCapError(f"a table of 2^{n_bits} first-layer bit vectors cannot be built") from None
    rows = tail_layers[0].lowered
    for first in range(0, len(rows), 8):
        fields = _byte_fields(rows[first : first + 8], low, n_bits - low)
        for h in compress(count(), fields):
            field, start = fields[h], h << low
            if not first:
                # the first eight units find every code still 0
                codes[start : start + width] = field.to_bytes(width, "little")
            elif field.bit_count() << 4 < width:
                # under one set bit per 16 vectors, a few Python steps per
                # nonzero byte cost less than one C-level pass over the block
                while field:
                    g = (field.bit_length() - 1) >> 3
                    codes[start + g] |= field >> 8 * g << first
                    field &= (1 << 8 * g) - 1
            else:
                block = map(lshift, field.to_bytes(width, "little"), repeat(first))
                codes[start : start + width] = map(or_, codes[start : start + width], block)
    accepted = set()
    for code in set(codes):
        mask = code
        for layer in tail_layers[1:]:
            mask = layer.next_mask(mask)
        if mask & 1:
            accepted.add(code)
    return list(compress(count(), map(accepted.__contains__, codes)))


def _byte_fields(rows: Sequence[Row], low: int, high: int) -> list[int]:
    """The firing sets of up to eight units over every index, one int per
    block of indices with the same high bits: bit u of byte g of the
    block-h int is set where unit u fires on index ``g | h << low``."""
    width = 1 << low
    fields = [0] * (1 << high)
    places = None
    for bit, (strict, bias, weights) in enumerate(rows):
        # a lax unit starts 1 higher, which turns ">= 0" into "> 0" on integers
        start = bias + (not strict)
        vals = _doubled_sums(start, weights[:low])
        offs = _doubled_sums(0, weights[low:])
        # the unit fires in block h iff offs[h] passes minus the largest low sum
        floor = -start - sum([w for w in weights[:low] if w > 0])
        touched = [h for h, off in enumerate(offs) if off > floor]
        if len(touched) <= low:
            # no more blocks than a sort of the low sums takes passes over
            # them: compare the sums with each block's cut
            for h in touched:
                cut = -offs[h]
                fields[h] |= int.from_bytes(bytes([v > cut for v in vals]), "little") << bit
            continue
        # the unit fires in block h on the low indices whose sum passes
        # -offs[h], a suffix of the indices in ascending order of their
        # sums; tops[i] is the field of the suffix from position i
        if places is None:
            places = [1 << 8 * g for g in range(width)]
        order = sorted(range(width), key=vals.__getitem__)
        ascending = [vals[g] for g in order]
        tops = list(accumulate(map(places.__getitem__, reversed(order)), or_, initial=0))
        tops.reverse()
        cuts = map(bisect_right, repeat(ascending), map(neg, offs))
        fields = list(map(or_, fields, map(lshift, map(tops.__getitem__, cuts), repeat(bit))))
    return fields


@dataclass(frozen=True)
class PerceptronNetwork:
    layers: tuple[PerceptronLayer, ...]

    def __post_init__(self) -> None:
        if not self.layers:
            raise PreconditionError("network needs at least one layer")
        for pos, (a, b) in enumerate(zip(self.layers, self.layers[1:]), 1):
            if a.output_dim != b.input_dim:
                raise DimensionError(
                    f"layer {pos} feeds {a.output_dim} bits into a layer "
                    f"expecting {b.input_dim}"
                )

    @property
    def depth(self) -> int:
        return len(self.layers)

    @property
    def input_dim(self) -> int:
        return self.layers[0].input_dim

    @property
    def output_dim(self) -> int:
        return self.layers[-1].output_dim

    @property
    def is_single_output(self) -> bool:
        return self.output_dim == 1

    def forward(self, x: Point) -> BitVector:
        mask = self.layers[0].point_mask(x)
        for layer in self.layers[1:]:
            mask = layer.next_mask(mask)
        return bits_of_index(mask, self.output_dim)


_LAYER_LINE = re.compile(r"^LAYER ([0-9]+) ([0-9]+)$")


def format_network(network: PerceptronNetwork) -> str:
    lines = [f"LAYERS={network.depth}"]
    for layer in network.layers:
        lines.append(f"LAYER {layer.input_dim} {layer.output_dim}")
        lines += _unit_lines(zip(layer.lowered, layer.scales))
    return "\n".join(lines) + "\n"


def parse_network(text: str) -> PerceptronNetwork:
    rows = list(_rows(text.splitlines()))
    if not rows:
        raise ParseError("empty network file")
    head_lineno, head = rows[0]
    if not head.startswith("LAYERS="):
        raise ParseError("expected LAYERS=<k> header", head_lineno)
    count = _count(head[len("LAYERS=") :])
    if count is None:
        raise ParseError("bad layer count", head_lineno)
    if count < 1:
        raise ParseError("layer count must be at least 1", head_lineno)

    pos = 1
    layers = []
    for _ in range(count):
        if pos >= len(rows):
            raise ParseError("missing LAYER block", rows[-1][0])
        lineno, line = rows[pos]
        match = _LAYER_LINE.match(line)
        in_dim, out_dim = map(_count, match.groups()) if match else (None, None)
        if in_dim is None or out_dim is None:
            raise ParseError("expected LAYER <in> <out> line", lineno)
        pos += 1
        unit_rows, scales = [], []
        for _ in range(out_dim):
            if pos >= len(rows):
                raise ParseError("missing half-space line", rows[-1][0])
            hs_lineno, hs_line = rows[pos]
            row, scale = _parse_row(hs_line, hs_lineno)
            if len(row[2]) != in_dim:
                message = f"half-space dimension {len(row[2])} does not match declared layer input"
                raise ParseError(f"{message} {_shown_int(in_dim)}", hs_lineno)
            unit_rows.append(row)
            scales.append(scale)
            pos += 1
        try:
            layers.append(PerceptronLayer._of_rows(tuple(unit_rows), tuple(scales)))
        except PolypercError as exc:
            raise ParseError(str(exc), lineno) from exc
    if pos != len(rows):
        raise ParseError("unexpected content after last layer", rows[pos][0])
    try:
        return PerceptronNetwork(tuple(layers))
    except PolypercError as exc:
        raise ParseError(str(exc), head_lineno) from exc
