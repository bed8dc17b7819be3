"""Threshold layers and networks with an exact integer forward pass.

A layer holds one integer row ``(strict, bias, weights)`` per unit, plus
the unit's positive scale, the lcm of its coefficient denominators: the
unit is the half-space of the row divided by its scale, so rows and
scales match units one for one.  ``PerceptronLayer.units`` is a cached
view of them as half-spaces.  A layer built from half-spaces lowers them
at once and keeps them only as that cache, synthesis writes rows
directly, :func:`parse_network` reads each unit line into its row, and
:func:`format_network` prints every layer from its rows.  A network is
a composable sequence of layers.  The first layer evaluates
a rational point over a common denominator; later layers, and the tail
enumeration kernel (:func:`tail_accepted_set`), sum integer weights
over set bits.  So no rational arithmetic is done, every bit is the one
:meth:`HalfSpace.contains` gives, and Python ints keep it exact at any
magnitude.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

from .errors import DimensionError, ParseError, PolypercError, PreconditionError
from .geometry import _KINDS, HalfSpace, Point, Row, _count, _holds, _lowered_point, _parse_row, _ratio_text, _rows
from .geometry import _scaled_row, _shown_int, _unit
from .indexing import _members

__all__ = [
    "PerceptronLayer",
    "PerceptronNetwork",
    "layer_of",
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


class PerceptronLayer:
    """Threshold units sharing an input dimension: unit u is the row
    ``lowered[u]`` over the scale ``scales[u]``, and equality and hashing
    read both.  ``units`` views them as half-spaces."""

    def __init__(self, units: Iterable[HalfSpace]):
        units = tuple(units)
        scaled = [_scaled_row(unit) for unit in units]
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

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a layer")

    @cached_property
    def units(self) -> tuple[HalfSpace, ...]:
        return tuple(map(_unit, self.lowered, self.scales))

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, PerceptronLayer):
            return NotImplemented
        return self.lowered == other.lowered and self.scales == other.scales

    def __hash__(self) -> int:
        return hash((self.lowered, self.scales))

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


def layer_of(halfspaces: Iterable[HalfSpace]) -> PerceptronLayer:
    return PerceptronLayer(tuple(halfspaces))


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

    The first tail layer is evaluated on every index at once, one unit
    at a time: the index splits into its low and high bits, the unit's
    partial sums over each half are built by doubling, and the unit
    fires where the two halves add up past zero.  The later layers then
    only see the distinct firing codes of the first.
    """
    if not tail_layers:
        raise PreconditionError("empty tail")
    if tail_layers[0].input_dim != n_bits:
        raise PreconditionError(
            f"tail expects {tail_layers[0].input_dim} bits, got {n_bits}"
        )
    if tail_layers[-1].output_dim != 1:
        raise PreconditionError("tail must be single-output")
    low = (n_bits + 1) // 2
    width = 1 << low
    codes = [0] * (1 << n_bits)
    for u, (strict, bias, row) in enumerate(tail_layers[0].lowered):
        # a lax unit starts 1 higher, which turns ">= 0" into "> 0" on integers
        vals = _doubled_sums(bias + (not strict), row[:low])
        top = max(vals)
        bit = 1 << u
        for h, off in enumerate(_doubled_sums(0, row[low:])):
            cut = -off
            if top <= cut:
                continue
            start = h << low
            stop = start + width
            codes[start:stop] = [
                c | bit if v > cut else c for c, v in zip(codes[start:stop], vals)
            ]
    accepted = set()
    for code in set(codes):
        mask = code
        for layer in tail_layers[1:]:
            mask = layer.next_mask(mask)
        if mask & 1:
            accepted.add(code)
    return [g for g, code in enumerate(codes) if code in accepted]


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


class _Texts(dict):
    """The text of each coefficient over one scale, formatted on first use."""

    def __init__(self, scale: int):
        super().__init__()
        self.scale = scale

    def __missing__(self, coefficient: int) -> str:
        text = self[coefficient] = _ratio_text(coefficient, self.scale)
        return text


def _unit_lines(layer: PerceptronLayer) -> list[str]:
    """The half-space line of each unit, from its row over its scale,
    formatting each distinct coefficient of the layer once."""
    lines = []
    by_scale: dict[int, _Texts] = {}
    for (strict, bias, weights), scale in zip(layer.lowered, layer.scales):
        texts = by_scale.get(scale)
        if texts is None:
            texts = by_scale[scale] = _Texts(scale)
        lines.append(f"{texts[bias]} {' '.join(map(texts.__getitem__, weights))} {_KINDS[strict].value}")
    return lines


def format_network(network: PerceptronNetwork) -> str:
    lines = [f"LAYERS={network.depth}"]
    for layer in network.layers:
        lines.append(f"LAYER {layer.input_dim} {layer.output_dim}")
        lines += _unit_lines(layer)
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
