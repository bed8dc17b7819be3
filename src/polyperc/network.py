"""Threshold layers and networks with an exact integer forward pass.

A layer is a tuple of half-spaces sharing an input dimension; applying it
yields one bit per unit.  A network is a composable sequence of layers.
Each layer is lowered once to integers: every unit's form is scaled by
the positive lcm of its coefficient denominators, which keeps every sign.
The first layer then evaluates a rational point over a common
denominator, and later layers sum integer weights over the set bits of
the previous layer's output, so a forward pass does no rational
arithmetic and gives the same bits as :meth:`HalfSpace.contains`.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import cached_property
from operator import mul
from typing import Iterable

from .errors import DimensionError, ParseError, PolypercError, PreconditionError
from .geometry import (
    HalfSpace,
    InequalityKind,
    Point,
    _count,
    _rows,
    format_halfspace,
    parse_halfspace,
)

BitVector = tuple[int, ...]

# per unit: the scaled bias, the scaled weights and whether the unit is lax
IntLayer = tuple[tuple[int, ...], tuple[tuple[int, ...], ...], tuple[bool, ...]]


def bits_of_index(g: int, n_bits: int) -> BitVector:
    """Bit vector encoded by g: bit i-1 of g is vector entry i."""
    return tuple((g >> i) & 1 for i in range(n_bits))


@dataclass(frozen=True)
class PerceptronLayer:
    units: tuple[HalfSpace, ...]

    def __post_init__(self) -> None:
        if not self.units:
            raise PreconditionError("empty layer")
        dims = {u.form.dimension for u in self.units}
        if len(dims) != 1:
            raise DimensionError("mixed unit dimensions in layer")

    @property
    def input_dim(self) -> int:
        return self.units[0].form.dimension

    @property
    def output_dim(self) -> int:
        return len(self.units)

    @cached_property
    def lowered(self) -> IntLayer:
        """Every unit's :meth:`LinearForm.lowered`, plus its lax flag."""
        biases, weights = zip(*(unit.form.lowered() for unit in self.units))
        lax = tuple(u.kind is InequalityKind.LAX for u in self.units)
        return biases, weights, lax

    def point_mask(self, x: Point) -> int:
        """Firing units on a rational point as an int mask (bit u-1 is unit u).

        The point is brought to a common denominator D > 0, so a unit fires
        iff ``bias*D + sum(w_i * D*x_i)`` is > 0, or >= 0 when it is lax.
        A lax flag counts as 1, which turns ``>= 0`` into ``> 0`` on integers.
        """
        biases, weights, lax = self.lowered
        if len(x) != len(weights[0]):
            raise DimensionError(
                f"point has {len(x)} coordinates, form expects {len(weights[0])}"
            )
        denom = math.lcm(*[c.denominator for c in x])
        coords = [c.numerator * (denom // c.denominator) for c in x]
        mask = 0
        for u, (bias, row, is_lax) in enumerate(zip(biases, weights, lax)):
            if bias * denom + is_lax + sum(map(mul, row, coords)) > 0:
                mask |= 1 << u
        return mask

    def next_mask(self, mask: int) -> int:
        """Firing units on the bit vector encoded by mask (bit j-1 is input j)."""
        biases, weights, lax = self.lowered
        on = [j for j in range(len(weights[0])) if (mask >> j) & 1]
        out = 0
        for u, (bias, row, is_lax) in enumerate(zip(biases, weights, lax)):
            if bias + is_lax + sum([row[j] for j in on]) > 0:
                out |= 1 << u
        return out

    def apply(self, x: Point) -> BitVector:
        return bits_of_index(self.point_mask(x), self.output_dim)


def layer_of(halfspaces: Iterable[HalfSpace]) -> PerceptronLayer:
    return PerceptronLayer(tuple(halfspaces))


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


def architecture(network: PerceptronNetwork) -> tuple[int, ...]:
    """Input dimension followed by every layer's output dimension."""
    return (network.input_dim,) + tuple(l.output_dim for l in network.layers)


_LAYER_LINE = re.compile(r"^LAYER ([0-9]+) ([0-9]+)$")


def format_network(network: PerceptronNetwork) -> str:
    lines = [f"LAYERS={network.depth}"]
    for layer in network.layers:
        lines.append(f"LAYER {layer.input_dim} {layer.output_dim}")
        lines.extend(format_halfspace(u) for u in layer.units)
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
        units = []
        for _ in range(out_dim):
            if pos >= len(rows):
                raise ParseError("missing half-space line", rows[-1][0])
            hs_lineno, hs_line = rows[pos]
            unit = parse_halfspace(hs_line, hs_lineno)
            if unit.form.dimension != in_dim:
                raise ParseError(
                    f"half-space dimension {unit.form.dimension} does not "
                    f"match declared layer input {in_dim}",
                    hs_lineno,
                )
            units.append(unit)
            pos += 1
        try:
            layers.append(PerceptronLayer(tuple(units)))
        except PolypercError as exc:
            raise ParseError(str(exc), lineno) from exc
    if pos != len(rows):
        raise ParseError("unexpected content after last layer", rows[pos][0])
    try:
        return PerceptronNetwork(tuple(layers))
    except PolypercError as exc:
        raise ParseError(str(exc), head_lineno) from exc
