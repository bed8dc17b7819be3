"""Integer lowering and the tail enumeration kernel.

Each layer's forms are scaled by the positive lcm of their coefficient
denominators (``PerceptronLayer.lowered``), which preserves unit
semantics exactly, so the kernel only ever sees integers.  Python ints
never overflow, so the kernel is exact at any magnitude.
"""

from __future__ import annotations

from typing import Sequence

from .errors import PreconditionError
from .network import PerceptronLayer

# There is one pure-Python kernel and no compiled extension; the name
# stays so that callers reporting the build keep working.
HAVE_COMPILED = False


def lower_layer(
    layer: PerceptronLayer,
) -> tuple[list[int], list[list[int]], list[bool]]:
    """The layer's own integer lowering (see ``PerceptronLayer.lowered``),
    as fresh lists; the positive per-unit scale keeps every sign."""
    biases, weights, lax = layer.lowered
    return list(biases), [list(row) for row in weights], list(lax)


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
    biases, weights, lax = tail_layers[0].lowered
    low = (n_bits + 1) // 2
    width = 1 << low
    codes = [0] * (1 << n_bits)
    for u, (bias, row, is_lax) in enumerate(zip(biases, weights, lax)):
        # a lax flag counts as 1, which turns ">= 0" into "> 0" on integers
        vals = _doubled_sums(bias + is_lax, row[:low])
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
