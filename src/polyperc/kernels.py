"""Backend selection and integer lowering for the enumeration kernels.

Each layer's forms are scaled by the positive lcm of their coefficient
denominators (``PerceptronLayer.lowered``), which preserves unit
semantics exactly, so the kernels only ever see integers.  The compiled
backend is used when importable and when every intermediate sum provably
fits in int64; otherwise the pure-python backend (exact at any size)
takes over.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .errors import PreconditionError
from .network import PerceptronLayer

try:
    from . import _ckernels

    HAVE_COMPILED = True
except ImportError:  # built without the extension
    _ckernels = None
    HAVE_COMPILED = False

from . import _pykernels

PYTHON, COMPILED = "python", "compiled"

# headroom under 2^63: values are |bias| + sum |w| at worst
_INT64_LIMIT = 1 << 62

IntLayer = tuple[list[int], list[list[int]], list[bool]]


def lower_layer(layer: PerceptronLayer) -> IntLayer:
    """The layer's own integer lowering (see ``PerceptronLayer.lowered``),
    as fresh lists; the positive per-unit scale keeps every sign."""
    biases, weights, lax = layer.lowered
    return list(biases), [list(row) for row in weights], list(lax)


def _fits_int64(layers: Sequence[IntLayer]) -> bool:
    for biases, weights, _ in layers:
        if len(biases) > 63:
            return False
        for bias, row in zip(biases, weights):
            if abs(bias) + sum(abs(w) for w in row) >= _INT64_LIMIT:
                return False
    return True


def _pick(backend: Optional[str], layers: Sequence[IntLayer], n_bits: int) -> str:
    if backend is None:
        ok = HAVE_COMPILED and n_bits <= 62 and _fits_int64(layers)
        return COMPILED if ok else PYTHON
    if backend == COMPILED:
        if not HAVE_COMPILED:
            raise PreconditionError("compiled kernel backend is not available")
        if n_bits > 62:
            raise PreconditionError("bit width exceeds the compiled kernel's range")
        if not _fits_int64(layers):
            raise PreconditionError("weights exceed the compiled kernel's range")
        return COMPILED
    if backend == PYTHON:
        return PYTHON
    raise PreconditionError(f"unknown kernel backend {backend!r}")


def tail_accepted_set(
    tail_layers: Sequence[PerceptronLayer],
    n_bits: int,
    backend: Optional[str] = None,
) -> list[int]:
    """Ascending indices of the bit vectors the tail maps to 1.

    Bit i-1 of an index is input bit i, so index 5 over 3 bits is the
    vector (1, 0, 1).
    """
    if not tail_layers:
        raise PreconditionError("empty tail")
    if tail_layers[0].input_dim != n_bits:
        raise PreconditionError(
            f"tail expects {tail_layers[0].input_dim} bits, got {n_bits}"
        )
    if tail_layers[-1].output_dim != 1:
        raise PreconditionError("tail must be single-output")
    lowered = [lower_layer(layer) for layer in tail_layers]
    chosen = _pick(backend, lowered, n_bits)
    module = _ckernels if chosen == COMPILED else _pykernels
    return [int(g) for g in module.tail_accepted(n_bits, lowered)]


def sweep_unit_tables(
    n: int,
    rows: Sequence[tuple[int, int, int, int, int, int]],
    backend: Optional[str] = None,
) -> tuple[int, int, int, int]:
    """Dispatch the exhaustive unit truth-table sweep; rows are already
    integer data, so only backend availability matters here."""
    if backend is None:
        chosen = COMPILED if HAVE_COMPILED and n <= 62 else PYTHON
    elif backend == COMPILED:
        if not HAVE_COMPILED:
            raise PreconditionError("compiled kernel backend is not available")
        if n > 62:
            raise PreconditionError("bit width exceeds the compiled kernel's range")
        chosen = COMPILED
    elif backend == PYTHON:
        chosen = PYTHON
    else:
        raise PreconditionError(f"unknown kernel backend {backend!r}")
    module = _ckernels if chosen == COMPILED else _pykernels
    checks, failures, first_row, first_b = module.sweep_unit_tables(n, list(rows))
    return int(checks), int(failures), int(first_row), int(first_b)
