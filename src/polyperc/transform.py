"""Scheme-to-network synthesis, network-to-scheme extraction, three-layer
normalization, and exact equivalence checking.

Synthesis turns a scheme into a 3-layer network: the given half-spaces,
one AND unit per pair, one OR unit over the selector (or the OR/AND
dual for the intersection flavor).  Extraction walks every bit vector
the first layer can emit through the remaining layers and collects the
accepted ones as full index pairs, sorted by ``indexing.lex_key`` as
every scheme the package sorts is.  Composing the two normalizes any
single-output network to depth 3 without touching its first layer.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .errors import DimensionError, PreconditionError, SchemeError, SizeCapError
from .feasibility import DEFAULT_CONSTRAINT_CAP, _cell_rows, _point, _realizable
from .forms import _unit_row
from .geometry import HalfSpace, Point, Row, _scaled_row, _shown_int
from .indexing import IndexPair, IndexSet, Scheme, _mask_of, check_ground, lex_key
from .network import BitVector, PerceptronLayer, PerceptronNetwork, bits_of_index, tail_accepted_set

__all__ = [
    "build_dnf_network",
    "build_cnf_network",
    "pair_of_bits",
    "extract_scheme",
    "ExtractionReport",
    "prune_empty_cells",
    "normalize_three_layers",
    "ConstantNetwork",
    "check_equivalence",
    "EquivalenceResult",
]

DEFAULT_ENUM_CAP = 20


@dataclass(frozen=True)
class ExtractionReport:
    scheme: Scheme
    enumerated_count: int
    accepted_count: int
    pruned_count: int = 0


@dataclass(frozen=True)
class ConstantNetwork:
    """Sentinel for networks whose tail never (or always) fires; only
    produced in permissive mode, since a constant has no unit form."""

    value: int
    input_dim: int

    def forward(self, x: Point) -> BitVector:
        if len(x) != self.input_dim:
            raise DimensionError(f"expected {self.input_dim} coordinates, got {len(x)}")
        return (self.value,)


@dataclass(frozen=True)
class EquivalenceResult:
    equivalent: bool
    mode: str
    checked: int
    counterexample_bits: Optional[BitVector] = None
    counterexample_point: Optional[Point] = None


def _synthesize(scheme: Scheme, ground: int, conj: bool) -> tuple[PerceptronLayer, PerceptronLayer]:
    """The layers after ``ground`` half-spaces: the AND unit (``conj``) or
    OR unit of each pair, then the dual unit over the selector, written
    as rows over scale 2."""
    check_ground(scheme.ambient, ground)
    if scheme.selector.is_empty:
        raise SchemeError("empty selector")
    rows = []
    for k, (ones, zeros) in enumerate(zip(scheme.ones_masks, scheme.zeros_masks), 1):
        if not ones | zeros:
            raise SchemeError(f"pair G{k} is empty and has no unit form")
        if ones & zeros:
            raise SchemeError(f"pair G{k} is inconsistent")
        rows.append(_unit_row(ones, zeros, ground, conj))
    selector = _unit_row(scheme.selector.mask, 0, scheme.q, not conj)
    return PerceptronLayer._of_rows(tuple(rows), (2,) * len(rows)), PerceptronLayer._of_rows((selector,), (2,))


def build_dnf_network(halfspaces: Sequence[HalfSpace] | PerceptronLayer, scheme: Scheme) -> PerceptronNetwork:
    """3-layer network computing the union over the selector of the
    scheme's cells: half-spaces, then AND units, then one OR unit.  A
    layer in place of the half-spaces is the first layer as it is."""
    return _network(halfspaces, scheme, True)


def build_cnf_network(halfspaces: Sequence[HalfSpace] | PerceptronLayer, scheme: Scheme) -> PerceptronNetwork:
    """Dual synthesis: OR units per pair, one AND unit over the selector,
    computing the intersection of the scheme's cocells."""
    return _network(halfspaces, scheme, False)


def _network(first: Sequence[HalfSpace] | PerceptronLayer, scheme: Scheme, conj: bool) -> PerceptronNetwork:
    """The first layer, lowered only when it is given as half-spaces, then
    the synthesized tail; the scheme is checked before the half-spaces."""
    is_layer = isinstance(first, PerceptronLayer)
    tail = _synthesize(scheme, first.output_dim if is_layer else len(first), conj)
    return PerceptronNetwork((first if is_layer else PerceptronLayer(first), *tail))


def pair_of_bits(g: int, n_bits: int) -> IndexPair:
    """Full index pair of the bit vector encoded by g (bit i-1 = bit i)."""
    return IndexPair(g, ~g & ((1 << n_bits) - 1), n_bits)


def _require_single_output(network: PerceptronNetwork) -> None:
    if not network.is_single_output:
        raise PreconditionError(f"network has {network.output_dim} outputs, expected 1")


def _accepted_indices(network: PerceptronNetwork, cap: int) -> list[int]:
    n1 = network.layers[0].output_dim
    if n1 > cap:
        raise SizeCapError(f"first layer emits {n1} bits; enumeration cap is {cap}")
    if network.depth == 1:
        return [1]
    return tail_accepted_set(network.layers[1:], n1)


def extract_scheme(
    network: PerceptronNetwork, prune: bool = False, cap: int = DEFAULT_ENUM_CAP
) -> ExtractionReport:
    """Present the network's accepted set as a union of first-layer cells.

    Every bit vector the first layer could emit is pushed through the
    remaining layers; accepted vectors become full index pairs, all
    selected.  With ``prune``, pairs whose cells no point realizes are
    dropped (membership is unchanged either way).
    """
    _require_single_output(network)
    n1 = network.layers[0].output_dim
    accepted = _accepted_indices(network, cap)
    # a full pair's zeros are the complement of its ones, so the ones alone order it
    ones = tuple(sorted(accepted, key=lex_key))
    full = (1 << n1) - 1
    zeros = tuple([full ^ g for g in ones])
    scheme = Scheme._of_columns(n1, ones, zeros, IndexSet.from_mask((1 << len(ones)) - 1, len(ones)))
    if prune:
        scheme = _pruned(network.layers[0].lowered, scheme)
    return ExtractionReport(
        scheme=scheme,
        enumerated_count=1 << n1,
        accepted_count=len(accepted),
        pruned_count=len(accepted) - scheme.q,
    )


def normalize_three_layers(
    network: PerceptronNetwork, permit_constant: bool = False, cap: int = DEFAULT_ENUM_CAP
) -> PerceptronNetwork | ConstantNetwork:
    """Equivalent 3-layer network with the identical first layer.

    A network that rejects every first-layer bit vector has no unit
    presentation; strict mode raises, permissive mode hands back a
    constant-0 sentinel.
    """
    _require_single_output(network)
    report = extract_scheme(network, prune=False, cap=cap)
    if report.accepted_count == 0:
        if permit_constant:
            return ConstantNetwork(0, network.input_dim)
        raise SchemeError("empty scheme: the network is constantly 0")
    return build_dnf_network(network.layers[0], report.scheme)


def _check_prune_ground(ambient: int, count: int) -> None:
    if ambient != count:
        raise PreconditionError(f"scheme over {_shown_int(ambient)} with {count} half-spaces")


def prune_empty_cells(halfspaces: Sequence[HalfSpace], scheme: Scheme) -> Scheme:
    """Drop selected pairs whose cells are empty; keep mute pairs as-is."""
    _check_prune_ground(scheme.ambient, len(halfspaces))
    return _pruned([_scaled_row(h.form, h.kind)[0] for h in halfspaces], scheme)


def _pruned(rows: Sequence[Row], scheme: Scheme) -> Scheme:
    """The scheme without the selected pairs whose cells over the rows are empty."""
    ones, zeros, chosen = scheme.ones_masks, scheme.zeros_masks, scheme.selector.members
    entries = [(j, ones[j - 1], zeros[j - 1]) for j in chosen]
    chosen = set(chosen)
    empty = chosen.difference(_realizable(rows, entries))
    keep = [j for j in range(1, scheme.q + 1) if j not in empty]
    selector = IndexSet.from_mask(_mask_of([k for k, j in enumerate(keep, 1) if j in chosen]), len(keep))
    kept = tuple([ones[j - 1] for j in keep]), tuple([zeros[j - 1] for j in keep])
    return Scheme._of_columns(scheme.ambient, *kept, selector)


def _random_point(rng: random.Random, dim: int) -> Point:
    return tuple(Fraction(rng.randint(-24, 24), rng.randint(1, 8)) for _ in range(dim))


def check_equivalence(
    left: PerceptronNetwork,
    right: PerceptronNetwork,
    mode: str = "exact",
    seed: int = 0,
    samples: int = 200,
    cap: int = DEFAULT_ENUM_CAP,
) -> EquivalenceResult:
    """Compare two single-output networks.

    Exact mode requires identical first layers: the tails are compared
    on every first-layer bit vector, and a disagreement only counts when
    some point actually realizes it (its cell over the shared first
    layer is nonempty); the witness point comes from that cell.  Sampled
    mode just compares forwards on a seeded batch of rational points.
    """
    _require_single_output(left)
    _require_single_output(right)
    if left.input_dim != right.input_dim:
        raise DimensionError(f"input dimensions differ: {left.input_dim} vs {right.input_dim}")
    if mode == "sampled":
        if samples < 1:
            raise PreconditionError(f"sampled mode needs a positive sample count, got {samples}")
        rng = random.Random(seed)
        for count in range(1, samples + 1):
            x = _random_point(rng, left.input_dim)
            if left.forward(x) != right.forward(x):
                return EquivalenceResult(equivalent=False, mode=mode, checked=count, counterexample_point=x)
        return EquivalenceResult(equivalent=True, mode=mode, checked=samples)
    if mode != "exact":
        raise PreconditionError(f"unknown equivalence mode {mode!r}")
    if left.layers[0] != right.layers[0]:
        message = "exact mode compares tails over a shared first layer; these first layers differ"
        raise PreconditionError(message)
    n1 = left.layers[0].output_dim
    accepted_left = set(_accepted_indices(left, cap))
    accepted_right = set(_accepted_indices(right, cap))
    rows = left.layers[0].lowered
    checked = 1 << n1
    full = (1 << n1) - 1
    differing = [(g, g, full ^ g) for g in sorted(accepted_left ^ accepted_right)]
    for g in _realizable(rows, differing):
        point = _point(_cell_rows(rows, g, full ^ g), left.input_dim, DEFAULT_CONSTRAINT_CAP)
        bits = bits_of_index(g, n1)
        return EquivalenceResult(False, mode, checked, counterexample_bits=bits, counterexample_point=point)
    return EquivalenceResult(equivalent=True, mode=mode, checked=checked)
