"""Seeded generators shared by the unit and acceptance tests, and the
exhaustive unit truth-table sweep that checks their rows.

Everything takes an explicit random.Random so failures reproduce; the
sizes default to the scales the acceptance criteria use.
"""

from __future__ import annotations

import itertools
import math
import random
from decimal import Decimal
from fractions import Fraction

from polyperc import (
    ConstantFormError,
    HalfSpace,
    IndexPair,
    IndexSet,
    InequalityKind,
    InequalitySystem,
    LinearForm,
    ParseError,
    PerceptronLayer,
    PerceptronNetwork,
    PreconditionError,
    Scheme,
    SchemeError,
    conj_form,
    disj_form,
    is_feasible,
)
from polyperc.feasibility import DEFAULT_CONSTRAINT_CAP
from polyperc.forms import _unit_form
from polyperc.geometry import _RATIONAL, MAX_DIGITS, _digit_count, _shown
from polyperc.indexing import check_ground, lex_key


def rational(rng: random.Random, span: int = 12, max_den: int = 6) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.randint(1, max_den))


def point(rng: random.Random, dim: int, span: int = 24, max_den: int = 8):
    return tuple(rational(rng, span, max_den) for _ in range(dim))


def padded(rng: random.Random, text: str) -> str:
    """The lines of ``text`` with spaces and tabs around each one and
    whitespace-only lines inserted anywhere, before the first line and
    after the last too."""

    def blank() -> str:
        return "".join(rng.choice(" \t") for _ in range(rng.randint(0, 3)))

    out = []
    for line in text.splitlines() + [None]:
        while rng.random() < 0.3:
            out.append(blank())
        if line is not None:
            out.append(blank() + line + blank())
    return "\n".join(out) + "\n"


def grid(dim: int, values=None):
    """Small deterministic grid; 5^dim points by default."""
    if values is None:
        values = (Fraction(-2), Fraction(-1), Fraction(0), Fraction(1, 2), Fraction(1))
    return [tuple(c) for c in itertools.product(values, repeat=dim)]


def halfspace(rng: random.Random, dim: int, span: int = 4) -> HalfSpace:
    while True:
        weights = [Fraction(rng.randint(-span, span)) for _ in range(dim)]
        if any(weights):
            break
    bias = rational(rng, 2 * span, 4)
    kind = InequalityKind.LAX if rng.random() < 0.5 else InequalityKind.STRICT
    return HalfSpace(LinearForm(bias, tuple(weights)), kind)


def halfspaces(rng: random.Random, count: int, dim: int) -> tuple[HalfSpace, ...]:
    return tuple(halfspace(rng, dim) for _ in range(count))


def consistent_pair(
    rng: random.Random, ambient: int, max_literals: int | None = None
) -> IndexPair:
    """Nonempty pair with disjoint components."""
    limit = max_literals or ambient
    while True:
        ones, zeros = [], []
        for i in range(1, ambient + 1):
            slot = rng.randint(0, 2)
            if slot == 1:
                ones.append(i)
            elif slot == 2:
                zeros.append(i)
        if not ones and not zeros:
            continue
        if len(ones) + len(zeros) > limit:
            continue
        return IndexPair.of(ones, zeros, ambient)


def sweep_row(pair: IndexPair, is_conj: bool) -> tuple[int, int, int, int, int, int]:
    """Kernel row for the exhaustive unit sweep.

    The doubled bias and the two weight-sign masks come from the library
    form object; the last two masks come from the raw pair, so the sweep
    cross-checks the form against an independent boolean route.
    """
    form = conj_form(pair) if is_conj else disj_form(pair)
    doubled = form.bias * 2
    assert doubled.denominator == 1  # unit biases are half-integers
    m1 = m0 = 0
    for i, w in enumerate(form.weights):
        if w > 0:
            m1 |= 1 << i
        elif w < 0:
            m0 |= 1 << i
    p1 = sum(1 << (i - 1) for i in pair.ones.members)
    p0 = sum(1 << (i - 1) for i in pair.zeros.members)
    return (int(doubled), m1, m0, p1, p0, 1 if is_conj else 0)


def sweep_unit_tables(
    n: int, rows: list[tuple[int, int, int, int, int, int]]
) -> tuple[int, int, int, int]:
    """Exhaustive truth-table check of unit forms against boolean masks.

    Each row is (bias2, m1, m0, p1, p0, is_conj): bias2/m1/m0 describe the
    doubled linear form (value 2f(b) = bias2 + 2(|b&m1| - |b&m0|)), while
    p1/p0 are the raw index masks for the independent boolean route.
    Checks, per b: unit bit equals the boolean bit, the value is an odd
    integer (a half-integer form value), and the match/miss dichotomy
    (+1 vs <= -1 for AND rows, >= +1 vs -1 for OR rows).
    Returns (checks, failures, first_bad_row, first_bad_b).
    """
    total = 1 << n
    checks = 0
    failures = 0
    first_row = -1
    first_b = -1
    for r, (bias2, m1, m0, p1, p0, is_conj) in enumerate(rows):
        for b in range(total):
            v2 = bias2 + 2 * ((b & m1).bit_count() - (b & m0).bit_count())
            unit_bit = v2 >= 0
            if is_conj:
                bool_bit = (b & p1) == p1 and (b & p0) == 0
                ok = unit_bit == bool_bit and (v2 == 1 if bool_bit else v2 <= -1)
            else:
                bool_bit = (b & p1) != 0 or (b & p0) != p0
                ok = unit_bit == bool_bit and (v2 >= 1 if bool_bit else v2 == -1)
            if ok and not v2 & 1:
                ok = False
            checks += 1
            if not ok:
                failures += 1
                if first_row < 0:
                    first_row = r
                    first_b = b
    return checks, failures, first_row, first_b


def scheme(
    rng: random.Random,
    ambient: int,
    max_pairs: int = 8,
    max_literals: int | None = None,
) -> Scheme:
    """Scheme with consistent nonempty pairs and a nonempty selector."""
    q = rng.randint(1, max_pairs)
    pairs = tuple(consistent_pair(rng, ambient, max_literals) for _ in range(q))
    selected = [j for j in range(1, q + 1) if rng.random() < 0.7]
    if not selected:
        selected = [rng.randint(1, q)]
    return Scheme(ambient, pairs, IndexSet.of(selected, q))


def network(
    rng: random.Random,
    input_dim: int,
    max_depth: int = 4,
    max_width: int = 8,
) -> PerceptronNetwork:
    """Random single-output network; weights are small integers, biases
    small rationals, and both inequality kinds appear."""
    depth = rng.randint(1, max_depth)
    widths = [rng.randint(1, max_width) for _ in range(depth - 1)] + [1]
    layers = []
    fan_in = input_dim
    for width in widths:
        layers.append(PerceptronLayer(tuple(halfspace(rng, fan_in) for _ in range(width))))
        fan_in = width
    return PerceptronNetwork(tuple(layers))


def nonconstant_network(
    rng: random.Random,
    input_dim: int,
    max_depth: int = 4,
    max_width: int = 8,
) -> PerceptronNetwork:
    """Network whose tail accepts at least one first-layer bit vector, so
    a 3-layer presentation exists."""
    from polyperc import extract_scheme

    while True:
        candidate = network(rng, input_dim, max_depth, max_width)
        if extract_scheme(candidate).accepted_count > 0:
            return candidate


def synthesize(halfspaces, scheme: Scheme, conj: bool) -> PerceptronNetwork:
    """Oracle for the library's synthesis, which writes rows from the
    masks: each AND unit (``conj``) or OR unit built as a Fraction form
    and a lax ``HalfSpace``, with the same errors in the same order."""
    check_ground(scheme.ambient, len(halfspaces))
    if scheme.selector.is_empty:
        raise SchemeError("empty selector")
    units = []
    for k, (ones, zeros) in enumerate(zip(scheme.ones_masks, scheme.zeros_masks), 1):
        if not ones | zeros:
            raise SchemeError(f"pair G{k} is empty and has no unit form")
        if ones & zeros:
            raise SchemeError(f"pair G{k} is inconsistent")
        units.append(HalfSpace(_unit_form(ones, zeros, scheme.ambient, conj), InequalityKind.LAX))
    selector = HalfSpace(_unit_form(scheme.selector.mask, 0, scheme.q, not conj), InequalityKind.LAX)
    return PerceptronNetwork(tuple(map(PerceptronLayer, (halfspaces, units, (selector,)))))


def distribute_pairs(clauses) -> set[tuple[int, int]]:
    """Oracle for the library's distribution on pair keys: the same
    clause-by-clause merge on ``(ones, zeros)`` mask tuples, dropping a
    merge that needs an index both plain and complemented."""
    partial = {(0, 0)}
    for clause_ones, clause_zeros in clauses:
        plain = [1 << i - 1 for i in IndexSet.from_mask(clause_ones, clause_ones.bit_length())]
        complemented = [1 << i - 1 for i in IndexSet.from_mask(clause_zeros, clause_zeros.bit_length())]
        partial = {
            (ones | bit, zeros) for ones, zeros in partial for bit in plain if not zeros & bit
        } | {
            (ones, zeros | bit) for ones, zeros in partial for bit in complemented if not ones & bit
        }
        if not partial:
            break
    return partial


def sorted_pairs(ambient: int, masks, selected) -> Scheme:
    """Oracle for the library's pair sort on keys: the scheme of the
    distinct ``(ones, zeros)`` mask tuples in pair order, through the
    public constructors, selecting those in ``selected``."""
    masks = set(masks)
    distinct = sorted(set().union(*masks), key=lex_key)
    rank = {mask: r for r, mask in enumerate(distinct)}
    width = len(distinct)
    keys = sorted([rank[ones] * width + rank[zeros] for ones, zeros in masks])
    picked = {rank[ones] * width + rank[zeros] for ones, zeros in selected}
    pairs = [IndexPair(distinct[k // width], distinct[k % width], ambient) for k in keys]
    chosen = [j for j, key in enumerate(keys, 1) if key in picked]
    return Scheme(ambient, pairs, IndexSet(chosen, len(keys)))


def system_of_cell(halfspaces, pair: IndexPair) -> InequalitySystem:
    """Oracle for the library's cell rows: the pair's ones half-spaces as
    they are, then its zeros half-spaces complemented as ``HalfSpace``s,
    each in ascending index order, as a Fraction ``InequalitySystem``."""
    if pair.ambient != len(halfspaces):
        raise PreconditionError(f"pair over {pair.ambient} half-spaces applied to {len(halfspaces)}")
    if (pair.ones_mask | pair.zeros_mask) >> pair.ambient:
        raise PreconditionError(f"pair names an index outside 1..{pair.ambient}")
    chosen = [halfspaces[i - 1] for i in pair.ones]
    chosen += [halfspaces[i - 1].complement() for i in pair.zeros]
    return InequalitySystem(tuple((h.form, h.kind) for h in chosen))


def cell_is_empty(halfspaces, pair: IndexPair, cap: int = DEFAULT_CONSTRAINT_CAP) -> bool:
    """Oracle for the realizable-cell search: one elimination of the
    pair's Fraction system."""
    return not is_feasible(system_of_cell(halfspaces, pair), cap)


def rational_token(text: str) -> Fraction:
    """Oracle for the reader's token conversion: the grammar of
    ``geometry._RATIONAL``, then ``Fraction(Decimal(...))`` of the match."""
    if (len(text) > MAX_DIGITS or "e" in text or "E" in text) and _digit_count(text) > MAX_DIGITS:
        raise ParseError(f"rational with more than {MAX_DIGITS} digits")
    match = _RATIONAL.fullmatch(text)
    if match is not None:
        if match["decimal"] is not None:
            return Fraction(Decimal(match["decimal"]))
        if match["den"].strip("0"):
            return Fraction(int(Decimal(match["num"])), int(Decimal(match["den"])))
    raise ParseError(f"bad rational {_shown(text)}")


def halfspace_row(line: str, lineno: int | None = None):
    """Oracle for ``geometry._parse_row``: every token through
    :func:`rational_token`, the Fraction half-space of them, then its row
    (each coefficient times the lcm of the denominators) and that lcm."""
    tokens = line.split()
    if len(tokens) < 3:
        raise ParseError("half-space line needs a bias, at least one weight and an operator", lineno)
    kinds = {kind.value: kind for kind in InequalityKind}
    if tokens[-1] not in kinds:
        raise ParseError(f"unknown inequality operator {_shown(tokens[-1])}", lineno)
    try:
        bias, *weights = [rational_token(token) for token in tokens[:-1]]
        unit = HalfSpace(LinearForm(bias, tuple(weights)), kinds[tokens[-1]])
    except ParseError as exc:
        raise ParseError(exc.message, lineno) from exc
    except ConstantFormError as exc:
        raise ParseError(str(exc), lineno) from exc
    scale = math.lcm(*(c.denominator for c in (bias, *weights)))
    row = (unit.kind is InequalityKind.STRICT, (bias * scale).numerator, tuple((w * scale).numerator for w in weights))
    return row, scale


def halfspace_presentation(i: int, n: int, complementary: bool = False) -> Scheme:
    """Scheme presenting the i-th of n half-spaces (or its complement) as
    a single-cell DNF polyhedron."""
    if not 1 <= i <= n:
        raise PreconditionError(f"index {i} out of range 1..{n}")
    pair = IndexPair.of((), (i,), n) if complementary else IndexPair.of((i,), (), n)
    return Scheme(n, (pair,), IndexSet.of((1,), 1))


def architecture(network: PerceptronNetwork) -> tuple[int, ...]:
    """Input dimension followed by every layer's output dimension."""
    return (network.input_dim,) + tuple(layer.output_dim for layer in network.layers)
