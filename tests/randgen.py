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
from itertools import compress
from operator import mul
from typing import Callable, Optional, Sequence

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
    SizeCapError,
    conj_form,
    disj_form,
    format_rational,
    is_feasible,
)
from polyperc.feasibility import DEFAULT_CONSTRAINT_CAP, _eliminate
from polyperc.forms import _unit_form
from polyperc.geometry import _RATIONAL, MAX_DIGITS, _count, _digit_count, _rows, _shown, _shown_int
from polyperc.indexing import (
    MAX_AMBIENT,
    MAX_SCHEME_BITS,
    _PAIR_LINE,
    _checked,
    _mask_of,
    check_ground,
    lex_key,
)


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


def lex_order(n: int) -> list[int]:
    """Every mask below ``1 << n`` in ``lex_key`` order: over indices k..n,
    the empty set, then k joined to each set over k+1..n, then the
    nonempty sets over k+1..n."""
    order = [0]
    for i in reversed(range(n)):
        order = [0, *[1 << i | mask for mask in order], *order[1:]]
    return order


def lex_ordered(accepted, n1: int) -> tuple[int, ...]:
    """Oracle for extraction's pair order, the table it replaced: the
    accepted masks below ``1 << n1``, kept from :func:`lex_order` through
    a bytearray of flags."""
    flags = bytearray(1 << n1)
    for g in accepted:
        flags[g] = 1
    order = lex_order(n1)
    return tuple(compress(order, map(flags.__getitem__, order)))


def count_members(text: str, ambient: int, lineno: int) -> tuple[int, ...]:
    """Oracle for ``indexing._parse_members``, the reader it replaced: every
    item of an index list through ``_count``, with no ``int`` route."""
    members = () if text == "-" else tuple(map(_count, text.split(",")))
    if None in members:
        raise ParseError(f"bad index list {_shown(text)}", lineno)
    try:
        return _checked(members, ambient)
    except ValueError as exc:
        raise ParseError(f"bad index list {_shown(text)}: {exc}", lineno) from exc


def line_by_line_scheme_lines(
    lines: list[str],
    first_lineno: int = 1,
    check_ambient: Callable[[int], None] | None = None,
) -> Scheme:
    """The line-by-line scheme reader that ``indexing.parse_scheme_lines``
    used before it read exact blocks a chunk at a time, kept verbatim but
    for its index lists, read by :func:`count_members`, as the oracle of
    that reader: the same values, errors and line numbers.

    Parse the scheme block format: ``N=``, then ``G<k>:`` lines, then ``J=``.

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
            selector = count_members(line[2:], len(texts), lineno)
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
                members[text] = count_members(text, ambient, lineno)
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


def fraction_tightest(bounds, den: int, coords: list[int], pick) -> tuple:
    """Oracle for ``feasibility._tightest``, the back-substitution step it
    replaced: ``pick`` of the bounds at ``coords / den`` as ``Fraction``s,
    or None, and whether a strict one attains it."""
    values = [
        (Fraction(-(bias * den + sum(map(mul, head, coords))), pivot * den), strict)
        for strict, bias, head, pivot in bounds
    ]
    best = pick((value for value, _ in values), default=None)
    return best, any(strict for value, strict in values if value == best)


def fraction_solve(rows, dimension: int, cap: int) -> Optional[tuple[int, list[int]]]:
    """Oracle for ``feasibility._solve``: the same elimination, then
    back-substitution on ``Fraction``s, one per candidate bound and per
    coordinate.  A point of the rows as a positive common denominator and
    integer coordinates, or None when there is none."""
    feasible, stages = _eliminate(rows, dimension, cap)
    if not feasible:
        return None
    den, coords = 1, []
    for lowers, uppers in reversed(stages):
        lo, lo_strict = fraction_tightest(lowers, den, coords, max)
        hi, hi_strict = fraction_tightest(uppers, den, coords, min)
        if lo is not None and hi is not None:
            # elimination already rejected a strict boundary clash at lo == hi
            coordinate = lo if lo == hi else (lo + hi) / 2
        elif lo is not None:
            coordinate = lo + 1 if lo_strict else lo
        elif hi is not None:
            coordinate = hi - 1 if hi_strict else hi
        else:
            coordinate = Fraction(0)
        scale = coordinate.denominator // math.gcd(den, coordinate.denominator)
        den, coords = den * scale, [c * scale for c in coords]
        coords.append(coordinate.numerator * (den // coordinate.denominator))
    return den, coords


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


def halfspace_text(halfspace: HalfSpace) -> str:
    """Oracle for ``geometry.format_halfspace``: ``format_rational`` of
    each Fraction coefficient, then the operator."""
    form = halfspace.form
    return " ".join([*map(format_rational, (form.bias, *form.weights)), halfspace.kind.value])


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


def doubled_sums(start: int, weights: Sequence[int]) -> list[int]:
    """``start`` plus the sum of weights[j] over the set bits j of each
    index, for every index in [0, 2^len(weights))."""
    sums = [start]
    for w in weights:
        sums += [s + w for s in sums]
    return sums


def doubling_accepted_set(
    tail_layers: Sequence[PerceptronLayer], n_bits: int
) -> list[int]:
    """Oracle for ``network.tail_accepted_set``, the kernel it replaced:
    ascending indices of the bit vectors the tail maps to 1.

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
    try:
        codes = [0] * (1 << n_bits)
    except (OverflowError, MemoryError):
        raise SizeCapError(f"a table of 2^{n_bits} first-layer bit vectors cannot be built") from None
    for u, (strict, bias, row) in enumerate(tail_layers[0].lowered):
        # a lax unit starts 1 higher, which turns ">= 0" into "> 0" on integers
        vals = doubled_sums(bias + (not strict), row[:low])
        top = max(vals)
        bit = 1 << u
        for h, off in enumerate(doubled_sums(0, row[low:])):
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
