"""Exact emptiness decision for systems of strict and lax linear inequalities.

Variable elimination on the integer rows a layer also holds per unit
(:func:`geometry._scaled_row`): each constraint is its form times the
positive lcm of its denominators, which keeps its sign.  Each round
removes the highest remaining coordinate by combining every lower bound
with every upper bound.  A combined constraint is strict when either
parent is, which is what keeps open and closed half-spaces apart without
any perturbation.  Witness points come from back-substitution through
the recorded bounds, on integers as well: a bound at the point so far is
a numerator over a positive denominator, bounds are compared by
cross-multiplying, and :func:`_point` builds the only rationals, the
final coordinates.

Every cell's rows come from one builder, :func:`_cell_rows`: its ones
rows as they are, then the complements of its zeros rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Iterable, Iterator, Optional, Sequence

from .errors import DimensionError, PreconditionError, SizeCapError
from .geometry import HalfSpace, InequalityKind, LinearForm, Point, Row, _complement, _holds, _scaled_row
from .indexing import IndexPair, _members

__all__ = [
    "InequalitySystem",
    "is_feasible",
    "witness",
    "cell_witness",
]

DEFAULT_CONSTRAINT_CAP = 2000

Constraint = tuple[LinearForm, InequalityKind]

# bound on one variable: (strict, bias, head coefficients, pivot coefficient)
_Bound = tuple[bool, int, tuple[int, ...], int]


@dataclass(frozen=True)
class InequalitySystem:
    constraints: tuple[Constraint, ...]

    def __post_init__(self) -> None:
        dims = {form.dimension for form, _ in self.constraints}
        if len(dims) > 1:
            raise DimensionError("mixed constraint dimensions")

    @property
    def dimension(self) -> Optional[int]:
        return self.constraints[0][0].dimension if self.constraints else None

    def satisfies(self, x: Point) -> bool:
        for form, kind in self.constraints:
            value = form.evaluate(x)
            if kind is InequalityKind.LAX:
                if value < 0:
                    return False
            elif value <= 0:
                return False
        return True


def _cell_rows(rows: Sequence[Row], ones: int, zeros: int) -> list[Row]:
    """The rows of a cell: row i of each ones index i as it is, then the
    complement of row i of each zeros index i, each in ascending order."""
    return [rows[i - 1] for i in _members(ones)] + [_complement(rows[i - 1]) for i in _members(zeros)]


def _pair_rows(halfspaces: Sequence[HalfSpace], pair: IndexPair) -> tuple[list[Row], int]:
    """The rows of the pair's cell over the half-spaces, and their one
    dimension; the empty pair's is the first half-space's."""
    if pair.ambient != len(halfspaces):
        raise PreconditionError(f"pair over {pair.ambient} half-spaces applied to {len(halfspaces)}")
    if (pair.ones_mask | pair.zeros_mask) >> pair.ambient:
        raise PreconditionError(f"pair names an index outside 1..{pair.ambient}")
    rows = _cell_rows([_scaled_row(h.form, h.kind)[0] for h in halfspaces], pair.ones_mask, pair.zeros_mask)
    dims = {len(coeffs) for _, _, coeffs in rows} or {h.dimension for h in halfspaces[:1]}
    if len(dims) > 1:
        raise DimensionError("mixed constraint dimensions")
    return rows, dims.pop() if dims else 0


def _violated_constant(strict: bool, bias: int) -> bool:
    return bias < 0 or (strict and bias == 0)


def _dedup(rows: list[Row]) -> list[Row]:
    """Keep only the tightest constraint per direction, in first-seen order.

    Rows are keyed by their primitive direction ``coeffs // g``, with g
    the gcd of the coefficients; among rows with one key, a smaller
    ``bias / g`` is tighter, and strict beats lax at the same value.
    """
    best: dict[tuple[int, ...], tuple[int, Row]] = {}
    for row in rows:
        strict, bias, coeffs = row
        # constants are handled by the caller; they share the zero key
        g = math.gcd(*coeffs) or 1
        key = tuple(c // g for c in coeffs)
        kept = best.get(key)
        if kept is not None:
            g_kept, (strict_kept, bias_kept, _) = kept
            lhs, rhs = bias * g_kept, bias_kept * g
            if not (lhs < rhs or (lhs == rhs and strict and not strict_kept)):
                continue
        best[key] = (g, row)
    return [row for _, row in best.values()]


def _eliminate(
    rows: list[Row], dimension: int, cap: int
) -> tuple[bool, list[tuple[list[_Bound], list[_Bound]]]]:
    """Run elimination from the last coordinate down to the first.

    Returns feasibility plus, per eliminated coordinate, the lower and
    upper bounds it was subject to (each over the remaining prefix).
    """
    stages: list[tuple[list[_Bound], list[_Bound]]] = []
    current = rows
    for d in range(dimension, 0, -1):
        lowers: list[_Bound] = []
        uppers: list[_Bound] = []
        passthrough: list[Row] = []
        for strict, bias, coeffs in current:
            pivot = coeffs[d - 1]
            head = coeffs[: d - 1]
            if pivot > 0:
                lowers.append((strict, bias, head, pivot))
            elif pivot < 0:
                uppers.append((strict, bias, head, pivot))
            elif any(head):
                passthrough.append((strict, bias, head))
            elif _violated_constant(strict, bias):
                return False, stages
        stages.append((lowers, uppers))
        combined = passthrough
        for s_lo, b_lo, h_lo, c_lo in lowers:
            for s_up, b_up, h_up, c_up in uppers:
                # positive combination cancelling the pivot: c_lo > 0 > c_up
                g = math.gcd(c_lo, c_up)
                m_up, m_lo = c_lo // g, -c_up // g
                combined.append(
                    (
                        s_lo or s_up,
                        m_up * b_up + m_lo * b_lo,
                        tuple(
                            m_up * h_up[t] + m_lo * h_lo[t] for t in range(d - 1)
                        ),
                    )
                )
        current = _dedup(combined)
        if len(current) > cap:
            raise SizeCapError(
                f"elimination produced {len(current)} constraints (cap {cap})"
            )
    for strict, bias, _ in current:
        if _violated_constant(strict, bias):
            return False, stages
    return True, stages


def _rows(constraints: Iterable[Constraint]) -> list[Row]:
    return [_scaled_row(form, kind)[0] for form, kind in constraints]


def is_feasible(system: InequalitySystem, cap: int = DEFAULT_CONSTRAINT_CAP) -> bool:
    dimension = system.dimension
    return dimension is None or _eliminate(_rows(system.constraints), dimension, cap)[0]


def _tightest(bounds: list[_Bound], den: int, coords: list[int]) -> Optional[tuple[int, int, bool]]:
    """The tightest of the bounds at ``coords / den`` as ``(num, q, strict)``, or None.

    Bound ``(strict, bias, head, pivot)`` gives ``num = -(bias*den + head·coords)``
    and ``q = |pivot|*den > 0``: a lower bound at ``num / q``, an upper one at
    ``-num / q``, so the tightest has the largest ``num / q`` either way, found
    by cross-multiplying.  ``strict`` says whether a strict bound attains it.
    """
    best = None
    for strict, bias, head, pivot in bounds:
        num, q = -(bias * den + sum(map(mul, head, coords))), abs(pivot) * den
        if best is None or num * best[1] > best[0] * q:
            best = num, q, strict
        elif strict and num * best[1] == best[0] * q:
            best = num, q, True
    return best


def _solve(rows: list[Row], dimension: int, cap: int) -> Optional[tuple[int, list[int]]]:
    """A point of the rows as a positive common denominator and integer
    coordinates, or None when there is none."""
    feasible, stages = _eliminate(rows, dimension, cap)
    if not feasible:
        return None
    den, coords = 1, []
    for lowers, uppers in reversed(stages):
        lo, hi = _tightest(lowers, den, coords), _tightest(uppers, den, coords)
        if lo is not None and hi is not None:
            (ln, ld, _), (hn, hd, _) = lo, hi
            # elimination already rejected a strict boundary clash at lo == hi
            num, q = (ln, ld) if ln * hd == -hn * ld else (ln * hd - hn * ld, 2 * ld * hd)
        elif lo is not None:
            ln, q, strict = lo
            num = ln + q if strict else ln
        elif hi is not None:
            hn, q, strict = hi
            num = -hn - q if strict else -hn
        else:
            num, q = 0, 1
        g = math.gcd(num, q)
        num, q = num // g, q // g
        scale = q // math.gcd(den, q)
        den, coords = den * scale, [c * scale for c in coords]
        coords.append(num * (den // q))
    return den, coords


def _point(rows: list[Row], dimension: int, cap: int) -> Optional[Point]:
    """A rational point of ``dimension`` coordinates satisfying every row, or None."""
    point = _solve(rows, dimension, cap)
    if point is None:
        return None
    den, coords = point
    assert all(_holds(row, den, coords) for row in rows)
    return tuple(Fraction(c, den) for c in coords)


def witness(
    system: InequalitySystem,
    cap: int = DEFAULT_CONSTRAINT_CAP,
    dim: Optional[int] = None,
) -> Optional[Point]:
    """A rational point satisfying every constraint, or None.

    For an empty system the ambient dimension cannot be inferred, so it
    may be supplied; otherwise the empty point is returned.
    """
    return _point(_rows(system.constraints), system.dimension or dim or 0, cap)


def cell_witness(
    halfspaces: Sequence[HalfSpace],
    pair: IndexPair,
    cap: int = DEFAULT_CONSTRAINT_CAP,
) -> Optional[Point]:
    return _point(*_pair_rows(halfspaces, pair), cap)


def _realizable(rows: Sequence[Row], pairs: Sequence[tuple[int, int, int]]) -> Iterator[int]:
    """Yield the keys of the ``(key, ones, zeros)`` mask triples with nonempty cells.

    One depth-first walk splits a group on the highest half-space its pairs
    mention: pairs that skip it, complement it, take it, in that order.  A
    child keeps its group's prefix point if it holds there; an empty child
    cuts its pairs.  A lone pair, or each pair of a group whose prefix
    meets the cap, takes one elimination of its own cell.  Among full
    pairs in ascending order, the first key yielded is the smallest
    realizable one.
    """
    dims = [len(coeffs) for _, _, coeffs in rows]
    spans = [sum(1 << i for i, dim in enumerate(dims) if dim == d) for d in set(dims)]
    if len(spans) > 1 and any(sum(bool((o | z) & span) for span in spans) > 1 for _, o, z in pairs):
        raise DimensionError("mixed constraint dimensions")
    # (1, ()) is the origin in any dimension; a pair taking a half-space both ways is empty
    stack = [([], (1, ()), [], [entry for entry in pairs if not entry[1] & entry[2]])]
    while stack:
        system, point, extra, group = stack.pop()
        if len(group) == 1:
            key, ones, zeros = group[0]
            pending = extra + _cell_rows(rows, ones, zeros)
            held = all(_holds(row, *point) for row in pending)
            if held or _eliminate(system + pending, len(pending[0][2]), DEFAULT_CONSTRAINT_CAP)[0]:
                yield key
            continue
        if not all(_holds(row, *point) for row in extra):
            try:
                point = _solve(system + extra, len(extra[0][2]), DEFAULT_CONSTRAINT_CAP)
            except SizeCapError:  # a full cell may end on a contradiction before the cap
                stack += [(system, point, extra, [entry]) for entry in reversed(group)]
                continue
            if point is None:
                continue
        system = system + extra
        yield from (key for key, ones, zeros in group if not ones | zeros)
        rest = [entry for entry in group if entry[1] | entry[2]]
        if rest:
            i = max(ones | zeros for _, ones, zeros in rest).bit_length() - 1
            bit = 1 << i
            children = (
                (_cell_rows(rows, bit, 0), [(k, o ^ bit, z) for k, o, z in rest if o & bit]),
                (_cell_rows(rows, 0, bit), [(k, o, z ^ bit) for k, o, z in rest if z & bit]),
                ([], [(k, o, z) for k, o, z in rest if not (o | z) & bit]),
            )
            stack += [(system, point, extra, child) for extra, child in children if child]
