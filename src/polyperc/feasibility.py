"""Exact emptiness decision for systems of strict and lax linear inequalities.

Variable elimination on integer rows: each constraint enters as its form
times the positive lcm of its denominators (:meth:`LinearForm.lowered`),
which keeps its sign.  Each round removes the highest remaining
coordinate by combining every lower bound with every upper bound.  A
combined constraint is strict when either parent is, which is what keeps
open and closed half-spaces apart without any perturbation.  Witness
points come from back-substitution through the recorded bounds, the only
step that divides.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .errors import DimensionError, PreconditionError, SizeCapError
from .geometry import HalfSpace, InequalityKind, LinearForm, Point
from .indexing import IndexPair

DEFAULT_CONSTRAINT_CAP = 2000

Constraint = tuple[LinearForm, InequalityKind]

# internal triple: (strict, bias, coefficient tuple), all integers
_Triple = tuple[bool, int, tuple[int, ...]]
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


def system_of_cell(
    halfspaces: Sequence[HalfSpace], pair: IndexPair
) -> InequalitySystem:
    """Constraints of the cell: ones half-spaces as-is, zeros complemented."""
    if pair.ambient != len(halfspaces):
        raise PreconditionError(
            f"pair over {pair.ambient} half-spaces applied to {len(halfspaces)}"
        )
    chosen = [halfspaces[i - 1] for i in pair.ones]
    chosen += [halfspaces[i - 1].complement() for i in pair.zeros]
    return InequalitySystem(tuple((h.form, h.kind) for h in chosen))


def _violated_constant(strict: bool, bias: int) -> bool:
    return bias < 0 or (strict and bias == 0)


def _dedup(triples: list[_Triple]) -> list[_Triple]:
    """Keep only the tightest constraint per direction, in first-seen order.

    Rows are keyed by their primitive direction ``coeffs // g``, with g
    the gcd of the coefficients; among rows with one key, a smaller
    ``bias / g`` is tighter, and strict beats lax at the same value.
    """
    best: dict[tuple[int, ...], tuple[int, _Triple]] = {}
    for triple in triples:
        strict, bias, coeffs = triple
        # constants are handled by the caller; they share the zero key
        g = math.gcd(*coeffs) or 1
        key = tuple(c // g for c in coeffs)
        kept = best.get(key)
        if kept is not None:
            g_kept, (strict_kept, bias_kept, _) = kept
            lhs, rhs = bias * g_kept, bias_kept * g
            if not (lhs < rhs or (lhs == rhs and strict and not strict_kept)):
                continue
        best[key] = (g, triple)
    return [triple for _, triple in best.values()]


def _eliminate(
    triples: list[_Triple], dimension: int, cap: int
) -> tuple[bool, list[tuple[list[_Bound], list[_Bound]]]]:
    """Run elimination from the last coordinate down to the first.

    Returns feasibility plus, per eliminated coordinate, the lower and
    upper bounds it was subject to (each over the remaining prefix).
    """
    stages: list[tuple[list[_Bound], list[_Bound]]] = []
    current = triples
    for d in range(dimension, 0, -1):
        live = []
        for strict, bias, coeffs in current:
            if any(coeffs):
                live.append((strict, bias, coeffs))
            elif _violated_constant(strict, bias):
                return False, stages
        lowers: list[_Bound] = []
        uppers: list[_Bound] = []
        passthrough: list[_Triple] = []
        for strict, bias, coeffs in live:
            pivot = coeffs[d - 1]
            head = coeffs[: d - 1]
            if pivot > 0:
                lowers.append((strict, bias, head, pivot))
            elif pivot < 0:
                uppers.append((strict, bias, head, pivot))
            else:
                passthrough.append((strict, bias, head))
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


def _triples_of(system: InequalitySystem) -> list[_Triple]:
    return [
        (kind is InequalityKind.STRICT, *form.lowered())
        for form, kind in system.constraints
    ]


def is_feasible(system: InequalitySystem, cap: int = DEFAULT_CONSTRAINT_CAP) -> bool:
    if system.dimension is None:
        return True
    feasible, _ = _eliminate(_triples_of(system), system.dimension, cap)
    return feasible


def _bound_value(bound: _Bound, point: list[Fraction]) -> Fraction:
    _, bias, head, pivot = bound
    # a Fraction start keeps the quotient exact for an empty prefix point
    rest = sum((w * p for w, p in zip(head, point) if w), Fraction(bias))
    return -rest / pivot


def witness(
    system: InequalitySystem,
    cap: int = DEFAULT_CONSTRAINT_CAP,
    dim: Optional[int] = None,
) -> Optional[Point]:
    """A rational point satisfying every constraint, or None.

    For an empty system the ambient dimension cannot be inferred, so it
    may be supplied; otherwise the empty point is returned.
    """
    dimension = system.dimension
    if dimension is None:
        return tuple(Fraction(0) for _ in range(dim)) if dim else ()
    feasible, stages = _eliminate(_triples_of(system), dimension, cap)
    if not feasible:
        return None
    point: list[Fraction] = []
    for t in range(dimension - 1, -1, -1):
        lowers, uppers = stages[t]
        lo = hi = None
        lo_strict = hi_strict = False
        for bound in lowers:
            value = _bound_value(bound, point)
            if lo is None or value > lo:
                lo, lo_strict = value, bound[0]
            elif value == lo:
                lo_strict = lo_strict or bound[0]
        for bound in uppers:
            value = _bound_value(bound, point)
            if hi is None or value < hi:
                hi, hi_strict = value, bound[0]
            elif value == hi:
                hi_strict = hi_strict or bound[0]
        if lo is not None and hi is not None:
            if lo == hi:
                # elimination already rejected a strict boundary clash
                coordinate = lo
            else:
                coordinate = (lo + hi) / 2
        elif lo is not None:
            coordinate = lo + 1 if lo_strict else lo
        elif hi is not None:
            coordinate = hi - 1 if hi_strict else hi
        else:
            coordinate = Fraction(0)
        point.append(coordinate)
    result = tuple(point)
    assert system.satisfies(result)
    return result


def cell_is_empty(
    halfspaces: Sequence[HalfSpace],
    pair: IndexPair,
    cap: int = DEFAULT_CONSTRAINT_CAP,
) -> bool:
    return not is_feasible(system_of_cell(halfspaces, pair), cap)


def cell_witness(
    halfspaces: Sequence[HalfSpace],
    pair: IndexPair,
    cap: int = DEFAULT_CONSTRAINT_CAP,
) -> Optional[Point]:
    dim = halfspaces[0].form.dimension if halfspaces else None
    return witness(system_of_cell(halfspaces, pair), cap, dim=dim)
