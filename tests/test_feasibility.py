import hashlib
import random
from fractions import Fraction

import hypothesis
import hypothesis.strategies as strat
import pytest

from polyperc import (
    DimensionError,
    IndexPair,
    InequalityKind,
    InequalitySystem,
    LinearForm,
    PreconditionError,
    SizeCapError,
    cell_contains,
    cell_witness,
    is_feasible,
    parse_halfspace,
    witness,
)
from polyperc.feasibility import _cell_rows, _solve
from polyperc.geometry import _holds, _scaled_row

import randgen


def constraint(line):
    h = parse_halfspace(line)
    return (h.form, h.kind)


def system(*lines):
    return InequalitySystem(tuple(constraint(s) for s in lines))


def test_golden_feasible_lax_boundary():
    # x >= 0 and -x >= 0 pin x = 0, still feasible
    s = system("0 1 >=", "0 -1 >=")
    assert is_feasible(s)
    w = witness(s)
    assert w == (Fraction(0),)


def test_golden_infeasible_strict_boundary():
    assert not is_feasible(system("0 1 >", "0 -1 >"))
    assert witness(system("0 1 >", "0 -1 >")) is None


def test_golden_infeasible_gap():
    # x >= 0, 1 - x >= 0, x - 1 > 0 has no solution
    assert not is_feasible(system("0 1 >=", "1 -1 >=", "-1 1 >"))


def of_halfspaces(hs):
    return InequalitySystem(tuple((h.form, h.kind) for h in hs))


def test_witness_satisfies_random_systems():
    rng = random.Random(11)
    feasible = 0
    for _ in range(200):
        m = rng.randint(1, 3)
        s = of_halfspaces(randgen.halfspaces(rng, rng.randint(1, 5), m))
        w = witness(s)
        if w is not None:
            feasible += 1
            assert s.satisfies(w)
            assert len(w) == m
    assert feasible > 20  # the generator is not degenerate


def test_feasible_iff_some_sample_hits_1d():
    # dense rational sampling cannot prove infeasibility, but any hit
    # must be matched by is_feasible
    rng = random.Random(23)
    samples = [Fraction(i, 4) for i in range(-40, 41)]
    for _ in range(100):
        s = of_halfspaces(randgen.halfspaces(rng, rng.randint(1, 4), 1))
        hit = any(s.satisfies((x,)) for x in samples)
        if hit:
            assert is_feasible(s)
        if not is_feasible(s):
            assert not hit


def test_monotone_under_added_constraints():
    rng = random.Random(31)
    for _ in range(60):
        m = rng.randint(1, 2)
        hs = randgen.halfspaces(rng, rng.randint(2, 5), m)
        if is_feasible(of_halfspaces(hs)):
            continue
        # supersets of an infeasible system stay infeasible
        assert not is_feasible(of_halfspaces(hs + randgen.halfspaces(rng, 2, m)))


def test_empty_system_is_feasible():
    s = InequalitySystem(())
    assert is_feasible(s)
    assert witness(s, dim=3) == (Fraction(0),) * 3


def test_mixed_dimensions_rejected():
    with pytest.raises(DimensionError):
        InequalitySystem((constraint("0 1 >="), constraint("0 1 1 >=")))


def test_system_of_cell_golden():
    # the tests' Fraction oracle for a cell's rows
    hs = (parse_halfspace("0 1 >="),)
    s = randgen.system_of_cell(hs, IndexPair.of([], [1], 1))
    assert len(s.constraints) == 1
    form, kind = s.constraints[0]
    assert kind is InequalityKind.STRICT
    assert form.weights == (Fraction(-1),)
    assert randgen.system_of_cell(hs, IndexPair.of([], [], 1)).constraints == ()


@pytest.mark.parametrize("pair", [IndexPair(0b10, 0, 1), IndexPair(0, 0b11, 1), IndexPair(-1, 0, 1)])
def test_system_of_cell_rejects_masks_outside_ambient(pair):
    hs = (parse_halfspace("0 1 >="),)
    with pytest.raises(PreconditionError, match="outside 1..1"):
        randgen.system_of_cell(hs, pair)


def test_system_of_cell_rejects_a_pair_of_another_width():
    hs = (parse_halfspace("0 1 >="),)
    with pytest.raises(PreconditionError, match="^pair over 2 half-spaces applied to 1$"):
        randgen.system_of_cell(hs, IndexPair.of([1], [2], 2))


@pytest.mark.parametrize(
    "pair, message",
    [
        (IndexPair(0b10, 0, 1), "^pair names an index outside 1..1$"),
        (IndexPair(0, 0b11, 1), "^pair names an index outside 1..1$"),
        (IndexPair(-1, 0, 1), "^pair names an index outside 1..1$"),
        (IndexPair.of([1], [2], 2), "^pair over 2 half-spaces applied to 1$"),
    ],
    ids=["ones-past-ambient", "zeros-past-ambient", "negative-mask", "other-width"],
)
def test_cell_witness_and_cell_contains_refuse_the_same_pairs(pair, message):
    hs = (parse_halfspace("0 1 >="),)
    with pytest.raises(PreconditionError, match=message):
        cell_witness(hs, pair)
    with pytest.raises(PreconditionError, match=message):
        cell_contains(hs, pair, (Fraction(0),))


def test_cell_witness_and_cell_contains_refuse_a_pair_of_two_dimensions():
    # x >= 1 on the line and y1 + y2 > 0 in the plane
    hs = (parse_halfspace("-1 1 >="), parse_halfspace("0 1 1 >"))
    for pair in (IndexPair.of([1, 2], [], 2), IndexPair.of([1], [2], 2)):
        with pytest.raises(DimensionError, match="^mixed constraint dimensions$"):
            cell_witness(hs, pair)
        with pytest.raises(DimensionError, match="^mixed constraint dimensions$"):
            cell_contains(hs, pair, (Fraction(1),))
    # a pair within one dimension still answers
    assert cell_witness(hs, IndexPair.of([1], [], 2)) == (Fraction(1),)
    assert cell_contains(hs, IndexPair.of([1], [], 2), (Fraction(2),)) == 1
    assert cell_witness(hs, IndexPair.of([], [2], 2)) is not None
    assert cell_contains(hs, IndexPair.of([], [2], 2), (Fraction(1), Fraction(-1))) == 1
    assert cell_contains(hs, IndexPair.of([2], [], 2), (Fraction(1), Fraction(-1))) == 0


def test_cell_is_empty_golden():
    cell_is_empty = randgen.cell_is_empty
    hs = (parse_halfspace("0 1 >="), parse_halfspace("1 -1 >="))
    # inside the slab both constraints can hold together
    assert not cell_is_empty(hs, IndexPair.of([1, 2], [], 2))
    # x >= 0 and not(x >= 0) is empty
    assert cell_is_empty(hs, IndexPair.of([1], [1], 2))
    # x > 1 and x <= 1 via complement of H2
    hs2 = (parse_halfspace("0 1 >="), parse_halfspace("-1 1 >"))
    assert not cell_is_empty(hs2, IndexPair.of([1], [2], 2))
    assert cell_is_empty(hs2, IndexPair.of([2], [1], 2))


def test_cell_witness_lands_in_cell():
    rng = random.Random(43)
    found = 0
    for _ in range(80):
        n, m = rng.randint(1, 4), rng.randint(1, 3)
        hs = randgen.halfspaces(rng, n, m)
        g = randgen.consistent_pair(rng, n)
        w = cell_witness(hs, g)
        if w is None:
            assert randgen.cell_is_empty(hs, g)
            continue
        found += 1
        for i in g.ones.members:
            assert hs[i - 1].contains(w) == 1
        for i in g.zeros.members:
            assert hs[i - 1].contains(w) == 0
    assert found > 20


def test_cell_witness_whole_space_pair():
    hs = (parse_halfspace("0 1 1 >="),)
    assert cell_witness(hs, IndexPair.of([], [], 1)) == (Fraction(0), Fraction(0))


def test_size_cap_triggers():
    # many two-variable constraints make elimination quadratic in rows
    rng = random.Random(53)
    hs = randgen.halfspaces(rng, 40, 3)
    with pytest.raises(SizeCapError):
        is_feasible(of_halfspaces(hs), cap=10)


def test_strict_propagates_through_elimination():
    # x2 > x1 and x1 > 0 and x2 <= 0 is infeasible only because
    # strictness survives the elimination of x2
    s = system("0 -1 1 >", "0 1 0 >", "0 0 -1 >=")
    assert not is_feasible(s)
    lax = system("0 -1 1 >=", "0 1 0 >=", "0 0 -1 >=")
    assert is_feasible(lax)
    assert witness(lax) == (Fraction(0), Fraction(0))


@pytest.mark.parametrize(
    "first, second", [("0 -1 1 >", "0 -2 2 >="), ("0 -2 2 >=", "0 -1 1 >")]
)
def test_strict_wins_a_dedup_tie(first, second):
    # eliminating x2 against x2 <= 0 turns x2 > x1 and 2*x2 >= 2*x1 into
    # rows of one direction and one scaled bias; only the strict one makes
    # x1 >= 0 infeasible, whichever comes first
    s = system(first, second, "0 0 -1 >=", "0 1 0 >=")
    assert not is_feasible(s)
    assert witness(s) is None


def arrangement_cell_witnesses(rng, count):
    """``cell_witness`` on every full sign pattern of seeded arrangements
    of 5 to 8 half-spaces in 2 or 3 dimensions."""
    out = []
    for _ in range(count):
        m, n = rng.choice((2, 3)), rng.choice((5, 6, 7, 8))
        hs = randgen.halfspaces(rng, n, m)
        for g in range(1 << n):
            ones = [i + 1 for i in range(n) if g >> i & 1]
            zeros = [i + 1 for i in range(n) if not g >> i & 1]
            out.append(cell_witness(hs, IndexPair.of(ones, zeros, n)))
    return out


def capped_witnesses(rng, count, cap):
    """``witness`` on seeded 5- and 6-dimensional systems, or the message
    of the ``SizeCapError`` it raises."""
    out = []
    for _ in range(count):
        dim = rng.choice((5, 6))
        s = of_halfspaces(randgen.halfspaces(rng, rng.randint(5, 9), dim))
        try:
            out.append(witness(s, cap))
        except SizeCapError as exc:
            out.append(str(exc))
    return out


def sha256_of_repr(value):
    return hashlib.sha256(repr(value).encode()).hexdigest()


# sha256 of repr(...) of each list, computed with rational rows; integer
# rows must give the same witnesses and the same cap messages
CELLS_DIGEST = "c14c04028a9c10acecb88286a8a6bff1ab5164b31439c036f18c6fcd6099f652"
CAPPED_DIGEST = "a57b4e699f6ac213a94b98f63101585b344b45727c32fb7900641214b77a69a4"


def test_cell_witnesses_pinned():
    out = arrangement_cell_witnesses(random.Random(1001), 24)
    assert (len(out), sum(w is None for w in out)) == (1888, 984)
    assert sha256_of_repr(out) == CELLS_DIGEST


def test_capped_witnesses_pinned():
    out = capped_witnesses(random.Random(1002), 60, 200)
    assert sum(isinstance(w, str) for w in out) == 13
    assert sha256_of_repr(out) == CAPPED_DIGEST


HUGE = 10**5000

scales = strat.sampled_from([1, 2, 3, HUGE, Fraction(1, HUGE), Fraction(2, 3)])
coefficients = strat.one_of(
    strat.integers(-3, 3),
    strat.fractions(min_value=-3, max_value=3, max_denominator=5),
    strat.sampled_from([HUGE, -HUGE, Fraction(1, HUGE), Fraction(-3, HUGE + 1)]),
)


@strat.composite
def parallel_systems(draw):
    """Systems whose rows are positive or negative multiples of a few
    hyperplanes, in either kind: repeated directions with tied scaled
    biases are what dedup has to sort out."""
    dim = draw(strat.integers(1, 3))
    planes = [
        (draw(coefficients), [draw(coefficients) for _ in range(dim)])
        for _ in range(draw(strat.integers(1, 3)))
    ]
    constraints = []
    for _ in range(draw(strat.integers(1, 7))):
        bias, weights = draw(strat.sampled_from(planes))
        scale = draw(scales) * draw(strat.sampled_from([1, -1]))
        form = LinearForm(scale * bias, tuple(scale * w for w in weights))
        constraints.append((form, draw(strat.sampled_from(InequalityKind))))
    return InequalitySystem(tuple(constraints))


@hypothesis.settings(deadline=None)
@hypothesis.given(parallel_systems())
def test_witness_satisfies_and_matches_is_feasible(s):
    w = witness(s)
    assert is_feasible(s) == (w is not None)
    if w is not None:
        assert len(w) == s.dimension
        assert all(type(c) is Fraction for c in w)
        assert s.satisfies(w)


BIG = 2**80
row_entries = strat.one_of(strat.integers(-3, 3), strat.sampled_from([BIG, -BIG, BIG + 1, 3 - BIG]))


@strat.composite
def back_substitution_systems(draw):
    """Integer rows in 1 to 5 dimensions: either the ``_cell_rows`` of a
    random arrangement and pair, or rows that are all strict, all lax or
    mixed, where each coordinate's column takes any sign, only positive
    coefficients (lower bounds only), only negative ones (upper bounds
    only) or zeros (no bound), with a lax pair ``f >= 0``, ``-f >= 0``
    added or not so that bounds tie."""
    m = draw(strat.integers(1, 5))
    if draw(strat.booleans()):
        n = draw(strat.integers(1, 6))
        hs = randgen.halfspaces(random.Random(draw(strat.integers(0, 2**32 - 1))), n, m)
        ones, zeros = draw(strat.integers(0, (1 << n) - 1)), draw(strat.integers(0, (1 << n) - 1))
        return _cell_rows([_scaled_row(h.form, h.kind)[0] for h in hs], ones, zeros & ~ones), m
    kinds = draw(strat.sampled_from([[True], [False], [True, False]]))
    signs = [draw(strat.sampled_from(["any", "lower", "upper", "free"])) for _ in range(m)]
    rows = []
    for _ in range(draw(strat.integers(1, 5))):
        coeffs = [draw(row_entries) for _ in range(m)]
        coeffs = [{"any": c, "lower": abs(c), "upper": -abs(c), "free": 0}[s] for c, s in zip(coeffs, signs)]
        rows.append((draw(strat.sampled_from(kinds)), draw(row_entries), tuple(coeffs)))
    if draw(strat.booleans()):
        bias, coeffs = draw(row_entries), [draw(row_entries) for _ in range(m)]
        rows += [(False, bias, tuple(coeffs)), (False, -bias, tuple(-c for c in coeffs))]
    return draw(strat.permutations(rows)), m


def solved(solve, rows, m):
    try:
        return solve(rows, m, 200)
    except SizeCapError as exc:
        return str(exc)


@hypothesis.settings(deadline=None)
@hypothesis.given(back_substitution_systems())
# x2 >= x1 and x2 > -x1 tie at x1 = 0, and only the second is strict
@hypothesis.example(([(False, 0, (-1, 1)), (True, 0, (1, 1))], 2))
# 2*x >= -1 and 2*x <= -1: lo == hi
@hypothesis.example(([(False, 1, (2,)), (False, -1, (-2,))], 1))
@hypothesis.example(([(True, BIG, (3, -BIG)), (False, -BIG, (BIG + 1, 1)), (True, 1, (-1, -BIG))], 2))
def test_integer_back_substitution_matches_the_fraction_oracle(case):
    # the same decision (or cap message) and the same point as
    # back-substitution on Fractions, down to the denominator
    rows, m = case
    new, old = solved(_solve, rows, m), solved(randgen.fraction_solve, rows, m)
    if isinstance(new, tuple) and isinstance(old, tuple):
        assert [Fraction(c, new[0]) for c in new[1]] == [Fraction(c, old[0]) for c in old[1]]
        assert all(_holds(row, *new) for row in rows)
    assert new == old
