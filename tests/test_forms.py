import itertools
import random
from fractions import Fraction

import hypothesis
import hypothesis.strategies as strat
import pytest

from polyperc import (
    IndexPair,
    IndexSet,
    PreconditionError,
    SchemeError,
    adder,
    conj_form,
    conj_unit,
    disj_form,
    disj_unit,
)

import randgen

HALF = Fraction(1, 2)


def all_bits(n):
    return itertools.product((Fraction(0), Fraction(1)), repeat=n)


def brute_and(pair: IndexPair, bits) -> int:
    hit = all(bits[i - 1] == 1 for i in pair.ones) and all(
        bits[i - 1] == 0 for i in pair.zeros
    )
    return 1 if hit else 0


def brute_or(pair: IndexPair, bits) -> int:
    hit = any(bits[i - 1] == 1 for i in pair.ones) or any(
        bits[i - 1] == 0 for i in pair.zeros
    )
    return 1 if hit else 0


def test_adder_counts_selected_ones():
    add = adder(IndexSet.of([1, 3], 3))
    assert add.bias == 0
    assert add.weights == (1, 0, 1)
    assert add.evaluate((Fraction(1), Fraction(1), Fraction(1))) == 2
    assert add.evaluate((Fraction(0), Fraction(7), Fraction(1))) == 1


def test_conj_form_golden():
    # both half-spaces required: y1 + y2 - 3/2
    f = conj_form(IndexPair.of([1, 2], [], 2))
    assert f.bias == Fraction(-3, 2)
    assert f.weights == (1, 1)
    assert f.evaluate((Fraction(1), Fraction(1))) == HALF
    assert f.evaluate((Fraction(1), Fraction(0))) == -HALF


def test_conj_form_mixed_golden():
    # first in, second out: y1 - y2 - 1/2
    f = conj_form(IndexPair.of([1], [2], 2))
    assert f.bias == -HALF
    assert f.weights == (1, -1)
    assert f.evaluate((Fraction(1), Fraction(0))) == HALF
    assert f.evaluate((Fraction(1), Fraction(1))) == -HALF
    assert f.evaluate((Fraction(0), Fraction(1))) == Fraction(-3, 2)


def test_disj_form_golden():
    f = disj_form(IndexPair.of([1], [2], 2))
    assert f.bias == HALF
    assert f.weights == (1, -1)
    assert f.evaluate((Fraction(0), Fraction(1))) == -HALF
    assert f.evaluate((Fraction(1), Fraction(1))) == HALF


@pytest.mark.parametrize("build", [conj_form, disj_form])
def test_unit_forms_reject_bad_pairs(build):
    with pytest.raises(SchemeError):
        build(IndexPair.of([], [], 3))
    with pytest.raises(SchemeError):
        build(IndexPair.of([1], [1], 3))


@pytest.mark.parametrize(
    "build",
    [
        lambda: conj_form(IndexPair(0b100, 0, 2)),
        lambda: disj_form(IndexPair(0, 0b1000, 2)),
        lambda: adder(IndexSet.from_mask(0b111, 1)),
        lambda: conj_unit(IndexPair(0b100, 0, 2)),
    ],
    ids=["conj_form", "disj_form", "adder", "conj_unit"],
)
def test_forms_reject_a_mask_past_the_ambient(build):
    # such a mask would drop its outer indices and leave a constant form
    with pytest.raises(PreconditionError, match=r"^pair names an index outside 1\.\.[12]$"):
        build()


@hypothesis.given(strat.data())
def test_conj_dichotomy_exhaustive(data):
    n = data.draw(strat.integers(1, 6))
    rng = random.Random(data.draw(strat.integers(0, 2**32)))
    pair = randgen.consistent_pair(rng, n)
    f = conj_form(pair)
    unit = conj_unit(pair)
    for bits in all_bits(n):
        value = f.evaluate(bits)
        assert value * 2 % 1 == 0 and value % 1 != 0  # half-integer, never integer
        if brute_and(pair, bits):
            assert value == HALF
        else:
            assert value <= -HALF
        assert unit.contains(bits) == brute_and(pair, bits)


@hypothesis.given(strat.data())
def test_disj_dichotomy_exhaustive(data):
    n = data.draw(strat.integers(1, 6))
    rng = random.Random(data.draw(strat.integers(0, 2**32)))
    pair = randgen.consistent_pair(rng, n)
    f = disj_form(pair)
    unit = disj_unit(pair)
    for bits in all_bits(n):
        value = f.evaluate(bits)
        if brute_or(pair, bits):
            assert value >= HALF
        else:
            assert value == -HALF
        assert unit.contains(bits) == brute_or(pair, bits)


def test_conj_disj_duality_on_bits():
    # AND of the pair = NOT OR of the swapped pair, bit for bit
    rng = random.Random(3)
    for _ in range(50):
        n = rng.randint(1, 5)
        pair = randgen.consistent_pair(rng, n)
        cu = conj_unit(pair)
        du = disj_unit(pair.swapped())
        for bits in all_bits(n):
            assert cu.contains(bits) == 1 - du.contains(bits)
