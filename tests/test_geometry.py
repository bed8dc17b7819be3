import random
from fractions import Fraction

import hypothesis
import hypothesis.strategies as strat
import pytest

from polyperc import (
    ConstantFormError,
    DimensionError,
    HalfSpace,
    InequalityKind,
    LinearForm,
    ParseError,
    format_halfspace,
    format_point,
    format_rational,
    parse_halfspace,
    parse_halfspace_block,
    parse_point,
    parse_rational,
)
from polyperc.geometry import MAX_DIGITS

import randgen

rationals = strat.fractions(max_denominator=50)


def test_parse_rational_forms():
    assert parse_rational("7") == 7
    assert parse_rational("-3/2") == Fraction(-3, 2)
    assert parse_rational("0.25") == Fraction(1, 4)
    # an exponent is counted by its value, however many zeros lead it
    assert parse_rational("1e0000000001") == 10
    assert parse_rational("1E+0000000000002") == 100
    assert parse_rational("0.5e-00000000001") == Fraction(1, 20)


@pytest.mark.parametrize("bad", ["", "x", "1/0", "3/", "--2"])
def test_parse_rational_rejects(bad):
    with pytest.raises(ParseError):
        parse_rational(bad)


@hypothesis.given(rationals)
def test_rational_round_trip(value):
    assert parse_rational(format_rational(value)) == value


@pytest.mark.parametrize(
    "value",
    [
        Fraction(10**5000),
        Fraction(-(10**5000) - 7),
        Fraction(10**5000 + 1, 3),
        Fraction(-7, 10**5000 + 3),
    ],
)
def test_rational_round_trip_past_int_str_digit_limit(value):
    # 5001 digits is past the interpreter's default int-string limit of 4300
    text = format_rational(value)
    assert len(text) > 5000
    assert parse_rational(text) == value
    assert format_rational(parse_rational(text)) == text


def test_parse_rational_long_digit_runs():
    assert parse_rational("1e5000") == 10**5000
    repunit = (10**5001 - 1) // 9  # 5001 ones
    assert parse_rational("1" * 5001 + ".5") == repunit + Fraction(1, 2)
    assert parse_rational("-" + "1" * 5001 + "/3") == Fraction(-repunit, 3)
    assert parse_rational("-" + "9" * MAX_DIGITS) == -(10**MAX_DIGITS - 1)
    with pytest.raises(ParseError):
        parse_rational("1" * 5001 + "/0")


@pytest.mark.parametrize(
    "text",
    [
        "1e100001",
        "1e99_999_999",
        "1e" + "9" * 20,
        "1" * (MAX_DIGITS + 1),
        "1/" + "3" * (MAX_DIGITS + 1),
    ],
)
def test_parse_rational_digit_limit(text):
    with pytest.raises(ParseError) as info:
        parse_rational(text)
    assert "digits" in str(info.value)
    assert len(str(info.value)) < 200


def test_point_round_trip():
    p = parse_point("1 -3/2 0.5")
    assert p == (1, Fraction(-3, 2), Fraction(1, 2))
    assert format_point(p) == "(1,-3/2,1/2)"


def test_linear_form_evaluate():
    # 1 - y1 + 2*y2
    f = LinearForm(1, (-1, 2))
    assert f.evaluate((Fraction(3), Fraction(1, 2))) == -1
    assert f.dimension == 2
    with pytest.raises(DimensionError):
        f.evaluate((Fraction(1),))


def test_form_needs_a_weight():
    with pytest.raises(Exception):
        LinearForm(1, ())


def test_negated_form():
    f = LinearForm(Fraction(1, 2), (1, -2))
    g = f.negated()
    assert g.bias == Fraction(-1, 2)
    assert g.weights == (-1, 2)


def test_halfspace_contains_boundary():
    lax = HalfSpace(LinearForm(0, (1,)), InequalityKind.LAX)
    strict = HalfSpace(LinearForm(0, (1,)), InequalityKind.STRICT)
    zero = (Fraction(0),)
    assert lax.contains(zero) == 1
    assert strict.contains(zero) == 0
    assert lax.contains((Fraction(-1),)) == 0
    assert strict.contains((Fraction(1),)) == 1


def test_complement_flips_everything():
    h = HalfSpace(LinearForm(1, (2, -3)), InequalityKind.LAX)
    c = h.complement()
    assert c.kind is InequalityKind.STRICT
    assert c.form.bias == -1
    assert c.form.weights == (-2, 3)
    assert c.complement() == h


def test_complement_partitions_space():
    # every point lies in exactly one of h, complement(h)
    rng = random.Random(11)
    for _ in range(50):
        h = randgen.halfspace(rng, 3)
        x = randgen.point(rng, 3)
        assert h.contains(x) + h.complement().contains(x) == 1


def test_constant_form_rejected():
    with pytest.raises(ConstantFormError):
        HalfSpace(LinearForm(1, (0, 0)), InequalityKind.LAX)


def test_parse_halfspace_golden():
    h = parse_halfspace("-1/2 1 0 >=")
    assert h.form.bias == Fraction(-1, 2)
    assert h.form.weights == (1, 0)
    assert h.kind is InequalityKind.LAX
    assert format_halfspace(h) == "-1/2 1 0 >="


@pytest.mark.parametrize(
    "line",
    ["", "1 >=", "1 2 3", "1 2 =>", "a 1 >=", "1 0 0 >="],
)
def test_parse_halfspace_rejects(line):
    with pytest.raises(ParseError):
        parse_halfspace(line)


def test_parse_error_carries_line_number():
    with pytest.raises(ParseError) as info:
        parse_halfspace("bogus line", 7)
    assert info.value.line == 7
    assert "line 7" in str(info.value)


def test_halfspace_round_trip_random():
    rng = random.Random(23)
    for _ in range(200):
        h = randgen.halfspace(rng, rng.randint(1, 4))
        assert parse_halfspace(format_halfspace(h)) == h


def test_halfspace_block_skips_blanks():
    block = parse_halfspace_block(["0 1 >=", "", "  ", "1 -1 >"])
    assert len(block) == 2
    assert block[1].kind is InequalityKind.STRICT
