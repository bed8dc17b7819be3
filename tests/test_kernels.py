import hashlib
import random
from fractions import Fraction

import hypothesis
import hypothesis.strategies as strat
import pytest

from polyperc import feasibility, forms
from polyperc import (
    DimensionError,
    HalfSpace,
    InequalityKind,
    LinearForm,
    PerceptronLayer,
    PreconditionError,
    lower_layer,
    tail_accepted_set,
)

import randgen
from randgen import sweep_unit_tables


def unit(bias, weights, kind=InequalityKind.LAX):
    return HalfSpace(LinearForm(bias, weights), kind)


def random_tail(rng, n_bits, depth):
    layers = []
    width = n_bits
    for d in range(depth):
        out = 1 if d == depth - 1 else rng.randint(1, 5)
        units = []
        for _ in range(out):
            ws = [Fraction(rng.randint(-3, 3)) for _ in range(width)]
            if not any(ws):
                ws[rng.randrange(width)] = Fraction(1)
            bias = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
            kind = InequalityKind.LAX if rng.random() < 0.5 else InequalityKind.STRICT
            units.append(unit(bias, ws, kind))
        layers.append(PerceptronLayer(units))
        width = out
    return layers


def contains_bits(layer, x):
    """Exact Fraction oracle: one HalfSpace.contains bit per unit."""
    return tuple(u.contains(x) for u in layer.units)


def brute_accepted(layers, n_bits):
    out = []
    for g in range(1 << n_bits):
        x = tuple(Fraction((g >> i) & 1) for i in range(n_bits))
        for layer in layers:
            x = tuple(Fraction(b) for b in contains_bits(layer, x))
        if x[0]:
            out.append(g)
    return out


def test_lower_layer_golden():
    layer = PerceptronLayer(
        [
            unit(Fraction(1, 2), [Fraction(1), Fraction(-1, 3)]),
            unit(Fraction(-2), [Fraction(0), Fraction(5)], InequalityKind.STRICT),
        ]
    )
    biases, weights, lax = lower_layer(layer)
    assert biases == [3, -2]
    assert weights == [[6, -2], [0, 5]]
    assert lax == [True, False]


def test_lowering_preserves_unit_outputs():
    rng = random.Random(5)
    for _ in range(40):
        n_bits = rng.randint(1, 5)
        layer = random_tail(rng, n_bits, 1)[0]
        biases, weights, lax = lower_layer(layer)
        for g in range(1 << n_bits):
            bits = tuple(Fraction((g >> i) & 1) for i in range(n_bits))
            expect = contains_bits(layer, bits)
            for u in range(len(biases)):
                acc = biases[u] + sum(
                    w for i, w in enumerate(weights[u]) if (g >> i) & 1
                )
                got = 1 if (acc > 0 or (acc == 0 and lax[u])) else 0
                assert got == expect[u]


def test_layer_rows_are_the_feasibility_rows():
    # one (strict, bias, weights) row per unit, shared with Fourier-Motzkin;
    # lower_layer is the same rows transposed, with lax = not strict
    rng = random.Random(23)
    for _ in range(20):
        hs = randgen.halfspaces(rng, rng.randint(1, 6), rng.randint(1, 4))
        layer = PerceptronLayer(hs)
        rows = tuple(feasibility._rows((u.form, u.kind) for u in layer.units))
        assert layer.lowered == rows
        biases, weights, lax = lower_layer(layer)
        assert biases == [bias for _, bias, _ in rows]
        assert weights == [list(row) for _, _, row in rows]
        assert lax == [not strict for strict, _, _ in rows]


def test_tail_accepted_and_golden():
    layer = PerceptronLayer([unit(Fraction(-3, 2), [1, 1])])
    assert tail_accepted_set([layer], 2) == [3]


def test_tail_accepted_bit_order():
    # index bit i-1 is input bit i: over 3 bits, only (1, 0, 1) -> 5
    layer = PerceptronLayer([unit(Fraction(-3, 2), [1, -1, 1])])
    assert tail_accepted_set([layer], 3) == [5]


def test_tail_accepted_matches_brute_force():
    rng = random.Random(17)
    for _ in range(30):
        n_bits = rng.randint(1, 6)
        layers = random_tail(rng, n_bits, rng.randint(1, 3))
        assert tail_accepted_set(layers, n_bits) == brute_accepted(layers, n_bits)


HUGE = 2**80

weights = strat.sampled_from(
    [-3, -2, -1, 0, 1, 2, 3, Fraction(1, 2), Fraction(-5, 3)]
    + [HUGE, -HUGE, 3 * HUGE + 1, Fraction(-1, HUGE)]
)


@strat.composite
def tail_layers(draw):
    """A tail over 1 to 10 bits, and sometimes a first layer of more than
    63 units over at most 5 bits; half of the units sum to exactly 0 on
    some bit vector, where only a lax unit fires."""
    wide = draw(strat.booleans())
    n_bits = draw(strat.integers(1, 5 if wide else 10))
    first = draw(strat.integers(64, 66) if wide else strat.integers(1, 5))
    widths = [n_bits, first]
    widths += [draw(strat.integers(1, 4)) for _ in range(draw(strat.integers(0, 2)))]
    widths.append(1)
    layers = []
    for fan_in, fan_out in zip(widths, widths[1:]):
        units = []
        for _ in range(fan_out):
            ws = [Fraction(draw(weights)) for _ in range(fan_in)]
            if not any(ws):
                ws[draw(strat.integers(0, fan_in - 1))] = Fraction(1)
            if draw(strat.booleans()):
                on = draw(strat.integers(0, (1 << fan_in) - 1))
                bias = -sum(w for j, w in enumerate(ws) if on >> j & 1)
            else:
                bias = Fraction(draw(weights))
            kind = draw(strat.sampled_from(InequalityKind))
            units.append(unit(bias, ws, kind))
        layers.append(PerceptronLayer(units))
    return layers, n_bits


@hypothesis.settings(deadline=None)
@hypothesis.given(tail_layers())
def test_tail_accepted_matches_contains_oracle(case):
    layers, n_bits = case
    assert tail_accepted_set(layers, n_bits) == brute_accepted(layers, n_bits)


@strat.composite
def oracle_unit(draw, fan_in):
    """A unit over fan_in bits that may never fire, always fire, sum to
    exactly 0 on some bit vector, or have a random bias."""
    ws = [Fraction(draw(weights)) for _ in range(fan_in)]
    if not any(ws):
        ws[draw(strat.integers(0, fan_in - 1))] = Fraction(1)
    shape = draw(strat.sampled_from(["never", "always", "boundary", "random"]))
    if shape == "never":
        return unit(-sum(w for w in ws if w > 0), ws, InequalityKind.STRICT)
    if shape == "always":
        return unit(-sum(w for w in ws if w < 0), ws, InequalityKind.LAX)
    if shape == "boundary":
        on = draw(strat.integers(0, (1 << fan_in) - 1))
        bias = -sum(w for j, w in enumerate(ws) if on >> j & 1)
    else:
        bias = Fraction(draw(weights))
    return unit(bias, ws, draw(strat.sampled_from(InequalityKind)))


@strat.composite
def oracle_tails(draw):
    """A tail over 1 to 14 bits: a first layer of random units, 1, 7-9,
    15-17 or 63-65 of them, or of AND rows over random full pairs as
    normalization writes them, then 0 to 2 layers of random units."""
    later = draw(strat.integers(0, 2))
    if draw(strat.booleans()):
        n_bits = draw(strat.integers(1, 14))
        count = draw(strat.integers(1, min(1 << n_bits, 40))) if later else 1
        vectors = draw(strat.lists(strat.integers(0, (1 << n_bits) - 1), min_size=count, max_size=count, unique=True))
        full = (1 << n_bits) - 1
        rows = tuple(forms._unit_row(g, full ^ g, n_bits, True) for g in vectors)
        first = PerceptronLayer._of_rows(rows, (2,) * count)
    else:
        width = draw(strat.sampled_from([1, 7, 8, 9, 15, 16, 17, 63, 64, 65])) if later else 1
        n_bits = draw(strat.integers(1, 10 if width > 17 else 14))
        first = PerceptronLayer([draw(oracle_unit(n_bits)) for _ in range(width)])
    layers = [first]
    for k in range(later):
        fan_out = 1 if k == later - 1 else draw(strat.integers(1, 4))
        fan_in = layers[-1].output_dim
        layers.append(PerceptronLayer([draw(oracle_unit(fan_in)) for _ in range(fan_out)]))
    return layers, n_bits


@hypothesis.settings(deadline=None, suppress_health_check=[hypothesis.HealthCheck.too_slow])
@hypothesis.given(oracle_tails())
def test_tail_accepted_matches_doubling_oracle(case):
    # the byte-field kernel against the doubling kernel it replaced
    layers, n_bits = case
    assert tail_accepted_set(layers, n_bits) == randgen.doubling_accepted_set(layers, n_bits)


def test_tail_accepted_at_16_bits_pinned():
    # accepted list of this tail as computed by the per-vector Gray-code
    # kernel the doubling kernel replaced
    layers = random_tail(random.Random(1616), 16, 3)
    accepted = tail_accepted_set(layers, 16)
    assert len(accepted) == 28533
    assert hashlib.sha256(repr(accepted).encode()).hexdigest() == (
        "e11672fafc8a9e48b87a943b985d85dabf2510f74393ab0a9cc163e104a801c1"
    )


def test_huge_weights_fall_back():
    big = Fraction(1 << 80)
    layer = PerceptronLayer([unit(Fraction(1), [big, -big])])
    assert tail_accepted_set([layer], 2) == [0, 1, 3]


def test_tail_validation():
    layer = PerceptronLayer([unit(Fraction(0), [1, 1])])
    two_out = PerceptronLayer([unit(Fraction(0), [1]), unit(Fraction(0), [1])])
    with pytest.raises(PreconditionError):
        tail_accepted_set([], 2)
    with pytest.raises(PreconditionError):
        tail_accepted_set([layer], 3)
    with pytest.raises(PreconditionError):
        tail_accepted_set([two_out], 1)
    # a maps 3 bits to 2, so only a layer of 2 inputs chains after it
    a = PerceptronLayer([unit(Fraction(0), [1, 1, 1]), unit(Fraction(0), [1, -1, 1])])
    for fan_in in (5, 1):
        b = PerceptronLayer([unit(Fraction(0), [1] * fan_in)])
        with pytest.raises(DimensionError, match=f"^layer 1 feeds 2 bits into a layer expecting {fan_in}$"):
            tail_accepted_set([a, b], 3)



def all_rows(n):
    rows = []
    rng = random.Random(0)
    for _ in range(60):
        pair = randgen.consistent_pair(rng, n)
        rows.append(randgen.sweep_row(pair, True))
        rows.append(randgen.sweep_row(pair, False))
    return rows


def test_sweep_clean_rows():
    for n in (1, 3, 5):
        rows = all_rows(n)
        checks, failures, first_row, first_b = sweep_unit_tables(n, rows)
        assert checks == len(rows) * (1 << n)
        assert failures == 0
        assert first_row == -1 and first_b == -1


def test_sweep_detects_corruption():
    rows = all_rows(4)
    bias2, m1, m0, p1, p0, is_conj = rows[3]
    rows[3] = (bias2 + 2, m1, m0, p1, p0, is_conj)  # off-by-one bias
    checks, failures, first_row, first_b = sweep_unit_tables(4, rows)
    assert failures > 0
    assert first_row == 3
    assert 0 <= first_b < 16


def test_sweep_detects_even_parity():
    # an integer-valued form can never be a valid half-integer unit row
    rows = [(2, 0b1, 0, 0b1, 0, 1)]
    checks, failures, first_row, first_b = sweep_unit_tables(1, rows)
    assert failures > 0 and first_row == 0
