import random
from fractions import Fraction

import hypothesis
import hypothesis.strategies as strat
import pytest

from polyperc import (
    DimensionError,
    HalfSpace,
    IndexPair,
    IndexSet,
    InequalityKind,
    LinearForm,
    Mode,
    ParseError,
    PerceptronLayer,
    PerceptronNetwork,
    PreconditionError,
    PresentedPolyhedron,
    Scheme,
    bits_of_index,
    format_network,
    lower_layer,
    parse_halfspace,
    parse_network,
)

import randgen


@pytest.fixture
def two_unit_layer():
    # y1 >= 0 and y2 - 1 > 0 over the plane
    return PerceptronLayer(
        [parse_halfspace("0 1 0 >="), parse_halfspace("-1 0 1 >")]
    )


def test_layer_construction(two_unit_layer):
    assert two_unit_layer.input_dim == 2
    assert two_unit_layer.output_dim == 2
    with pytest.raises(AttributeError):
        two_unit_layer.units = ()


def test_layer_fields_cannot_be_deleted(two_unit_layer):
    for name in ("lowered", "scales", "input_dim", "output_dim"):
        with pytest.raises(AttributeError):
            delattr(two_unit_layer, name)
    assert hash(two_unit_layer) == hash(PerceptronLayer(two_unit_layer.units))


def test_layer_rejects_empty():
    with pytest.raises(PreconditionError, match="^empty layer$"):
        PerceptronLayer([])
    with pytest.raises(PreconditionError, match="^empty layer$"):
        PerceptronLayer._of_rows((), ())


def test_network_rejects_no_layers():
    with pytest.raises(PreconditionError, match="^network needs at least one layer$"):
        PerceptronNetwork(())


def test_layer_rejects_mixed_dimensions():
    with pytest.raises(DimensionError, match="^mixed unit dimensions in layer$"):
        PerceptronLayer([parse_halfspace("0 1 >="), parse_halfspace("0 1 1 >=")])
    with pytest.raises(DimensionError, match="^mixed unit dimensions in layer$"):
        PerceptronLayer._of_rows(((False, 1, (1,)), (True, 0, (1, 2))), (1, 1))


@pytest.mark.parametrize(
    "x,expected",
    [
        ((2, Fraction(1, 2)), (1, 0)),
        ((0, 5), (1, 1)),
        ((-1, 1), (0, 0)),  # y2 - 1 = 0 fails the strict test
    ],
)
def test_layer_apply_golden(two_unit_layer, x, expected):
    point = tuple(Fraction(c) for c in x)
    assert two_unit_layer.apply(point) == expected


def test_architecture():
    rng = random.Random(1)
    net = randgen.network(rng, 3)
    arch = randgen.architecture(net)
    assert arch[0] == 3
    assert arch[1:] == tuple(l.output_dim for l in net.layers)
    assert arch[-1] == 1


def test_incomposable_layers_rejected():
    wide = PerceptronLayer([parse_halfspace("0 1 >="), parse_halfspace("1 1 >=")])
    narrow_in = PerceptronLayer([parse_halfspace("0 1 0 0 >=")])
    with pytest.raises(DimensionError):
        PerceptronNetwork((wide, narrow_in))


def test_forward_single_layer_is_layer_apply(two_unit_layer):
    net = PerceptronNetwork((two_unit_layer,))
    x = (Fraction(2), Fraction(3))
    assert net.forward(x) == two_unit_layer.apply(x)


def test_forward_equals_nested_composition():
    # splitting the layer stack anywhere must not change the result
    rng = random.Random(9)
    for _ in range(30):
        net = randgen.network(rng, rng.randint(1, 3), max_depth=4, max_width=5)
        if net.depth < 2:
            continue
        x = randgen.point(rng, net.input_dim)
        cut = rng.randint(1, net.depth - 1)
        head = PerceptronNetwork(net.layers[:cut])
        tail = PerceptronNetwork(net.layers[cut:])
        bits = tuple(Fraction(b) for b in head.forward(x))
        assert net.forward(x) == tail.forward(bits)


def test_forward_factors_through_first_layer_bits():
    # equal first-layer bit vectors force equal outputs
    rng = random.Random(21)
    for _ in range(30):
        net = randgen.network(rng, 2, max_depth=3, max_width=4)
        seen = {}
        for _ in range(20):
            x = randgen.point(rng, 2)
            bits = net.layers[0].apply(x)
            out = net.forward(x)
            if bits in seen:
                assert seen[bits] == out
            seen[bits] = out


def test_next_mask_of_a_wide_layer_is_the_fraction_oracle():
    # 520 inputs: wider than any layer the normalization tests feed it
    rng = random.Random(520)
    layer = PerceptronLayer(randgen.halfspaces(rng, 8, 520))
    dense = sum(1 << j for j in rng.sample(range(519), 259)) | 1 << 519
    for mask in (0, 1 << 519, 1 | 1 << 200 | 1 << 519, dense):
        point = tuple(map(Fraction, bits_of_index(mask, 520)))
        expect = tuple(u.contains(point) for u in layer.units)
        assert bits_of_index(layer.next_mask(mask), 8) == expect


@pytest.mark.parametrize("mask", [0b100, 1 << 70, -1, -4], ids=["next-bit", "far-bit", "minus-one", "negative"])
def test_next_mask_rejects_a_mask_off_its_inputs(two_unit_layer, mask):
    with pytest.raises(PreconditionError, match="^mask is not a bit vector over 2 inputs$"):
        two_unit_layer.next_mask(mask)
    # (1, 1) passes y1 >= 0 but not y2 - 1 > 0
    assert two_unit_layer.next_mask(0b11) == 0b01


HUGE = 10**5000

coefficients = strat.one_of(
    strat.integers(-4, 4),
    strat.fractions(min_value=-4, max_value=4, max_denominator=6),
    strat.sampled_from([HUGE, -HUGE, Fraction(1, HUGE), Fraction(-3, HUGE + 1)]),
)
coordinates = strat.one_of(
    strat.integers(-5, 5),
    strat.fractions(min_value=-5, max_value=5, max_denominator=7),
    strat.sampled_from([HUGE, Fraction(-1, HUGE)]),
)


@strat.composite
def units(draw, dim, count):
    out = []
    for _ in range(count):
        weights = [Fraction(draw(coefficients)) for _ in range(dim)]
        if not any(weights):
            weights[draw(strat.integers(0, dim - 1))] = Fraction(1)
        kind = draw(strat.sampled_from(InequalityKind))
        out.append(HalfSpace(LinearForm(draw(coefficients), tuple(weights)), kind))
    return out


@strat.composite
def network_poly_point(draw):
    """A network, a presentation over its first layer and a point, which
    lies exactly on a first-layer hyperplane half of the time."""
    dim = draw(strat.integers(1, 3))
    widths = [dim] + [
        draw(strat.integers(1, 4)) for _ in range(draw(strat.integers(1, 3)))
    ]
    layers = [
        PerceptronLayer(draw(units(w_in, w_out))) for w_in, w_out in zip(widths, widths[1:])
    ]
    first = layers[0].units
    x = [draw(coordinates) for _ in range(dim)]
    if draw(strat.booleans()):
        form = first[draw(strat.integers(0, len(first) - 1))].form
        j = next(i for i, w in enumerate(form.weights) if w)
        rest = form.bias + sum(
            w * c for i, (w, c) in enumerate(zip(form.weights, x)) if i != j
        )
        x[j] = -rest / form.weights[j]
        assert form.evaluate(x) == 0
    n = len(first)
    pairs = []
    for _ in range(draw(strat.integers(0, 4))):
        slots = draw(strat.lists(strat.integers(0, 2), min_size=n, max_size=n))
        ones = [i + 1 for i, s in enumerate(slots) if s == 1]
        zeros = [i + 1 for i, s in enumerate(slots) if s == 2]
        pairs.append(IndexPair.of(ones, zeros, n))
    chosen = draw(strat.lists(strat.integers(1, max(len(pairs), 1)), max_size=4))
    selector = IndexSet.of([j for j in chosen if j <= len(pairs)], len(pairs))
    scheme = Scheme(n, tuple(pairs), selector)
    poly = PresentedPolyhedron(first, scheme, draw(strat.sampled_from(Mode)))
    return PerceptronNetwork(tuple(layers)), poly, tuple(x)


@hypothesis.settings(deadline=None)
@hypothesis.given(strat.tuples(strat.integers(1, 3), strat.integers(1, 4)).flatmap(lambda shape: units(*shape)))
def test_rows_and_units_view_agree_at_any_magnitude(drawn):
    built = PerceptronLayer(drawn)
    # a layer of units holds its rows and scales at once, and views the given units
    assert {"lowered", "scales"} <= vars(built).keys()
    assert all(a is b for a, b in zip(built.units, drawn, strict=True))
    from_rows = PerceptronLayer._of_rows(built.lowered, built.scales)
    for layer in (built, from_rows):
        assert layer.units == tuple(drawn)  # every coefficient ==, kinds equal
        again = PerceptronLayer(layer.units)
        assert again == layer == built and hash(again) == hash(layer) == hash(built)
        assert again.lowered == layer.lowered and again.scales == layer.scales
        assert lower_layer(layer) == lower_layer(built)
    # format_network prints every layer from its rows, so a layer of rows, its units
    # never read, prints as the layer built from the half-spaces
    rows_only = PerceptronLayer._of_rows(built.lowered, built.scales)
    assert format_network(PerceptronNetwork((rows_only,))) == format_network(PerceptronNetwork((built,)))
    assert "units" not in vars(rows_only)


def contains_chain(network, x):
    """Exact Fraction oracle: HalfSpace.contains layer by layer, with each
    bit vector re-embedded as a Fraction point."""
    bits = tuple(u.contains(x) for u in network.layers[0].units)
    for layer in network.layers[1:]:
        point = tuple(Fraction(b) for b in bits)
        bits = tuple(u.contains(point) for u in layer.units)
    return bits


@hypothesis.settings(deadline=None)
@hypothesis.given(network_poly_point())
def test_integer_evaluator_matches_fraction_oracle(case):
    net, poly, x = case
    assert net.forward(x) == contains_chain(net, x)
    first = PerceptronNetwork(net.layers[:1])
    assert poly.signature(x) == contains_chain(first, x)
    # a cell is its Fraction system, and a cocell the complement of the swapped pair's cell
    pairs = poly.scheme.selected_pairs()
    if poly.mode is Mode.DNF:
        expect = any(randgen.system_of_cell(poly.halfspaces, p).satisfies(x) for p in pairs)
    else:
        expect = not any(randgen.system_of_cell(poly.halfspaces, p.swapped()).satisfies(x) for p in pairs)
    assert poly.member(x) == int(expect)
    for wrong in (x + (Fraction(0),), x[:-1]):
        with pytest.raises(DimensionError):
            net.forward(wrong)
        with pytest.raises(DimensionError):
            poly.member(wrong)


def test_network_round_trip_golden():
    text = (
        "LAYERS=2\n"
        "LAYER 2 2\n"
        "0 1 0 >=\n"
        "0 0 1 >=\n"
        "LAYER 2 1\n"
        "-3/2 1 1 >=\n"
    )
    net = parse_network(text)
    assert randgen.architecture(net) == (2, 2, 1)
    assert format_network(net) == text


def test_network_round_trip_random():
    rng = random.Random(31)
    for _ in range(50):
        net = randgen.network(rng, rng.randint(1, 3))
        assert parse_network(format_network(net)) == net


@pytest.mark.parametrize(
    "text",
    [
        "",
        "LAYER 1 1\n0 1 >=\n",
        "LAYERS=x\n",
        "LAYERS=0\n",
        "LAYERS=2\nLAYER 1 1\n0 1 >=\n",
        "LAYERS=1\nLAYER 2 1\n0 1 >=\n",
        "LAYERS=1\nLAYER 1 1\n0 1 >=\nextra\n",
        "LAYERS=2\nLAYER 1 2\n0 1 >=\n0 -1 >\nLAYER 3 1\n0 1 1 1 >=\n",
    ],
)
def test_network_parse_rejects(text):
    with pytest.raises(ParseError):
        parse_network(text)


def test_network_parse_names_the_line_of_an_empty_layer():
    with pytest.raises(ParseError) as exc:
        parse_network("LAYERS=1\nLAYER 2 0\n")
    assert exc.value.line == 2
