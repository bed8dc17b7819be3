import random
import re
from fractions import Fraction
from itertools import product

import hypothesis
import hypothesis.strategies as strat
import pytest

from polyperc import (
    ConstantNetwork,
    DimensionError,
    HalfSpace,
    IndexPair,
    IndexSet,
    LinearForm,
    Mode,
    PerceptronLayer,
    PerceptronNetwork,
    PreconditionError,
    PresentedPolyhedron,
    Scheme,
    SchemeError,
    SizeCapError,
    bits_of_index,
    build_cnf_network,
    build_dnf_network,
    check_equivalence,
    extract_scheme,
    format_halfspace,
    format_network,
    normalize_three_layers,
    pair_of_bits,
    parse_halfspace,
    prune_empty_cells,
)
from polyperc.forms import _unit_form, _unit_row
from polyperc.geometry import InequalityKind, _scaled_row

import randgen


@pytest.fixture
def ground():
    return (parse_halfspace("0 1 0 >="), parse_halfspace("0 0 1 >"))


def and_scheme():
    return Scheme(2, (IndexPair.of([1, 2], [], 2),), IndexSet.of([1], 1))


def or_scheme():
    pairs = (
        IndexPair.of([1], [], 2),
        IndexPair.of([2], [], 2),
    )
    return Scheme(2, pairs, IndexSet.of([1, 2], 2))


def test_dnf_synthesis_golden(ground):
    net = build_dnf_network(ground, and_scheme())
    assert randgen.architecture(net) == (2, 2, 1, 1)
    assert format_halfspace(net.layers[1].units[0]) == "-3/2 1 1 >="
    assert format_halfspace(net.layers[2].units[0]) == "-1/2 1 >="
    assert net.forward((Fraction(1), Fraction(1))) == (1,)
    assert net.forward((Fraction(1), Fraction(0))) == (0,)


def test_dnf_forward_equals_member(ground):
    rng = random.Random(3)
    for _ in range(25):
        n, m = rng.randint(1, 4), rng.randint(1, 3)
        hs = randgen.halfspaces(rng, n, m)
        s = randgen.scheme(rng, n)
        net = build_dnf_network(hs, s)
        k = PresentedPolyhedron(hs, s, Mode.DNF)
        for _ in range(20):
            x = randgen.point(rng, m)
            assert net.forward(x) == (k.member(x),)


def test_cnf_forward_equals_member(ground):
    rng = random.Random(9)
    for _ in range(25):
        n, m = rng.randint(1, 4), rng.randint(1, 3)
        hs = randgen.halfspaces(rng, n, m)
        s = randgen.scheme(rng, n)
        net = build_cnf_network(hs, s)
        k = PresentedPolyhedron(hs, s, Mode.CNF)
        for _ in range(20):
            x = randgen.point(rng, m)
            assert net.forward(x) == (k.member(x),)


def test_cnf_is_demorgan_dual_of_swapped_dnf(ground):
    rng = random.Random(15)
    for _ in range(20):
        n, m = rng.randint(1, 4), rng.randint(1, 2)
        hs = randgen.halfspaces(rng, n, m)
        s = randgen.scheme(rng, n)
        swapped = Scheme(
            s.ambient, tuple(p.swapped() for p in s.pairs), s.selector
        )
        cnf = build_cnf_network(hs, s)
        dnf = build_dnf_network(hs, swapped)
        for _ in range(15):
            x = randgen.point(rng, m)
            assert cnf.forward(x)[0] == 1 - dnf.forward(x)[0]


@pytest.mark.parametrize(
    "pairs,selected",
    [
        ((IndexPair.of([1], [], 2),), []),  # nothing selected
        ((IndexPair.of([], [], 2),), [1]),  # empty pair present
        ((IndexPair.of([1], [1], 2),), [1]),  # inconsistent pair
    ],
)
def test_unsynthesizable_schemes(ground, pairs, selected):
    s = Scheme(2, pairs, IndexSet.of(selected, len(pairs)))
    with pytest.raises(SchemeError):
        build_dnf_network(ground, s)
    with pytest.raises(SchemeError):
        build_cnf_network(ground, s)


def test_synthesis_ambient_mismatch(ground):
    s = Scheme(3, (IndexPair.of([1], [], 3),), IndexSet.of([1], 1))
    with pytest.raises(SchemeError):
        build_dnf_network(ground, s)


def test_unit_row_matches_the_unit_form_oracle():
    # every nonempty consistent pair up to n = 7, as an AND and an OR unit
    for n in range(1, 8):
        for slots in product(range(3), repeat=n):
            ones = sum(1 << i for i, slot in enumerate(slots) if slot == 1)
            zeros = sum(1 << i for i, slot in enumerate(slots) if slot == 2)
            if not ones | zeros:
                continue
            for conj in (True, False):
                form = _unit_form(ones, zeros, n, conj)
                row = _unit_row(ones, zeros, n, conj)
                assert (row, 2) == _scaled_row(form, InequalityKind.LAX)


@strat.composite
def synthesis_cases(draw):
    """Half-spaces and a scheme over them that repeats pairs and mixes full
    with partial ones; now and then the scheme has an empty pair, an
    inconsistent pair or an empty selector."""
    rng = random.Random(draw(strat.integers(0, 2**32)))
    n = draw(strat.integers(1, 9))
    masks = strat.integers(0, (1 << n) - 1)
    pool = [randgen.consistent_pair(rng, n) for _ in range(draw(strat.integers(1, 5)))]
    pool.append(IndexPair(*draw(strat.tuples(masks, masks)), n))
    picks = draw(strat.lists(strat.sampled_from(pool), min_size=1, max_size=12))
    if draw(strat.booleans()):
        full = draw(masks)
        picks.append(IndexPair(full, full ^ (1 << n) - 1, n))
    selector = draw(strat.integers(0, (1 << len(picks)) - 1))
    scheme = Scheme(n, tuple(picks), IndexSet.from_mask(selector, len(picks)))
    return randgen.halfspaces(rng, n, rng.randint(1, 3)), scheme


@hypothesis.given(synthesis_cases())
def test_synthesis_matches_the_fraction_oracle(case):
    halfspaces, scheme = case
    for build, conj in ((build_dnf_network, True), (build_cnf_network, False)):
        try:
            expected = randgen.synthesize(halfspaces, scheme, conj)
        except SchemeError as exc:
            with pytest.raises(SchemeError, match=f"^{re.escape(str(exc))}$"):
                build(halfspaces, scheme)
            continue
        net = build(halfspaces, scheme)
        # formatted before any units view is read, so the AND/OR layers print from their rows
        assert format_network(net) == format_network(expected)
        assert net == expected and hash(net) == hash(expected)
        for layer, oracle in zip(net.layers, expected.layers):
            assert layer.units == oracle.units
            assert layer.scales == oracle.scales


@hypothesis.given(synthesis_cases())
def test_synthesis_takes_a_layer_as_its_first_layer(case):
    # a layer in place of the half-spaces gives the same network or the
    # same error, and is the network's first layer as it is
    halfspaces, scheme = case
    layer = PerceptronLayer(halfspaces)
    for build in (build_dnf_network, build_cnf_network):
        try:
            expected = build(halfspaces, scheme)
        except SchemeError as exc:
            with pytest.raises(SchemeError, match=f"^{re.escape(str(exc))}$"):
                build(layer, scheme)
            continue
        net = build(layer, scheme)
        assert net == expected and net.layers[0] is layer


def test_normalize_keeps_the_first_layer_object(ground):
    or_layer = PerceptronLayer([parse_halfspace("-1/2 1 1 >=")])
    deep = PerceptronNetwork((PerceptronLayer(ground), or_layer))
    assert normalize_three_layers(deep).layers[0] is deep.layers[0]


def test_pair_of_bits_golden():
    p = pair_of_bits(5, 3)
    assert p.sort_key() == ((1, 3), (2,))
    assert bits_of_index(5, 3) == (1, 0, 1)
    assert pair_of_bits(0, 2).sort_key() == ((), (1, 2))


def test_extract_and_golden(ground):
    net = build_dnf_network(ground, and_scheme())
    report = extract_scheme(net)
    assert report.enumerated_count == 4
    assert report.accepted_count == 1
    assert [p.sort_key() for p in report.scheme.pairs] == [((1, 2), ())]
    assert report.scheme.selector.members == (1,)


def test_extract_depth_one():
    net = PerceptronNetwork((PerceptronLayer([parse_halfspace("0 1 >=")]),))
    report = extract_scheme(net)
    assert report.enumerated_count == 2
    assert [p.sort_key() for p in report.scheme.pairs] == [((1,), ())]


def test_extract_round_trip_membership():
    rng = random.Random(21)
    for _ in range(20):
        m = rng.randint(1, 3)
        net = randgen.network(rng, m, max_depth=3, max_width=5)
        report = extract_scheme(net)
        k = PresentedPolyhedron(net.layers[0].units, report.scheme, Mode.DNF)
        for _ in range(20):
            x = randgen.point(rng, m)
            assert k.member(x) == net.forward(x)[0]


def test_extract_prune_keeps_membership(ground):
    h1 = (parse_halfspace("0 1 >="), parse_halfspace("0 -1 >"))
    net = build_dnf_network(h1, or_scheme())
    full = extract_scheme(net)
    pruned = extract_scheme(net, prune=True)
    # bits (1,1) would need x >= 0 and x < 0 at once
    assert pruned.pruned_count >= 1
    assert len(pruned.scheme.pairs) < len(full.scheme.pairs)
    kf = PresentedPolyhedron(h1, full.scheme, Mode.DNF)
    kp = PresentedPolyhedron(h1, pruned.scheme, Mode.DNF)
    rng = random.Random(1)
    for _ in range(40):
        x = randgen.point(rng, 1)
        assert kf.member(x) == kp.member(x)
    # pruning during extraction is prune_empty_cells on the full scheme
    for seed in range(40):
        net = randgen.network(random.Random(seed), 2, max_depth=3, max_width=5)
        full = extract_scheme(net)
        pruned = extract_scheme(net, prune=True)
        halfspaces = net.layers[0].units
        assert pruned.scheme == prune_empty_cells(halfspaces, full.scheme)
        assert pruned.pruned_count == pruned.accepted_count - pruned.scheme.q
        assert full.pruned_count == 0


def test_extract_rejects_multi_output(ground):
    net = PerceptronNetwork((PerceptronLayer(ground),))
    with pytest.raises(PreconditionError):
        extract_scheme(net)


def test_extract_enumeration_cap(ground):
    net = build_dnf_network(ground, and_scheme())
    with pytest.raises(SizeCapError):
        extract_scheme(net, cap=1)


# how many of the 2^n1 bit vectors a tail accepts
SHARES = {"none": lambda v: 0, "one": lambda v: 1, "20%": lambda v: v // 5, "80%": lambda v: 4 * v // 5, "every": lambda v: v}


@hypothesis.given(strat.integers(1, 12), strat.sampled_from(sorted(SHARES)), strat.integers(0, 2**32).map(random.Random))
def test_extraction_order_matches_the_lex_order_oracle(n1, share, rng):
    """The tail is one unit whose weights are +-2^k over shuffled k, so
    each bit vector has its own weight sum and a bias accepts exactly
    the vectors of the largest sums, as many as ``share`` asks."""
    weights = [rng.choice((-1, 1)) << k for k in rng.sample(range(n1), n1)]
    sums = sorted(((sum(w for j, w in enumerate(weights) if g >> j & 1), g) for g in range(1 << n1)), reverse=True)
    count = SHARES[share](1 << n1)
    bias = -sums[count - 1][0] if count else -sums[0][0] - 1
    tail = HalfSpace(LinearForm(Fraction(bias), tuple(map(Fraction, weights))), InequalityKind.LAX)
    net = PerceptronNetwork((PerceptronLayer(randgen.halfspaces(rng, n1, 2)), PerceptronLayer([tail])))
    report = extract_scheme(net)
    assert report.accepted_count == count
    assert report.scheme.ones_masks == randgen.lex_ordered([g for _, g in sums[:count]], n1)


def test_normalize_golden(ground):
    deep = PerceptronNetwork(
        (
            PerceptronLayer(ground),
            PerceptronLayer([parse_halfspace("-1/2 1 1 >=")]),  # OR
            PerceptronLayer([parse_halfspace("0 1 >=")]),  # pass-through
            PerceptronLayer([parse_halfspace("-1/2 1 >")]),  # threshold again
        )
    )
    flat = normalize_three_layers(deep)
    assert flat.depth == 3
    assert flat.layers[0] == deep.layers[0]
    result = check_equivalence(deep, flat)
    assert result.equivalent
    assert result.mode == "exact"
    assert result.checked == 4


def test_normalize_random_networks():
    rng = random.Random(33)
    for _ in range(15):
        m = rng.randint(1, 3)
        net = randgen.nonconstant_network(rng, m, max_depth=4, max_width=6)
        flat = normalize_three_layers(net)
        assert flat.depth == 3
        assert flat.layers[0] == net.layers[0]
        assert check_equivalence(net, flat).equivalent


def never_firing_net():
    return PerceptronNetwork(
        (
            PerceptronLayer([parse_halfspace("0 1 >=")]),
            PerceptronLayer([parse_halfspace("-3/2 1 >=")]),
        )
    )


def test_normalize_constant_zero_strict():
    with pytest.raises(SchemeError):
        normalize_three_layers(never_firing_net())


def test_normalize_constant_zero_permissive():
    got = normalize_three_layers(never_firing_net(), permit_constant=True)
    assert isinstance(got, ConstantNetwork)
    assert got.value == 0
    assert got.forward((Fraction(7),)) == (0,)
    with pytest.raises(DimensionError):
        got.forward((Fraction(1), Fraction(2)))


def test_prune_empty_cells_golden():
    hs = (parse_halfspace("0 1 >="), parse_halfspace("-1 1 >"))
    pairs = (IndexPair.of([1], [2], 2), IndexPair.of([2], [1], 2))
    s = Scheme(2, pairs, IndexSet.of([1, 2], 2))
    pruned = prune_empty_cells(hs, s)
    # x > 1 without x >= 0 is unrealizable; the slab cell stays
    assert [p.sort_key() for p in pruned.pairs] == [((1,), (2,))]
    assert pruned.selector.members == (1,)
    k_old = PresentedPolyhedron(hs, s, Mode.DNF)
    k_new = PresentedPolyhedron(hs, pruned, Mode.DNF)
    for x in randgen.grid(1, (Fraction(-1), Fraction(0), Fraction(1, 2), Fraction(2))):
        assert k_old.member(x) == k_new.member(x)


def test_prune_keeps_mute_pairs():
    hs = (parse_halfspace("0 1 >="), parse_halfspace("-1 1 >"))
    pairs = (IndexPair.of([2], [1], 2), IndexPair.of([1], [], 2))
    s = Scheme(2, pairs, IndexSet.of([2], 2))
    pruned = prune_empty_cells(hs, s)
    # the empty cell is not selected, so it survives untouched
    assert pruned == s


def test_prune_rejects_mismatched_scheme():
    hs = tuple(parse_halfspace(line) for line in ("0 1 >=", "-1 1 >", "2 -1 >="))
    # with nothing selected no cell is built, so only the ambient check sees it
    mute = Scheme(5, (IndexPair.of([1], [], 5),), IndexSet.of([], 1))
    selected = Scheme(5, mute.pairs, IndexSet.of([1], 1))
    for scheme in (mute, selected):
        with pytest.raises(PreconditionError) as info:
            prune_empty_cells(hs, scheme)
        assert str(info.value) == "scheme over 5 with 3 half-spaces"


def test_equivalence_reflexive(ground):
    net = build_dnf_network(ground, and_scheme())
    result = check_equivalence(net, net)
    assert result.equivalent and result.checked == 4


def test_equivalence_and_vs_or_counterexample(ground):
    left = build_dnf_network(ground, and_scheme())
    right = build_dnf_network(ground, or_scheme())
    result = check_equivalence(left, right)
    assert not result.equivalent
    assert result.counterexample_bits == (1, 0)
    x = result.counterexample_point
    assert x == (Fraction(0), Fraction(0))  # lax bounds pin the origin
    assert ground[0].contains(x) == 1 and ground[1].contains(x) == 0
    assert left.forward(x) != right.forward(x)


def test_equivalence_ignores_unrealizable_disagreements():
    # bits (1,1) and (0,0) need x >= 0 and x < 0 at once
    first = PerceptronLayer([parse_halfspace("0 1 >="), parse_halfspace("0 -1 >")])
    either = PerceptronNetwork((first, PerceptronLayer([parse_halfspace("-1/2 1 1 >=")])))
    not_both = PerceptronNetwork((first, PerceptronLayer([parse_halfspace("3/2 -1 -1 >")])))
    assert set(extract_scheme(either).scheme.pairs) != set(
        extract_scheme(not_both).scheme.pairs
    )
    assert check_equivalence(either, not_both).equivalent


def test_equivalence_requires_shared_first_layer(ground):
    left = build_dnf_network(ground, and_scheme())
    other = (parse_halfspace("1 1 0 >="), parse_halfspace("0 0 1 >"))
    right = build_dnf_network(other, and_scheme())
    with pytest.raises(PreconditionError):
        check_equivalence(left, right)
    with pytest.raises(DimensionError):
        check_equivalence(left, never_firing_net())


def test_equivalence_sampled(ground):
    left = build_dnf_network(ground, and_scheme())
    right = build_dnf_network(ground, or_scheme())
    same = check_equivalence(left, left, mode="sampled", seed=4, samples=50)
    assert same.equivalent and same.checked == 50
    diff = check_equivalence(left, right, mode="sampled", seed=4, samples=500)
    assert not diff.equivalent
    x = diff.counterexample_point
    assert left.forward(x) != right.forward(x)
    with pytest.raises(PreconditionError):
        check_equivalence(left, right, mode="fuzzy")


@pytest.mark.parametrize("samples", [0, -3])
def test_equivalence_sampled_needs_a_positive_sample_count(ground, samples):
    net = build_dnf_network(ground, and_scheme())
    with pytest.raises(PreconditionError, match="positive sample count"):
        check_equivalence(net, net, mode="sampled", samples=samples)


def test_equivalence_enumeration_cap(ground):
    left = build_dnf_network(ground, and_scheme())
    right = build_dnf_network(ground, or_scheme())
    with pytest.raises(SizeCapError):
        check_equivalence(left, right, cap=1)
