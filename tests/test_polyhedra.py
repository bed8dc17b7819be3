import random
import tracemalloc
from fractions import Fraction

import hypothesis
import hypothesis.strategies as strat
import pytest

from polyperc import (
    DimensionError,
    IndexPair,
    IndexSet,
    Mode,
    ParseError,
    PreconditionError,
    PresentedPolyhedron,
    Scheme,
    SchemeError,
    cell_contains,
    cnf_to_dnf,
    cocell_contains,
    complement_poly,
    conj_unit,
    disj_unit,
    dnf_to_cnf,
    format_bundle,
    intersection,
    normalize_scheme,
    parse_bundle,
    parse_halfspace,
    union,
)

from polyperc import geometry
from polyperc.cli import console_main
from polyperc.geometry import HalfSpace

import randgen


@pytest.fixture
def ground():
    # H1: x1 >= 0 (lax), H2: x2 > 0 (strict)
    return (parse_halfspace("0 1 0 >="), parse_halfspace("0 0 1 >"))


def pt(*coords):
    return tuple(Fraction(c) for c in coords)


def dnf(halfspaces, pairs, selected=None):
    n = len(halfspaces)
    q = len(pairs)
    sel = IndexSet.of(selected if selected is not None else range(1, q + 1), q)
    return PresentedPolyhedron(halfspaces, Scheme(n, tuple(pairs), sel), Mode.DNF)


def test_cell_contains_golden(ground):
    g = IndexPair.of([1], [2], 2)
    assert cell_contains(ground, g, pt(1, -1)) == 1
    assert cell_contains(ground, g, pt(1, 1)) == 0
    assert cell_contains(ground, IndexPair.of([], [], 2), pt(9, 9)) == 1
    for pair in (g, IndexPair(0, 0, 2)):
        with pytest.raises(DimensionError, match="^point has 3 coordinates, form expects 2$"):
            cell_contains(ground, pair, pt(1, 2, 3))


def test_cell_inconsistent_pair_is_empty(ground):
    g = IndexPair.of([1], [1], 2)
    rng = random.Random(0)
    for _ in range(10):
        assert cell_contains(ground, g, randgen.point(rng, 2)) == 0


def test_cocell_contains_golden(ground):
    g = IndexPair.of([1], [2], 2)
    assert cocell_contains(ground, g, pt(-1, -1)) == 1
    assert cocell_contains(ground, g, pt(-1, 1)) == 0
    assert cocell_contains(ground, IndexPair.of([], [], 2), pt(0, 0)) == 0
    for pair in (g, IndexPair(0, 0, 2)):
        with pytest.raises(DimensionError, match="^point has 3 coordinates, form expects 2$"):
            cocell_contains(ground, pair, pt(1, 2, 3))


def test_cocell_is_complement_of_swapped_cell():
    rng = random.Random(7)
    for _ in range(50):
        n, m = rng.randint(1, 4), rng.randint(1, 3)
        hs = randgen.halfspaces(rng, n, m)
        g = randgen.consistent_pair(rng, n)
        x = randgen.point(rng, m)
        assert cocell_contains(hs, g, x) == 1 - cell_contains(hs, g.swapped(), x)


def test_two_path_agreement():
    # set evaluation vs unit applied to the first-layer bit vector
    rng = random.Random(13)
    for _ in range(100):
        n, m = rng.randint(1, 5), rng.randint(1, 3)
        hs = randgen.halfspaces(rng, n, m)
        g = randgen.consistent_pair(rng, n)
        x = randgen.point(rng, m)
        bits = tuple(Fraction(h.contains(x)) for h in hs)
        assert cell_contains(hs, g, x) == conj_unit(g).contains(bits)
        assert cocell_contains(hs, g, x) == disj_unit(g).contains(bits)


def test_member_dnf_empty_selector_is_empty_set(ground):
    k = dnf(ground, [IndexPair.of([1], [], 2)], selected=[])
    assert k.member(pt(5, 5)) == 0


def test_member_cnf_empty_selector_is_whole_space(ground):
    k = PresentedPolyhedron(
        ground, Scheme(2, (), IndexSet.of([], 0)), Mode.CNF
    )
    assert k.member(pt(-9, -9)) == 1


def test_member_dnf_golden(ground):
    k = dnf(ground, [IndexPair.of([1], [2], 2), IndexPair.of([2], [1], 2)])
    assert k.member(pt(-1, 1)) == 1
    assert k.member(pt(1, 1)) == 0
    assert k.member(pt(1, -1)) == 1


def test_member_agrees_with_cell_or(ground):
    # member is the OR over selected pairs of cell membership
    rng = random.Random(29)
    for _ in range(50):
        n, m = rng.randint(1, 4), rng.randint(1, 3)
        hs = randgen.halfspaces(rng, n, m)
        k = dnf(hs, [randgen.consistent_pair(rng, n) for _ in range(rng.randint(1, 4))])
        x = randgen.point(rng, m)
        expected = max(
            (cell_contains(hs, g, x) for g in k.scheme.selected_pairs()),
            default=0,
        )
        assert k.member(x) == expected


def test_selected_pairs_must_be_consistent(ground):
    bad = IndexPair.of([1], [1], 2)
    with pytest.raises(SchemeError):
        dnf(ground, [bad])
    # unselected inconsistent pairs are allowed (mute)
    k = dnf(ground, [IndexPair.of([1], [], 2), bad], selected=[1])
    assert k.member(pt(1, 1)) == 1


def test_first_inconsistent_selected_pair_is_named(ground):
    ok, bad, worse = IndexPair.of([1], [], 2), IndexPair.of([1], [1], 2), IndexPair.of([2], [1, 2], 2)
    with pytest.raises(SchemeError, match=r"^selected pair G3 is inconsistent$"):
        dnf(ground, [ok, bad, worse, bad], selected=[1, 3, 4])


def test_union_concatenates_and_normalizes(ground):
    k1 = dnf(ground, [IndexPair.of([1], [], 2)])
    k2 = dnf(ground, [IndexPair.of([2], [], 2)])
    u = union(k1, k2)
    assert [p.sort_key() for p in u.scheme.pairs] == [((1,), ()), ((2,), ())]
    assert u.scheme.selector.members == (1, 2)
    rng = random.Random(2)
    for _ in range(30):
        x = randgen.point(rng, 2)
        assert u.member(x) == max(k1.member(x), k2.member(x))


def test_union_identity_and_idempotence(ground):
    k = dnf(ground, [IndexPair.of([1], [2], 2)])
    empty = dnf(ground, [IndexPair.of([1], [], 2)], selected=[])
    rng = random.Random(3)
    for _ in range(20):
        x = randgen.point(rng, 2)
        assert union(k, empty).member(x) == k.member(x)
        assert union(k, k).member(x) == k.member(x)


def test_intersection_merges_pairs(ground):
    k1 = dnf(ground, [IndexPair.of([1], [], 2)])
    k2 = dnf(ground, [IndexPair.of([2], [], 2)])
    meet = intersection(k1, k2)
    assert [p.sort_key() for p in meet.scheme.pairs] == [((1, 2), ())]
    rng = random.Random(4)
    for _ in range(30):
        x = randgen.point(rng, 2)
        assert meet.member(x) == min(k1.member(x), k2.member(x))


def test_intersection_drops_contradictions(ground):
    k1 = dnf(ground, [IndexPair.of([1], [], 2)])
    k2 = dnf(ground, [IndexPair.of([], [1], 2)])
    meet = intersection(k1, k2)
    assert meet.scheme.q == 0
    assert meet.member(pt(1, 1)) == 0


def test_complement_golden(ground):
    k = dnf(ground, [IndexPair.of([1], [2], 2)])
    c = complement_poly(k)
    assert [p.sort_key() for p in c.scheme.pairs] == [((), (1,)), ((2,), ())]
    for x in randgen.grid(2):
        assert c.member(x) == 1 - k.member(x)


def test_complement_of_empty_is_whole_space(ground):
    empty = dnf(ground, [IndexPair.of([1], [], 2)], selected=[])
    c = complement_poly(empty)
    assert c.member(pt(-3, -3)) == 1
    assert c.scheme.pairs[0].is_empty


def test_double_complement_pointwise(ground):
    rng = random.Random(19)
    for _ in range(20):
        k = dnf(
            ground,
            [randgen.consistent_pair(rng, 2) for _ in range(rng.randint(1, 3))],
        )
        cc = complement_poly(complement_poly(k))
        for _ in range(20):
            x = randgen.point(rng, 2)
            assert cc.member(x) == k.member(x)


def test_cnf_to_dnf_single_literal(ground):
    k = PresentedPolyhedron(
        ground,
        Scheme(2, (IndexPair.of([1], [], 2),), IndexSet.of([1], 1)),
        Mode.CNF,
    )
    d = cnf_to_dnf(k)
    assert d.mode is Mode.DNF
    assert [p.sort_key() for p in d.scheme.pairs] == [((1,), ())]


def test_cnf_to_dnf_distributes_intersection(ground):
    k = PresentedPolyhedron(
        ground,
        Scheme(
            2,
            (IndexPair.of([1], [], 2), IndexPair.of([2], [], 2)),
            IndexSet.of([1, 2], 2),
        ),
        Mode.CNF,
    )
    d = cnf_to_dnf(k)
    assert [p.sort_key() for p in d.scheme.pairs] == [((1, 2), ())]
    for x in randgen.grid(2):
        assert d.member(x) == k.member(x)


def test_dnf_cnf_round_trip_membership():
    rng = random.Random(37)
    for _ in range(20):
        n, m = rng.randint(1, 4), rng.randint(1, 2)
        hs = randgen.halfspaces(rng, n, m)
        k = dnf(
            hs,
            [
                randgen.consistent_pair(rng, n, max_literals=2)
                for _ in range(rng.randint(1, 3))
            ],
        )
        c = dnf_to_cnf(k)
        back = cnf_to_dnf(c)
        for _ in range(15):
            x = randgen.point(rng, m)
            assert c.member(x) == k.member(x)
            assert back.member(x) == k.member(x)


def test_halfspace_presentation(ground):
    s = randgen.halfspace_presentation(2, 2)
    assert s.pairs[0].sort_key() == ((2,), ())
    assert s.selector.members == (1,)
    k = PresentedPolyhedron(ground, s, Mode.DNF)
    comp = PresentedPolyhedron(ground, randgen.halfspace_presentation(2, 2, True), Mode.DNF)
    rng = random.Random(41)
    for _ in range(20):
        x = randgen.point(rng, 2)
        assert k.member(x) == ground[1].contains(x)
        assert comp.member(x) == 1 - ground[1].contains(x)
    with pytest.raises(PreconditionError):
        randgen.halfspace_presentation(3, 2)


def test_operand_checks(ground):
    other = (parse_halfspace("1 1 0 >="), parse_halfspace("0 0 1 >"))
    k1 = dnf(ground, [IndexPair.of([1], [], 2)])
    k2 = dnf(other, [IndexPair.of([1], [], 2)])
    with pytest.raises(PreconditionError):
        union(k1, k2)
    cnf = PresentedPolyhedron(k1.halfspaces, k1.scheme, Mode.CNF)
    with pytest.raises(PreconditionError):
        union(k1, cnf)
    with pytest.raises(PreconditionError):
        cnf_to_dnf(k1)


def test_bundle_round_trip(ground):
    k = dnf(ground, [IndexPair.of([1], [2], 2)])
    text = format_bundle(k)
    assert parse_bundle(text) == k
    assert format_bundle(parse_bundle(text)) == text


@strat.composite
def bundles(draw):
    """Presentations in either mode over 1 to 12 seeded half-spaces, with
    repeated and empty pairs; only the selected pairs are consistent."""
    rng = random.Random(draw(strat.integers(0, 2**32)))
    n, m = draw(strat.integers(1, 12)), draw(strat.integers(1, 3))
    masks = strat.integers(0, (1 << n) - 1)
    pairs = tuple(IndexPair(draw(masks), draw(masks), n) for _ in range(draw(strat.integers(0, 6))))
    chosen = [j for j, p in enumerate(pairs, 1) if p.is_consistent() and draw(strat.booleans())]
    scheme = Scheme(n, pairs, IndexSet.of(chosen, len(pairs)))
    return PresentedPolyhedron(randgen.halfspaces(rng, n, m), scheme, draw(strat.sampled_from(Mode)))


@strat.composite
def operands(draw):
    """Two DNF presentations over n = 1..40 half-spaces, so pair keys pass
    64 bits, each of at most 5 pairs of at most 4 literals.  Duplicate
    pairs, the empty pair, empty selectors and unselected inconsistent
    pairs all occur; a selected pair is consistent."""
    n = draw(strat.integers(1, 40))
    halfspaces = tuple(parse_halfspace(f"{i} 1 >=") for i in range(n))
    literals = strat.lists(strat.tuples(strat.integers(1, n), strat.booleans()), max_size=4)

    def presentation():
        pairs = []
        for _ in range(draw(strat.integers(0, 5))):
            if pairs and draw(strat.booleans()):
                pairs.append(draw(strat.sampled_from(pairs)))
                continue
            chosen = draw(literals)
            ones, zeros = [i for i, plain in chosen if plain], [i for i, plain in chosen if not plain]
            pairs.append(IndexPair.of(ones, zeros, n))
        selected = [j for j, pair in enumerate(pairs, 1) if pair.is_consistent() and draw(strat.booleans())]
        return dnf(halfspaces, pairs, selected)

    return presentation(), presentation()


def wide_operands():
    """Over 40 half-spaces: a duplicate pair, the empty pair and an
    unselected inconsistent pair, and an empty selector."""
    halfspaces = tuple(parse_halfspace(f"{i} 1 >=") for i in range(40))
    wide = IndexPair.of([1, 40], [33], 40)
    pairs = [wide, IndexPair.of([], [], 40), wide, IndexPair.of([7], [7, 39], 40), IndexPair.of([2], [40], 40)]
    return dnf(halfspaces, pairs, [1, 2, 3, 5]), dnf(halfspaces, pairs, [])


@hypothesis.settings(deadline=None)
@hypothesis.example(wide_operands())
@hypothesis.given(operands())
def test_algebra_on_pair_keys_matches_the_tuple_pair_oracle(ab):
    a, b = ab
    n = len(a.halfspaces)
    c = PresentedPolyhedron(a.halfspaces, a.scheme, Mode.CNF)

    def selected(k):
        return [(pair.ones_mask, pair.zeros_mask) for pair in k.scheme.selected_pairs()]

    def oracle(masks, mode=Mode.DNF):
        masks = list(masks)
        return randgen.sorted_pairs(n, masks, masks), mode

    def got(k):
        return k.scheme, k.mode

    merged = [(o1 | o2, z1 | z2) for o1, z1 in selected(a) for o2, z2 in selected(b)]
    assert got(union(a, b)) == oracle(selected(a) + selected(b))
    assert got(intersection(a, b)) == oracle((ones, zeros) for ones, zeros in merged if not ones & zeros)
    assert got(complement_poly(a)) == oracle(randgen.distribute_pairs([(z, o) for o, z in selected(a)]))
    assert got(dnf_to_cnf(a)) == oracle(randgen.distribute_pairs(selected(a)), Mode.CNF)
    assert got(cnf_to_dnf(c)) == oracle(randgen.distribute_pairs(selected(c)))
    for k in (a, b):
        pairs = list(zip(k.scheme.ones_masks, k.scheme.zeros_masks))
        assert normalize_scheme(k.scheme) == randgen.sorted_pairs(n, pairs, selected(k))


@hypothesis.given(bundles())
def test_bundle_round_trip_is_byte_identical(k):
    text = format_bundle(k)
    assert parse_bundle(text) == k
    assert format_bundle(parse_bundle(text)) == text


@pytest.mark.parametrize(
    "text",
    [
        "0 1 0 >=\nN=1\nG1: ONES=1 ZEROS=-\nJ=1\n",  # no MODE line
        "MODE=DNF\nN=1\nG1: ONES=1 ZEROS=-\nJ=1\n",  # no half-spaces
        "0 1 0 >=\nMODE=XNF\nN=1\nJ=-\n",
        "0 1 0 >=\nMODE=DNF\n",
    ],
)
def test_bundle_parse_rejects(text):
    with pytest.raises(ParseError):
        parse_bundle(text)


@pytest.mark.parametrize(
    "text, line",
    [
        ("0 1 0 >=\n0 0 1 >\n", 2),  # no MODE line: the last line is named
        ("0 1 0 >=\n\n", 2),
        ("", 1),
        ("\nMODE=DNF\nN=1\nG1: ONES=1 ZEROS=-\nJ=1\n", 2),  # no half-spaces: the MODE line
    ],
)
def test_bundle_parse_errors_name_a_line(text, line):
    with pytest.raises(ParseError) as exc:
        parse_bundle(text)
    assert exc.value.line == line


def test_bundle_parse_skips_blank_lines_between_halfspaces(ground):
    k = dnf(ground, [IndexPair.of([1], [2], 2)])
    text = format_bundle(k)
    first, rest = text.split("\n", 1)
    assert parse_bundle(first + "\n\n  \n" + rest) == k


def test_presentation_needs_halfspaces_of_one_dimension():
    with pytest.raises(PreconditionError, match="at least one half-space"):
        PresentedPolyhedron((), Scheme(0, (), IndexSet.of([], 0)), Mode.DNF)
    mixed = (parse_halfspace("0 1 >="), parse_halfspace("0 1 1 >="))
    with pytest.raises(DimensionError, match="mixed dimension"):
        PresentedPolyhedron(mixed, Scheme(2, (), IndexSet.of([], 0)), Mode.DNF)
    scheme = Scheme(1, (IndexPair.of([1], [], 1),), IndexSet.of([1], 1))
    assert PresentedPolyhedron(mixed[:1], scheme, Mode.CNF).dimension == 1
    # a bundle reports its mixed dimension after its scheme's errors and before a bad selection
    with pytest.raises(DimensionError, match="^half-spaces of mixed dimension$"):
        parse_bundle("0 1 >=\n0 1 1 >=\nMODE=DNF\nN=2\nG1: ONES=1 ZEROS=1\nJ=1\n")
    with pytest.raises(SchemeError, match="^scheme over 3 pairs with 2 half-spaces$"):
        parse_bundle("0 1 >=\n0 1 1 >=\nMODE=DNF\nN=3\nJ=-\n")


def test_bundle_huge_ambient_refused_before_any_mask():
    # a mask holding index 99999999999 would take 12.5 GB
    text = "0 1 >\nMODE=DNF\nN=100000000000\nG1: ONES=99999999999 ZEROS=-\nG2: ONES=99999999999 ZEROS=-\nJ=1\n"
    tracemalloc.start()
    try:
        with pytest.raises(SchemeError, match="scheme over 100000000000 pairs with 1 half-spaces"):
            parse_bundle(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_bundle_scheme_halfspace_mismatch_is_scheme_error(ground):
    text = "0 1 0 >=\nMODE=DNF\nN=2\nG1: ONES=1 ZEROS=-\nJ=1\n"
    with pytest.raises(SchemeError):
        parse_bundle(text)


def test_bundle_path_builds_no_halfspace(monkeypatch, tmp_path, capsys):
    """A bundle is read, queried, printed and operated on through its
    layer's rows, and every algebra result holds its operand's layer."""

    def refuse(*args):
        raise AssertionError("a HalfSpace was built")

    monkeypatch.setattr(geometry, "_unit", refuse)
    # any other route to a half-space, the units view of a layer included
    monkeypatch.setattr(HalfSpace, "__post_init__", refuse)
    head = "0 1 0 >=\n0 0 1 >\n1/2 1 -1/3 >=\n"
    texts = {
        "a": head + "MODE=DNF\nN=3\nG1: ONES=1,2 ZEROS=3\nG2: ONES=3 ZEROS=1\nJ=1,2\n",
        "b": head + "MODE=DNF\nN=3\nG1: ONES=1 ZEROS=-\nJ=1\n",
        "c": head + "MODE=CNF\nN=3\nG1: ONES=1 ZEROS=2\nJ=1\n",
        "points": "0 3\n1 1\n",
        "net": "LAYERS=2\nLAYER 2 2\n0 1 0 >=\n0 0 1 >\nLAYER 2 1\n-3/2 1 1 >=\n",
    }
    paths = {name: tmp_path / name for name in texts}
    for name, text in texts.items():
        paths[name].write_text(text, encoding="utf-8")
    bundles = {name: parse_bundle(texts[name]) for name in "abc"}
    a = bundles["a"]
    assert [a.member(x) for x in (pt(0, 3), pt(Fraction(-1, 4), 0), pt(1, 1))] == [1, 1, 0]
    assert a.dimension == 2 and a.signature(pt(1, 1)) == (1, 1, 1)
    assert format_bundle(a) == texts["a"]
    cases = [
        (["member", "a", "points"], "1\n0\n"),
        (["extract", "net"], "0 1 0 >=\n0 0 1 >\nMODE=DNF\nN=2\nG1: ONES=1,2 ZEROS=-\nJ=1\n"),
    ]
    for op, name, operands in [(union, "union", "ab"), (intersection, "intersect", "ab"),
                               (complement_poly, "complement", "a"), (dnf_to_cnf, "to-cnf", "a"),
                               (cnf_to_dnf, "to-dnf", "c")]:
        result = op(*[bundles[k] for k in operands])
        assert result.layer is bundles[operands[0]].layer
        cases.append((["algebra", name, *operands], format_bundle(result)))
    for argv, out in cases:
        assert console_main([str(paths.get(arg, arg)) for arg in argv]) == 0, argv
        assert capsys.readouterr() == (out, ""), argv
