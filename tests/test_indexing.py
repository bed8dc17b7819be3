import random
import tracemalloc

import hypothesis
import hypothesis.strategies as strat
import pytest

from polyperc import (
    IndexPair,
    IndexSet,
    ParseError,
    PreconditionError,
    Scheme,
    SizeCapError,
    format_scheme,
    normalize_scheme,
    parse_scheme,
)
from polyperc import indexing
from polyperc.indexing import MAX_AMBIENT, MAX_SCHEME_BITS, lex_key

import randgen


def subsets(ambient):
    return strat.sets(strat.integers(1, ambient)).map(
        lambda s: IndexSet.of(s, ambient)
    )


def test_index_set_of_sorts_and_dedups():
    s = IndexSet.of([3, 1, 3, 2], 5)
    assert s.members == (1, 2, 3)
    assert s.size == 3
    assert 2 in s and 5 not in s


@pytest.mark.parametrize("members", [(2, 1), (0,), (1, 1), (6,)])
def test_index_set_validation(members):
    with pytest.raises(ValueError):
        IndexSet(members, 5)


def test_lex_sets_prefix_is_less():
    a = IndexSet.of([1], 3)
    b = IndexSet.of([1, 2], 3)
    assert a.members < b.members
    assert b.members > a.members
    assert a.members == IndexSet.of([1, 1], 3).members


@hypothesis.given(subsets(6), subsets(6), subsets(6))
def test_lex_sets_is_a_total_order(a, b, c):
    # member tuples are ascending, so tuple order is the lexicographic order
    assert [a.members < b.members, a == b, a.members > b.members].count(True) == 1
    if a.members <= b.members and b.members <= c.members:
        assert a.members <= c.members


def test_pair_consistency_and_swap():
    g = IndexPair.of([1, 3], [2], 4)
    assert g.is_consistent()
    assert not g.is_empty
    assert g.swapped().ones.members == (2,)
    bad = IndexPair.of([1], [1, 2], 4)
    assert not bad.is_consistent()


def test_pair_lex_order_ones_first():
    a = IndexPair.of([], [1, 2], 2)
    b = IndexPair.of([1], [2], 2)
    c = IndexPair.of([1, 2], [], 2)
    d = IndexPair.of([2], [1], 2)
    assert a.sort_key() < b.sort_key()
    assert b.sort_key() < c.sort_key()
    assert c.sort_key() < d.sort_key()


def test_scheme_selector_must_match_pair_count():
    pair = IndexPair.of([1], [], 2)
    with pytest.raises(PreconditionError):
        Scheme(2, (pair,), IndexSet.of([1], 3))


@pytest.mark.parametrize(
    "pair",
    [IndexPair(0b101, 0, 2), IndexPair(0, 0b100, 2), IndexPair(-1, 0, 2), IndexPair(0, -2, 2)],
)
def test_scheme_rejects_pair_masks_outside_ambient(pair):
    # such a scheme would format as ONES=1,3, which parse_scheme refuses
    with pytest.raises(PreconditionError, match="outside 1..2"):
        Scheme(2, (pair,), IndexSet.of([1], 1))


@pytest.mark.parametrize("mask", [0b10, 0b101, -1])
def test_scheme_rejects_selector_masks_past_the_pairs(mask):
    with pytest.raises(PreconditionError, match="outside 1..1"):
        Scheme(2, (IndexPair.of([1], [], 2),), IndexSet.from_mask(mask, 1))


@pytest.mark.parametrize(
    "pairs, selector",
    [
        ((IndexPair(0, 0, 2),), IndexSet.of([1], 1)),
        ((), IndexSet.of([], 0)),
    ],
)
def test_scheme_rejects_a_negative_ambient(pairs, selector):
    with pytest.raises(PreconditionError, match="ambient -1 is negative"):
        Scheme(-1, pairs, selector)


@pytest.mark.parametrize(
    "build", [lambda: IndexPair(0, 0, -1), lambda: IndexSet.from_mask(0, -1), lambda: IndexSet([], -1)]
)
def test_pairs_and_mask_sets_reject_a_negative_ambient(build):
    with pytest.raises(ValueError, match="non-negative"):
        build()


def test_scheme_selected_pairs():
    pairs = (IndexPair.of([1], [], 2), IndexPair.of([2], [], 2))
    s = Scheme(2, pairs, IndexSet.of([2], 2))
    assert s.q == 2
    assert s.selected_pairs() == (pairs[1],)


def is_normalized(scheme):
    keys = [pair.sort_key() for pair in scheme.pairs]
    return all(a < b for a, b in zip(keys, keys[1:]))


def test_normalize_sorts_dedups_and_keeps_selection():
    p1 = IndexPair.of([2], [], 2)
    p2 = IndexPair.of([1], [], 2)
    raw = Scheme(2, (p1, p2, p1), IndexSet.of([1], 3))
    norm = normalize_scheme(raw)
    assert norm.pairs == (p2, p1)
    # the selected copy of p1 keeps p1 selected at its new position
    assert norm.selector.members == (2,)
    assert is_normalized(norm)


def test_normalize_is_idempotent_random():
    rng = random.Random(5)
    for _ in range(100):
        s = randgen.scheme(rng, rng.randint(1, 5))
        n = normalize_scheme(s)
        assert normalize_scheme(n) == n
        assert is_normalized(n)


def test_scheme_round_trip_golden():
    text = "N=3\nG1: ONES=1,3 ZEROS=2\nG2: ONES=- ZEROS=1\nJ=1,2\n"
    s = parse_scheme(text)
    assert s.ambient == 3
    assert s.pairs[0].ones.members == (1, 3)
    assert s.pairs[1].ones.is_empty
    assert format_scheme(s) == text


def test_scheme_round_trip_random():
    rng = random.Random(17)
    for _ in range(100):
        s = randgen.scheme(rng, rng.randint(1, 6))
        assert parse_scheme(format_scheme(s)) == s


def test_empty_selector_round_trip():
    s = parse_scheme("N=2\nG1: ONES=1 ZEROS=-\nJ=-\n")
    assert s.selector.is_empty


@pytest.mark.parametrize(
    "text",
    [
        "",
        "G1: ONES=1 ZEROS=-\nJ=1\n",
        "N=0\nJ=-\n",
        "N=2\nG2: ONES=1 ZEROS=-\nJ=1\n",
        "N=2\nG1: ONES=1 ZEROS=-\n",
        "N=2\nG1: ONES=1 ZEROS=-\nJ=1\nextra\n",
        "N=2\nG1: ONES=3 ZEROS=-\nJ=1\n",
        "N=2\nG1: ONES=x ZEROS=-\nJ=1\n",
        "N=2\nG1: ONES=2,1 ZEROS=-\nJ=1\n",
        "N=2\nG1: ONES=1,1 ZEROS=-\nJ=1\n",
        "N=2\nG1: ONES=0 ZEROS=-\nJ=1\n",
        "N=2\nG1: ONES=- ZEROS=2,1\nJ=1\n",
        "N=2\nG1: ONES=1 ZEROS=-\nG2: ONES=2 ZEROS=-\nJ=2,1\n",
        "N=2\nG1: ONES=1 ZEROS=-\nJ=0\n",
    ],
)
def test_scheme_parse_rejects(text):
    # unordered, repeated or zero indices would OR into a mask unnoticed
    # and break the byte round trip, so they are refused with a line
    with pytest.raises(ParseError) as info:
        parse_scheme(text)
    assert info.value.line is not None


def test_huge_ambient_refused_before_any_mask():
    # a mask holding index 99999999999 would take 12.5 GB
    text = "\nN=100000000000\nG1: ONES=99999999999 ZEROS=-\nJ=1\n"
    tracemalloc.start()
    try:
        with pytest.raises(ParseError, match=f"at most {MAX_AMBIENT}") as info:
            parse_scheme(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert info.value.line == 2  # the N= line
    assert parse_scheme(f"N={MAX_AMBIENT}\nG1: ONES=1 ZEROS=-\nJ=1\n").ambient == MAX_AMBIENT


def test_pair_lines_times_ambient_refused_before_any_mask():
    # 20 distinct masks over 2^24 would take 40 MiB; the 17th pair line is
    # the first past the bound, and it is refused before any mask is built
    lines = [f"G{k}: ONES={MAX_AMBIENT - k} ZEROS=-" for k in range(1, 21)]
    text = "\n".join([f"N={MAX_AMBIENT}", *lines, "J=1"]) + "\n"
    tracemalloc.start()
    try:
        with pytest.raises(ParseError, match=f"at most {MAX_SCHEME_BITS}") as info:
            parse_scheme(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert info.value.line == 18
    lines = [f"G{k}: ONES={MAX_AMBIENT} ZEROS=-" for k in range(1, 17)]
    at_bound = parse_scheme("\n".join([f"N={MAX_AMBIENT}", *lines, "J=1"]) + "\n")
    assert at_bound.q * at_bound.ambient == MAX_SCHEME_BITS


def test_writer_refuses_the_schemes_the_reader_refuses(monkeypatch):
    monkeypatch.setattr(indexing, "MAX_SCHEME_BITS", 12)
    three = Scheme(4, [IndexPair.of([k], [], 4) for k in (1, 2, 3)], IndexSet.of([1, 3], 3))
    assert parse_scheme(format_scheme(three)) == three
    four = Scheme(4, [IndexPair.of([k], [], 4) for k in (1, 2, 3, 4)], IndexSet.of([1, 3], 4))
    with pytest.raises(SizeCapError, match="is 16, past 12"):
        format_scheme(four)
    wide = Scheme(MAX_AMBIENT + 1, [], IndexSet.of([], 0))
    with pytest.raises(SizeCapError, match=f"N={MAX_AMBIENT + 1} is past {MAX_AMBIENT}"):
        format_scheme(wide)


def test_repeated_bad_index_list_reports_its_first_line():
    text = "N=2\nG1: ONES=1 ZEROS=-\nG2: ONES=2,1 ZEROS=-\nG3: ONES=1 ZEROS=-\nG4: ONES=- ZEROS=2,1\nJ=1\n"
    with pytest.raises(ParseError, match="2,1") as info:
        parse_scheme(text)
    assert info.value.line == 3


@pytest.mark.parametrize(
    "text, line",
    [
        ("N=2\nG1: ONES=1,2 ZEROS=-\nG2: ONES=- ZEROS=1,2\nG3: ONES=1,2 ZEROS=3\nJ=1\n", 4),
        ("N=2\nG1: ONES=1 ZEROS=2\nG2: ONES=1 ZEROS=2\nG3: ONES=3 ZEROS=2\nJ=1\n", 4),
        # J= counts pairs, not N=: a list valid in a pair is checked anew
        ("N=3\nG1: ONES=1,2 ZEROS=-\nJ=1,2\n", 3),
    ],
)
def test_repeated_valid_index_list_does_not_excuse_a_later_line(text, line):
    with pytest.raises(ParseError) as info:
        parse_scheme(text)
    assert info.value.line == line


def test_repeated_index_lists_parse_to_equal_masks():
    text = "N=3\nG1: ONES=1,3 ZEROS=-\nG2: ONES=- ZEROS=1,3\nG3: ONES=1,3 ZEROS=2\nJ=1,3\n"
    s = parse_scheme(text)
    assert [(p.ones_mask, p.zeros_mask) for p in s.pairs] == [(5, 0), (0, 5), (5, 2)]
    assert format_scheme(s) == text


def tuple_order(pairs):
    return sorted(pairs, key=lambda p: (p.ones.members, p.zeros.members))


def test_normalize_order_is_member_tuple_order():
    rng = random.Random(11)
    for n in range(6):
        pairs = [IndexPair(ones, zeros, n) for ones in range(1 << n) for zeros in range(1 << n)]
        rng.shuffle(pairs)
        raw = Scheme(n, tuple(pairs), IndexSet.of(range(1, len(pairs) + 1), len(pairs)))
        assert list(normalize_scheme(raw).pairs) == tuple_order(pairs)


def normalized_by_reference(scheme):
    """Sort by sort_key, merge equal pairs, and select a merged pair when
    any of its copies was selected."""
    selected = {}
    for j, pair in enumerate(scheme.pairs, 1):
        selected[pair] = selected.get(pair, False) or j in scheme.selector
    ordered = sorted(selected, key=IndexPair.sort_key)
    chosen = [k for k, pair in enumerate(ordered, 1) if selected[pair]]
    return Scheme(scheme.ambient, tuple(ordered), IndexSet(chosen, len(ordered)))


@strat.composite
def raw_schemes(draw):
    """Unsorted schemes that repeat pairs, under any selector, over
    ambients past one machine word."""
    n = draw(strat.integers(1, 100))
    masks = strat.integers(0, (1 << n) - 1)
    pool = draw(strat.lists(strat.tuples(masks, masks), min_size=1, max_size=6))
    picks = draw(strat.lists(strat.sampled_from(pool), max_size=14))
    pairs = tuple(IndexPair(ones, zeros, n) for ones, zeros in picks)
    return Scheme(n, pairs, IndexSet.from_mask(draw(strat.integers(0, (1 << len(pairs)) - 1)), len(pairs)))


@hypothesis.given(raw_schemes())
def test_normalize_agrees_with_reference(raw):
    assert normalize_scheme(raw) == normalized_by_reference(raw)


def test_extraction_key_is_member_tuple_order():
    # extract_scheme sorts full pairs by lex_key of their ones mask alone
    for n in range(11):
        masks = list(range(1 << n))
        expected = sorted(masks, key=lambda g: IndexSet.from_mask(g, n).members)
        assert sorted(masks, key=lex_key) == expected


@strat.composite
def members_over(draw):
    n = draw(strat.integers(0, 70))
    return n, tuple(sorted(draw(strat.sets(strat.integers(1, max(n, 1)))) if n else ()))


@hypothesis.given(members_over())
def test_index_set_mask_agrees_with_members(case):
    n, members = case
    s = IndexSet(members, n)
    assert s.mask == sum(1 << (i - 1) for i in members)
    assert s.members == tuple(s) == members
    assert s.size == len(members) and s.is_empty == (not members)
    for i in range(-1, n + 2):
        assert (i in s) == (i in members)
    assert s == IndexSet.from_mask(s.mask, n) == IndexSet.of(reversed(members), n)


@strat.composite
def schemes(draw):
    """Any scheme the format can hold: empty, inconsistent and repeated
    pairs, over ambients past one machine word."""
    n = draw(strat.integers(1, 70))
    q = draw(strat.integers(0, 6))
    masks = strat.integers(0, (1 << n) - 1)
    pairs = tuple(IndexPair(draw(masks), draw(masks), n) for _ in range(q))
    return Scheme(n, pairs, IndexSet.from_mask(draw(strat.integers(0, (1 << q) - 1)), q))


@hypothesis.given(schemes())
def test_scheme_round_trip_is_byte_identical(s):
    text = format_scheme(s)
    assert parse_scheme(text) == s
    assert format_scheme(parse_scheme(text)) == text


def of_columns(ambient, pairs, selector):
    """The private column constructor, fed the masks of ``pairs``."""
    ones = tuple(pair.ones_mask for pair in pairs)
    return Scheme._of_columns(ambient, ones, tuple(pair.zeros_mask for pair in pairs), selector)


# (ambient, pairs, selector, message); each fault alone in an otherwise valid scheme
SCHEME_FAULTS = [
    (2, (IndexPair(0b101, 0, 2),), IndexSet.of([1], 1), "pair names an index outside 1..2"),
    (2, (IndexPair(0, 0, 2), IndexPair(0, 0b100, 2)), IndexSet.of([1], 2), "pair names an index outside 1..2"),
    (2, (IndexPair(0, -2, 2),), IndexSet.of([1], 1), "pair names an index outside 1..2"),
    (2, (IndexPair(1, 0, 2),), IndexSet.of([1], 3), "selector ambient must equal the number of pairs"),
    (2, (), IndexSet.of([1], 1), "selector ambient must equal the number of pairs"),
    (2, (IndexPair(1, 0, 2),), IndexSet.from_mask(0b10, 1), "selector names a pair outside 1..1"),
    (2, (IndexPair(1, 0, 2),), IndexSet.from_mask(-1, 1), "selector names a pair outside 1..1"),
    (-1, (), IndexSet.of([], 0), "scheme ambient -1 is negative"),
]


@pytest.mark.parametrize("build", [Scheme, of_columns], ids=["pairs", "columns"])
@pytest.mark.parametrize(
    "ambient, pairs, selector, message",
    SCHEME_FAULTS,
    ids=["index-past-ambient", "later-pair-past-ambient", "negative-mask", "selector-too-wide",
         "selector-without-pairs", "selector-bit-past-q", "negative-selector", "negative-ambient"],
)
def test_both_scheme_constructors_raise_the_same_errors(build, ambient, pairs, selector, message):
    with pytest.raises(PreconditionError) as info:
        build(ambient, pairs, selector)
    assert str(info.value) == message


def test_scheme_refuses_a_pair_over_another_ambient():
    # columns hold no per-pair ambient, so only the public constructor can see this
    with pytest.raises(PreconditionError, match="^pair over 3 in a scheme over 2$"):
        Scheme(2, (IndexPair(1, 0, 2), IndexPair(1, 0, 3)), IndexSet.of([1], 2))


@hypothesis.given(raw_schemes())
def test_column_form_round_trips(s):
    """A scheme is its columns: rebuilding it from its ``pairs`` view, or
    from its text, gives an equal scheme with an equal hash, and its
    normal form is a fixed point that agrees with the sort_key reference."""
    for again in (Scheme(s.ambient, s.pairs, s.selector), of_columns(s.ambient, s.pairs, s.selector),
                  parse_scheme(format_scheme(s))):
        assert again == s and hash(again) == hash(s)
    assert s.pairs == tuple(IndexPair(o, z, s.ambient) for o, z in zip(s.ones_masks, s.zeros_masks))
    assert s.selected_pairs() == tuple(s.pairs[j - 1] for j in s.selector)
    norm = normalize_scheme(s)
    assert normalize_scheme(norm) == norm == normalized_by_reference(s)
    assert hash(normalize_scheme(norm)) == hash(norm)


def test_format_members_matches_the_member_list():
    def oracle(mask):
        return ",".join(map(str, indexing._members(mask))) or "-"

    for mask in range(1 << 12):
        assert indexing._format_members(mask) == oracle(mask)
    rng = random.Random(200)
    for _ in range(500):
        mask = rng.getrandbits(rng.randint(1, 200))
        assert indexing._format_members(mask) == oracle(mask)


@pytest.mark.parametrize("digits", [600, 4000])
def test_a_long_member_is_echoed_short(digits):
    index = "1" + "0" * (digits - 1)
    with pytest.raises(ParseError) as exc:
        parse_scheme(f"N=3\nG1: ONES={index} ZEROS=-\nJ=1\n")
    shown = f"bad index list {index[:32]!r}... ({digits} characters)"
    assert exc.value.message.startswith(shown) and len(exc.value.message) < 150
    # the same text at any int-string digit limit
    assert exc.value.message == f"{shown}: member {index[:32]}... ({digits} digits) exceeds ambient 3"


@pytest.mark.parametrize("digits", [600, 700, 4000])
def test_a_long_ambient_is_refused_as_too_large(digits):
    with pytest.raises(ParseError, match=r"^line 1: scheme ambient must be at most 16777216$"):
        parse_scheme(f"N={'9' * digits}\nJ=-\n")


def test_index_set_echoes_a_long_member_short():
    with pytest.raises(ValueError, match=r"^member 1(0){31}\.\.\. \(5001 digits\) exceeds ambient 3$"):
        IndexSet([10**5000], 3)
