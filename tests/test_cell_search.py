"""Realizable-cell search behind pruning, pruned extraction and exact
equivalence.

The search must decide every selected pair exactly as one elimination of
the pair's own system does, so the reference here is the per-pair
``randgen.cell_is_empty`` loop over the Fraction cell systems.  The
digests pin the points that ``witness``, ``cell_witness``, exact
``check_equivalence`` and the CLI print; they were computed with one
``Fraction`` sum per bound in back-substitution and a per-pair prune
loop, and must not move.
"""

import hashlib
import random
from fractions import Fraction
from itertools import islice
from unittest import mock

import hypothesis
import hypothesis.strategies as strat
import pytest

import polyperc.feasibility as feasibility
from polyperc import (
    DimensionError,
    HalfSpace,
    IndexPair,
    IndexSet,
    InequalityKind,
    LinearForm,
    PerceptronLayer,
    PerceptronNetwork,
    Scheme,
    SizeCapError,
    cell_contains,
    cell_witness,
    check_equivalence,
    format_halfspace,
    format_network,
    prune_empty_cells,
    witness,
)
from polyperc.cli import console_main

import randgen


def sha256_of_repr(value):
    return hashlib.sha256(repr(value).encode()).hexdigest()


def full_pair(g, n):
    return IndexPair(g, ~g & ((1 << n) - 1), n)


def parallel_arrangement(rng, n, m):
    """Random half-spaces, about a third of them rescaled or shifted
    copies of earlier ones, flipped or not, in either kind."""
    out = []
    for _ in range(n):
        if out and rng.random() < 0.35:
            h = rng.choice(out)
            scale = Fraction(rng.choice((1, 2, 3)), rng.choice((1, 2))) * rng.choice((1, -1))
            shift = rng.choice((0, 0, Fraction(1, 2), -1))
            form = LinearForm(scale * h.form.bias + shift, tuple(scale * w for w in h.form.weights))
            kind = rng.choice(list(InequalityKind))
            out.append(HalfSpace(form, kind))
        else:
            out.append(randgen.halfspace(rng, m))
    return tuple(out)


def realizable_cell_points(rng, count):
    """For every realizable full sign pattern of seeded arrangements in 1
    to 4 dimensions: ``cell_witness`` and ``witness`` on the cell's
    constraints in reverse order."""
    out = []
    for _ in range(count):
        m, n = rng.randint(1, 4), rng.randint(3, 7)
        hs = parallel_arrangement(rng, n, m)
        for g in range(1 << n):
            pair = full_pair(g, n)
            point = cell_witness(hs, pair)
            if point is not None:
                cell = randgen.system_of_cell(hs, pair)
                reverse = type(cell)(cell.constraints[::-1])
                out.append((g, point, witness(reverse)))
    return out


@strat.composite
def arrangements_with_a_pair(draw):
    """A ``parallel_arrangement`` of 1 to 7 half-spaces in 1 to 4
    dimensions, one full, partial or inconsistent pair over it, and a
    random point."""
    m, n = draw(strat.integers(1, 4)), draw(strat.integers(1, 7))
    rng = random.Random(draw(strat.integers(0, 2**32 - 1)))
    hs = parallel_arrangement(rng, n, m)
    masks = strat.integers(0, (1 << n) - 1)
    ones, zeros = draw(masks), draw(masks)
    shape = draw(strat.sampled_from(["full", "partial", "inconsistent"]))
    if shape == "full":
        zeros = ones ^ ((1 << n) - 1)
    elif shape == "partial":
        zeros &= ~ones
    else:
        clash = 1 << draw(strat.integers(0, n - 1))
        ones, zeros = ones | clash, zeros | clash
    return hs, IndexPair(ones, zeros, n), randgen.point(rng, m)


@hypothesis.settings(deadline=None)
@hypothesis.given(arrangements_with_a_pair())
def test_cell_route_matches_the_fraction_oracle(case):
    # the integer cell rows against the Fraction system of complemented
    # half-spaces: the same witness bytes, the same emptiness, and the same
    # membership at a random point, the witness and the origin
    hs, pair, x = case
    cell = randgen.system_of_cell(hs, pair)
    point = cell_witness(hs, pair)
    assert repr(point) == repr(witness(cell, dim=hs[0].dimension))
    assert (point is None) == randgen.cell_is_empty(hs, pair)
    origin = (Fraction(0),) * hs[0].dimension
    for y in (x, origin) if point is None else (x, origin, point):
        assert cell_contains(hs, pair, y) == int(cell.satisfies(y))


def shared_first_layer_pairs(rng, count):
    """Pairs of single-output networks over one first layer of 3 to 7
    half-spaces in 1 to 3 dimensions, with independent random tails."""
    out = []
    for _ in range(count):
        m, n1 = rng.randint(1, 3), rng.randint(3, 7)
        first = PerceptronLayer(parallel_arrangement(rng, n1, m))
        nets = []
        for _ in range(2):
            widths = [rng.randint(1, 4) for _ in range(rng.randint(0, 1))] + [1]
            layers, fan_in = [first], n1
            for width in widths:
                layers.append(PerceptronLayer(tuple(randgen.halfspace(rng, fan_in) for _ in range(width))))
                fan_in = width
            nets.append(PerceptronNetwork(tuple(layers)))
        out.append(tuple(nets))
    return out


def equivalence_results(pairs):
    return [check_equivalence(left, right) for left, right in pairs]


def cli_texts(tmp_path, capsys, pairs, systems):
    def write(name, text):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    def run(*argv):
        code = console_main(list(argv))
        captured = capsys.readouterr()
        return f"{argv[0]} {code}\n{captured.out}{captured.err}"

    out = []
    for k, (left, right) in enumerate(pairs):
        out.append(run("equiv", write(f"l{k}", format_network(left)), write(f"r{k}", format_network(right))))
    for k, system in enumerate(systems):
        out.append(run("feasible", write(f"s{k}", "".join(format_halfspace(h) + "\n" for h in system))))
    return out


CELL_POINTS_DIGEST = "fcf267400636a785925bcfa0855f0402ff913d6c3bd59dd15124cb5febb496b8"
EQUIV_DIGEST = "043da5feb77d4caa1324c21279cd52471460dd759fabf391d68e4886b9eff5ba"
CLI_DIGEST = "79812f1bcf2ee117586d371c4c46dba9fb9a3001d4659ae56f667d408b5c88dd"


def test_realizable_cell_points_pinned():
    out = realizable_cell_points(random.Random(1201), 40)
    assert (len(out), sum(a != b for _, a, b in out)) == (625, 0)
    assert sha256_of_repr(out) == CELL_POINTS_DIGEST


def test_exact_equivalence_pinned():
    out = equivalence_results(shared_first_layer_pairs(random.Random(1202), 80))
    assert sum(r.counterexample_point is not None for r in out) == 57
    assert sha256_of_repr(out) == EQUIV_DIGEST


def test_cli_equiv_and_feasible_pinned(tmp_path, capsys):
    rng = random.Random(1203)
    pairs = shared_first_layer_pairs(rng, 20)
    systems = [parallel_arrangement(rng, rng.randint(2, 7), rng.randint(1, 4)) for _ in range(40)]
    assert sha256_of_repr(cli_texts(tmp_path, capsys, pairs, systems)) == CLI_DIGEST


def pruned_pair_by_pair(halfspaces, scheme, cap=feasibility.DEFAULT_CONSTRAINT_CAP):
    """The reference: one ``randgen.cell_is_empty`` per selected pair."""
    keep, selected = [], []
    for k, pair in enumerate(scheme.pairs, 1):
        chosen = k in scheme.selector
        if chosen and randgen.cell_is_empty(halfspaces, pair, cap):
            continue
        keep.append(pair)
        if chosen:
            selected.append(len(keep))
    return Scheme(scheme.ambient, tuple(keep), IndexSet.of(selected, len(keep)))


@strat.composite
def arrangements_with_schemes(draw):
    """Half-spaces in 1 to 4 dimensions on a few hyperplane directions,
    with zero weights allowed: parallel ones (other bias), coincident ones
    (a rescaled form, either side, either kind) and single ones.  The
    scheme mixes partial, empty, inconsistent and repeated pairs, and
    leaves some of them mute."""
    dim = draw(strat.integers(1, 4))
    weights = strat.lists(strat.integers(-2, 2), min_size=dim, max_size=dim).filter(any)
    directions = draw(strat.lists(weights, min_size=1, max_size=3))
    biases = [Fraction(b, 2) for b in range(-3, 4)]
    halfspaces = []
    for _ in range(draw(strat.integers(1, 7))):
        direction = draw(strat.sampled_from(directions))
        scale = draw(strat.sampled_from([1, 2, -1, -3, Fraction(1, 2)]))
        bias = draw(strat.sampled_from(biases))
        form = LinearForm(scale * bias, tuple(scale * w for w in direction))
        halfspaces.append(HalfSpace(form, draw(strat.sampled_from(InequalityKind))))
    n = len(halfspaces)
    masks = strat.integers(0, (1 << n) - 1)
    pairs = [IndexPair(draw(masks), draw(masks), n) for _ in range(draw(strat.integers(1, 6)))]
    pairs += draw(strat.lists(strat.sampled_from(pairs), max_size=3))
    pairs = draw(strat.permutations(pairs))
    selector = IndexSet.from_mask(draw(strat.integers(0, (1 << len(pairs)) - 1)), len(pairs))
    return tuple(halfspaces), Scheme(n, tuple(pairs), selector)


@hypothesis.settings(deadline=None, max_examples=300)
@hypothesis.given(arrangements_with_schemes())
def test_search_decides_as_each_pair_alone(case):
    halfspaces, scheme = case
    assert prune_empty_cells(halfspaces, scheme) == pruned_pair_by_pair(halfspaces, scheme)


@hypothesis.settings(deadline=None, max_examples=300)
@hypothesis.given(arrangements_with_schemes(), strat.integers(1, 6))
def test_search_meets_the_cap_only_where_a_lone_cell_does(case, cap):
    # a prefix may meet a small cap where its full cell ends early on a
    # contradiction; the search then decides those pairs one at a time
    halfspaces, scheme = case
    try:
        alone = pruned_pair_by_pair(halfspaces, scheme, cap)
    except SizeCapError:
        return
    with mock.patch.object(feasibility, "DEFAULT_CONSTRAINT_CAP", cap):
        assert prune_empty_cells(halfspaces, scheme) == alone


def test_prefix_over_the_cap_falls_back_to_each_cell(monkeypatch):
    # rows 4..9 hold x3 between three lower and three upper bounds whose
    # nine combinations exceed a cap of 8; rows 1 and 2 ask x4 >= 1 and
    # x4 <= 0, so each full cell ends on that contradiction first
    def lax(bias, *weights):
        form = LinearForm(Fraction(bias), tuple(map(Fraction, weights)))
        return HalfSpace(form, InequalityKind.LAX)

    hs = (
        lax(-1, 0, 0, 0, 1), lax(0, 0, 0, 0, -1), lax(0, 1, 0, 0, 0),
        lax(-1, 1, 0, 1, 0), lax(0, 0, 2, 1, 0), lax(0, 3, 5, 1, 0),
        lax(0, 0, 0, -1, 0), lax(0, 1, 3, -1, 0), lax(0, -2, 1, -1, 0),
    )
    pairs = (IndexPair(0b111111111, 0, 9), IndexPair(0b111111011, 0b100, 9))
    with pytest.raises(SizeCapError):
        randgen.cell_is_empty(hs, IndexPair(0b111111000, 0, 9), cap=8)
    assert all(randgen.cell_is_empty(hs, pair, cap=8) for pair in pairs)
    monkeypatch.setattr(feasibility, "DEFAULT_CONSTRAINT_CAP", 8)
    assert prune_empty_cells(hs, Scheme(9, pairs, IndexSet.of([1, 2], 2))).q == 0


@hypothesis.settings(deadline=None, max_examples=300)
@hypothesis.given(arrangements_with_schemes(), strat.integers(1, 6), strat.data())
def test_first_search_finds_the_smallest_realizable_full_pair(case, cap, data):
    # the reference tries full pairs in key order up to the first with a
    # witness; the search must give its answer wherever that loop does
    halfspaces, _ = case
    n = len(halfspaces)
    keys = sorted(data.draw(strat.sets(strat.integers(0, (1 << n) - 1))))
    smallest = set()
    try:
        for g in keys:
            if cell_witness(halfspaces, full_pair(g, n), cap) is not None:
                smallest = {g}
                break
    except SizeCapError:
        return
    entries = [(g, g, full_pair(g, n).zeros_mask) for g in keys]
    with mock.patch.object(feasibility, "DEFAULT_CONSTRAINT_CAP", cap):
        rows = PerceptronLayer(halfspaces).lowered
        assert set(islice(feasibility._realizable(rows, entries), 1)) == smallest


def test_prune_over_thousands_of_halfspaces():
    rng = random.Random(1204)
    n = 5000
    hs = randgen.halfspaces(rng, n, 2)
    sparse = [
        IndexPair.of(rng.sample(range(1, n + 1), 3), rng.sample(range(1, n + 1), 2), n)
        for _ in range(6)
    ]
    scheme = Scheme(n, tuple(sparse), IndexSet.of(range(1, 5), 6))
    assert prune_empty_cells(hs, scheme) == pruned_pair_by_pair(hs, scheme)
    # every half-space holds at the origin, so two copies of the pair that
    # takes them all walk one path 5000 half-spaces deep
    origin = tuple(HalfSpace(LinearForm(abs(h.form.bias) + 1, h.form.weights), h.kind) for h in hs)
    deep = Scheme(n, (IndexPair((1 << n) - 1, 0, n),) * 2, IndexSet.of([1, 2], 2))
    assert prune_empty_cells(origin, deep) == deep


def test_prune_keeps_each_pair_to_its_dimension():
    # half-spaces 1-4 live on a line, 5-8 in space; a selected pair may
    # use either group but not both
    rng = random.Random(1207)
    hs = randgen.halfspaces(rng, 4, 1) + randgen.halfspaces(rng, 4, 3)
    pairs = [IndexPair(g << shift, (15 ^ g) << shift, 8) for shift in (0, 4) for g in range(16)]
    scheme = Scheme(8, tuple(pairs), IndexSet.of(range(1, 33), 32))
    assert prune_empty_cells(hs, scheme) == pruned_pair_by_pair(hs, scheme)
    mixed = Scheme(8, (IndexPair.of([1], [], 8), IndexPair.of([2], [5], 8)), IndexSet.of([1, 2], 2))
    with pytest.raises(DimensionError, match="mixed constraint dimensions"):
        prune_empty_cells(hs, mixed)


def counted_eliminations(monkeypatch, run):
    calls = []
    eliminate = feasibility._eliminate

    def counting(*args):
        calls.append(1)
        return eliminate(*args)

    monkeypatch.setattr(feasibility, "_eliminate", counting)
    result = run()
    monkeypatch.undo()
    return result, len(calls)


def test_one_elimination_per_disjoint_sparse_pair(monkeypatch):
    rng = random.Random(1205)
    n = 40
    hs = randgen.halfspaces(rng, n, 3)
    order = rng.sample(range(1, n + 1), n)
    pairs = tuple(IndexPair.of(order[k : k + 3], order[k + 3 : k + 5], n) for k in range(0, n, 5))
    scheme = Scheme(n, pairs, IndexSet.of(range(1, len(pairs) + 1), len(pairs)))
    pruned, count = counted_eliminations(monkeypatch, lambda: prune_empty_cells(hs, scheme))
    assert count <= len(pairs)
    assert pruned == pruned_pair_by_pair(hs, scheme)


def full_scheme(n):
    pairs = tuple(full_pair(g, n) for g in range(1 << n))
    return Scheme(n, pairs, IndexSet.from_mask((1 << len(pairs)) - 1, len(pairs)))


def test_full_schemes_take_one_elimination_per_prefix_cell(monkeypatch):
    # each realizable cell of the last d < n half-spaces splits once, and
    # only the child that misses its point eliminates
    rng = random.Random(1206)
    counts = {}
    for m, n in ((2, 10), (3, 8)):
        hs = randgen.halfspaces(rng, n, m)
        scheme = full_scheme(n)
        searched, count = counted_eliminations(monkeypatch, lambda: prune_empty_cells(hs, scheme))
        alone, per_pair = counted_eliminations(monkeypatch, lambda: pruned_pair_by_pair(hs, scheme))
        prefix_cells = sum(prune_empty_cells(hs[-d:], full_scheme(d)).q for d in range(1, n)) + 1
        assert searched == alone
        assert per_pair == 1 << n
        assert count <= prefix_cells
        counts[m, n] = count
    # 170 of 1024 here; (3, 8) in general position takes 162 of 256
    assert 2 * counts[2, 10] <= 1 << 10
    assert counts[3, 8] < 1 << 8
