"""Output bytes pinned over a seeded corpus.

Extraction (plain and pruned), three-layer normalization, every
operation of the presentation algebra and scheme normalization print
text; so does the CLI on the same inputs.  The sha256 of each list of
texts below was computed on member-tuple index sets.  A change in how
index sets are stored or ordered must leave every byte alone.

A second, wide corpus has the sizes of the benchmark's algebra slots:
8 to 12 half-spaces and hundreds to thousands of distributed terms, so
the same masks recur across many pairs.  Its digests were computed
before scheme normalization, formatting and parsing worked per
distinct mask.
"""

import hashlib
import random

import pytest

from polyperc import (
    Mode,
    PerceptronLayer,
    PerceptronNetwork,
    IndexPair,
    IndexSet,
    PresentedPolyhedron,
    Scheme,
    cnf_to_dnf,
    complement_poly,
    dnf_to_cnf,
    extract_scheme,
    format_bundle,
    format_halfspace,
    format_network,
    format_scheme,
    intersection,
    normalize_scheme,
    normalize_three_layers,
    union,
)
from polyperc.cli import console_main

import randgen


def sha256_of_texts(texts):
    return hashlib.sha256("\x00".join(texts).encode()).hexdigest()


def networks(rng, count):
    """Single-output networks of depth 2 to 4 whose first layer emits 3
    to 9 bits and whose tail accepts at least one of them."""
    out = []
    while len(out) < count:
        m = rng.choice((1, 2, 3))
        widths = [rng.randint(3, 9)] + [rng.randint(1, 5) for _ in range(rng.randint(0, 2))] + [1]
        fan_in, layers = m, []
        for width in widths:
            layers.append(PerceptronLayer(tuple(randgen.halfspace(rng, fan_in) for _ in range(width))))
            fan_in = width
        net = PerceptronNetwork(tuple(layers))
        if extract_scheme(net).accepted_count:
            out.append(net)
    return out


def extraction_texts(nets):
    out = []
    for net in nets:
        out.append(format_scheme(extract_scheme(net).scheme))
        out.append(format_scheme(extract_scheme(net, prune=True).scheme))
        out.append(format_network(normalize_three_layers(net)))
    return out


def presentations(rng, count):
    """(a, b, c): two DNF presentations and one CNF over a shared ground."""
    out = []
    for _ in range(count):
        m, n = rng.choice((1, 2, 3)), rng.randint(1, 6)
        hs = randgen.halfspaces(rng, n, m)
        a, b, c = (randgen.scheme(rng, n, max_pairs=6, max_literals=4) for _ in range(3))
        out.append(
            (
                PresentedPolyhedron(hs, a, Mode.DNF),
                PresentedPolyhedron(hs, b, Mode.DNF),
                PresentedPolyhedron(hs, c, Mode.CNF),
            )
        )
    return out


def algebra_texts(triples):
    out = []
    for a, b, c in triples:
        for k in (union(a, b), intersection(a, b), complement_poly(a), dnf_to_cnf(b), cnf_to_dnf(c)):
            out.append(format_bundle(k))
        out.append(format_scheme(normalize_scheme(a.scheme)))
    return out


def cli_runs(tmp_path, capsys, nets, triples):
    def write(name, text):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    def run(*argv):
        code = console_main(list(argv))
        captured = capsys.readouterr()
        return f"{argv[0]} {code}\n{captured.out}{captured.err}"

    out = []
    for k, net in enumerate(nets):
        path = write(f"net{k}", format_network(net))
        out.append(run("extract", path))
        out.append(run("extract", path, "--prune"))
        out.append(run("normalize", path))
        out.append(run("extract", path, "--cap", "5"))
    for k, (a, b, c) in enumerate(triples):
        pa, pb, pc = (write(f"{name}{k}", format_bundle(x)) for name, x in zip("abc", (a, b, c)))
        hs = write(f"h{k}", "".join(format_halfspace(h) + "\n" for h in a.halfspaces))
        out.append(run("algebra", "union", pa, pb))
        out.append(run("algebra", "intersect", pa, pb))
        out.append(run("algebra", "complement", pa))
        out.append(run("algebra", "to-cnf", pb))
        out.append(run("algebra", "to-dnf", pc))
        out.append(run("synth", hs, write(f"s{k}", format_scheme(a.scheme))))
        out.append(run("prune", hs, write(f"s{k}", format_scheme(b.scheme))))
        # the previous ground's scheme: a different N= exits 3 or 4
        other = write(f"s{k}", format_scheme(triples[k - 1][0].scheme))
        out.append(run("synth", hs, other))
        out.append(run("prune", hs, other))
    return out


EXTRACTION_DIGEST = "aea8e10f29168baa314b7d8a71b8e5b40cbb3e099019e89142afff262cf3f7ac"
ALGEBRA_DIGEST = "1c7907c50065f64b7065e6a415e2bef13126d3bd974c1feb8adab0321edc4265"
CLI_DIGEST = "44ad545e0c9dbfbdc0b61c8b4e88fdfcf032cfaf27800e5b07be8a5479d57f1e"


@pytest.fixture(scope="module")
def corpus():
    return networks(random.Random(1101), 30), presentations(random.Random(1102), 120)


def test_extraction_outputs_pinned(corpus):
    nets, _ = corpus
    assert sha256_of_texts(extraction_texts(nets)) == EXTRACTION_DIGEST


def test_algebra_outputs_pinned(corpus):
    _, triples = corpus
    assert sha256_of_texts(algebra_texts(triples)) == ALGEBRA_DIGEST


def test_cli_outputs_pinned(corpus, tmp_path, capsys):
    nets, triples = corpus
    assert sha256_of_texts(cli_runs(tmp_path, capsys, nets[:8], triples[:12])) == CLI_DIGEST


def wide_pair(rng, n, literals):
    indices = rng.sample(range(1, n + 1), literals)
    ones = [i for i in indices if rng.random() < 0.5]
    return IndexPair.of(ones, set(indices) - set(ones), n)


def wide_scheme(rng, n, literals, q):
    return Scheme(n, tuple(wide_pair(rng, n, literals) for _ in range(q)), IndexSet.of(range(1, q + 1), q))


def wide_presentations(rng):
    """(a, b, c) as in the algebra slots: A of 4-literal pairs whose
    distribution has hundreds to thousands of terms, a small B and a
    CNF C of 3-literal pairs."""
    out = []
    for n, qa, qc in ((8, 5, 5), (10, 6, 6), (12, 6, 5), (12, 7, 6)):
        hs = randgen.halfspaces(rng, n, rng.choice((2, 3)))
        a, b, c = wide_scheme(rng, n, 4, qa), wide_scheme(rng, n, 3, 4), wide_scheme(rng, n, 3, qc)
        out.append(
            (
                PresentedPolyhedron(hs, a, Mode.DNF),
                PresentedPolyhedron(hs, b, Mode.DNF),
                PresentedPolyhedron(hs, c, Mode.CNF),
            )
        )
    return out


def shuffled_copies(rng, scheme):
    """The scheme's pairs, some twice, shuffled, under a random selector."""
    pairs = list(scheme.pairs) + rng.sample(scheme.pairs, scheme.q // 3)
    rng.shuffle(pairs)
    selected = [j for j in range(1, len(pairs) + 1) if rng.random() < 0.5]
    return Scheme(scheme.ambient, tuple(pairs), IndexSet.of(selected, len(pairs)))


def wide_algebra_texts(rng, triples):
    out = []
    for a, b, c in triples:
        complement = complement_poly(a)
        results = (
            complement,
            dnf_to_cnf(a),
            cnf_to_dnf(c),
            union(a, b),
            union(complement, a),
            intersection(a, b),
            intersection(complement, b),
        )
        out.extend(format_bundle(k) for k in results)
        out.append(format_scheme(normalize_scheme(shuffled_copies(rng, complement.scheme))))
    return out


def wide_cli_runs(tmp_path, capsys, triples):
    def write(name, text):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    def run(*argv):
        code = console_main(list(argv))
        captured = capsys.readouterr()
        return f"{argv[1]} {code}\n{captured.out}{captured.err}"

    out = []
    for k, (a, b, c) in enumerate(triples):
        pa, pb, pc = (write(f"{name}{k}", format_bundle(x)) for name, x in zip("abc", (a, b, c)))
        out.append(run("algebra", "complement", pa))
        complement = write(f"n{k}", out[-1].split("\n", 1)[1])
        out.append(run("algebra", "to-cnf", pa))
        out.append(run("algebra", "to-dnf", pc))
        out.append(run("algebra", "union", complement, pb))
        out.append(run("algebra", "intersect", complement, pb))
    return out


WIDE_ALGEBRA_DIGEST = "3ecaa7af033a574d41b87e1aa0adf2db56060b1f0248b1f212c1eb782b1bb823"
WIDE_CLI_DIGEST = "4939c39d1c7a50d4e4d88e9d2098f1a4f026d412db7d83b94b2011c945bfeca5"


@pytest.fixture(scope="module")
def wide_corpus():
    return wide_presentations(random.Random(1301))


def test_wide_algebra_outputs_pinned(wide_corpus):
    assert sha256_of_texts(wide_algebra_texts(random.Random(1302), wide_corpus)) == WIDE_ALGEBRA_DIGEST


def test_wide_cli_outputs_pinned(wide_corpus, tmp_path, capsys):
    assert sha256_of_texts(wide_cli_runs(tmp_path, capsys, wide_corpus)) == WIDE_CLI_DIGEST
