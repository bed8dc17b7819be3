"""Output bytes pinned over a seeded corpus.

Extraction (plain and pruned), three-layer normalization, every
operation of the presentation algebra and scheme normalization print
text; so does the CLI on the same inputs.  The sha256 of each list of
texts below was computed on member-tuple index sets.  A change in how
index sets are stored or ordered must leave every byte alone.
"""

import hashlib
import random

import pytest

from polyperc import (
    Mode,
    PerceptronLayer,
    PerceptronNetwork,
    PresentedPolyhedron,
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
        path.write_text(text)
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
