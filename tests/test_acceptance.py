"""End-to-end acceptance gate.

Each criterion below runs as one test, checks exact rational equalities
only (no tolerances anywhere), and prints a single PASS/FAIL line with
its runtime against a pinned budget.  conftest replays the lines in the
terminal summary so they survive pytest's capture.
"""

import itertools
import random
import time
from contextlib import contextmanager
from fractions import Fraction

from polyperc import (
    IndexPair,
    InequalityKind,
    InequalitySystem,
    Mode,
    PresentedPolyhedron,
    bits_of_index,
    build_cnf_network,
    build_dnf_network,
    check_equivalence,
    cnf_to_dnf,
    complement_poly,
    conj_form,
    conj_unit,
    disj_form,
    disj_unit,
    dnf_to_cnf,
    extract_scheme,
    format_bundle,
    format_halfspace,
    format_network,
    format_scheme,
    intersection,
    is_feasible,
    normalize_three_layers,
    parse_bundle,
    parse_halfspace,
    parse_network,
    parse_scheme,
    union,
    witness,
)
from polyperc.cli import console_main

import randgen

HALF = Fraction(1, 2)

ACCEPTANCE_LINES = []


@contextmanager
def criterion(number, name, budget):
    info = {"detail": ""}
    start = time.monotonic()
    try:
        yield info
    except BaseException:
        elapsed = time.monotonic() - start
        _report(number, name, "FAIL", elapsed, budget, info["detail"])
        raise
    elapsed = time.monotonic() - start
    ok = elapsed < budget
    _report(number, name, "PASS" if ok else "FAIL", elapsed, budget, info["detail"])
    assert ok, f"criterion {number} took {elapsed:.2f}s, budget {budget}s"


def _report(number, name, status, elapsed, budget, detail):
    line = f"ACCEPTANCE {number} {name}: {status} in {elapsed:.2f}s (budget {budget:g}s)"
    if detail:
        line += f" - {detail}"
    ACCEPTANCE_LINES.append(line)
    print(line)


def consistent_nonempty_pairs(n):
    for slots in itertools.product((0, 1, 2), repeat=n):
        ones = tuple(i + 1 for i, s in enumerate(slots) if s == 1)
        zeros = tuple(i + 1 for i, s in enumerate(slots) if s == 2)
        if ones or zeros:
            yield IndexPair.of(ones, zeros, n)


def test_criterion_1_unit_truth_tables():
    with criterion(1, "unit-truth-tables", 10.0) as info:
        # route 1: the public Fraction-valued forms and units, small n
        rational_checks = 0
        for n in range(1, 6):
            for pair in consistent_nonempty_pairs(n):
                cf, df = conj_form(pair), disj_form(pair)
                cu, du = conj_unit(pair), disj_unit(pair)
                ones = set(pair.ones.members)
                zeros = set(pair.zeros.members)
                for g in range(1 << n):
                    bits = bits_of_index(g, n)
                    match = all(bits[i - 1] for i in ones) and not any(
                        bits[i - 1] for i in zeros
                    )
                    hit = any(bits[i - 1] for i in ones) or not all(
                        bits[i - 1] for i in zeros
                    )
                    cv, dv = cf.evaluate(bits), df.evaluate(bits)
                    assert cv.denominator == 2 and dv.denominator == 2
                    assert cv == HALF if match else cv <= -HALF
                    assert dv >= HALF if hit else dv == -HALF
                    assert cu.contains(bits) == int(match)
                    assert du.contains(bits) == int(hit)
                    rational_checks += 2

        # route 2: integer truth tables over the full range of sizes
        kernel_checks = 0
        rng = random.Random(1601)
        plan = [(n, None) for n in range(1, 8)] + [
            (n, [randgen.consistent_pair(rng, n) for _ in range(300)])
            for n in (8, 9, 10)
        ]
        mode = "all pairs to n=7 + 300 sampled pairs at n=8..10"
        for n, sampled in plan:
            pairs = sampled if sampled is not None else consistent_nonempty_pairs(n)
            rows = []
            for pair in pairs:
                rows.append(randgen.sweep_row(pair, True))
                rows.append(randgen.sweep_row(pair, False))
            checks, failures, first_row, first_b = randgen.sweep_unit_tables(n, rows)
            assert checks == len(rows) * (1 << n)
            assert failures == 0, (n, first_row, first_b)
            if sampled is None:
                assert len(rows) == 2 * (3**n - 1)
            kernel_checks += checks
        info["detail"] = (
            f"{rational_checks} rational checks, {kernel_checks} kernel checks"
            f" ({mode})"
        )


def test_criterion_2_synthesis_equivalence():
    with criterion(2, "synthesis-equivalence", 30.0) as info:
        rng = random.Random(2202)
        points_checked = 0
        for _ in range(200):
            m = rng.randint(1, 3)
            n = rng.randint(1, 6)
            hs = randgen.halfspaces(rng, n, m)
            s = randgen.scheme(rng, n, max_pairs=8)
            dnf_net = build_dnf_network(hs, s)
            cnf_net = build_cnf_network(hs, s)
            dnf_poly = PresentedPolyhedron(hs, s, Mode.DNF)
            cnf_poly = PresentedPolyhedron(hs, s, Mode.CNF)
            points = [
                randgen.point(rng, m, span=10, max_den=3) for _ in range(500)
            ]
            points += randgen.grid(m)
            for x in points:
                assert dnf_net.forward(x) == (dnf_poly.member(x),)
                assert cnf_net.forward(x) == (cnf_poly.member(x),)
                points_checked += 1
        info["detail"] = f"200 instances, {points_checked} points, both modes"


_NETWORKS = []


def hundred_networks():
    """The shared instance set for criteria 3 and 4."""
    if not _NETWORKS:
        rng = random.Random(3303)
        for _ in range(100):
            m = rng.randint(1, 3)
            _NETWORKS.append(
                (m, randgen.nonconstant_network(rng, m, max_depth=4, max_width=8))
            )
    return _NETWORKS


def test_criterion_3_extraction_round_trip():
    with criterion(3, "extraction-round-trip", 60.0) as info:
        rng = random.Random(3304)
        points_checked = 0
        for m, net in hundred_networks():
            report = extract_scheme(net)
            assert report.enumerated_count == 1 << net.layers[0].output_dim
            k = PresentedPolyhedron(net.layers[0].units, report.scheme, Mode.DNF)
            for _ in range(500):
                x = randgen.point(rng, m, span=10, max_den=3)
                assert (k.member(x),) == net.forward(x)
                points_checked += 1
        info["detail"] = f"100 networks, {points_checked} points"


def test_criterion_4_three_layers_suffice():
    with criterion(4, "three-layers-suffice", 60.0) as info:
        for m, net in hundred_networks():
            flat = normalize_three_layers(net)
            assert flat.depth == 3
            assert flat.layers[0] == net.layers[0]
            result = check_equivalence(net, flat, mode="exact")
            assert result.equivalent
            assert result.checked == 1 << net.layers[0].output_dim
        info["detail"] = "100 networks normalized and compared exhaustively"


def test_criterion_5_boolean_algebra_laws():
    with criterion(5, "boolean-algebra-laws", 30.0) as info:
        rng = random.Random(5505)
        law_checks = 0
        for _ in range(50):
            m = rng.randint(1, 3)
            n = rng.randint(1, 5)
            hs = randgen.halfspaces(rng, n, m)
            a = PresentedPolyhedron(
                hs, randgen.scheme(rng, n, max_pairs=3, max_literals=2), Mode.DNF
            )
            b = PresentedPolyhedron(
                hs, randgen.scheme(rng, n, max_pairs=3, max_literals=2), Mode.DNF
            )
            ca, cb = complement_poly(a), complement_poly(b)
            demorgan_u = complement_poly(union(a, b))
            demorgan_i = complement_poly(intersection(a, b))
            double = complement_poly(ca)
            idem_u, idem_i = union(a, a), intersection(a, a)
            as_cnf = dnf_to_cnf(a)
            back = cnf_to_dnf(as_cnf)
            presentations = [
                (PresentedPolyhedron(hs, randgen.halfspace_presentation(i, n), Mode.DNF), i, 1)
                for i in range(1, n + 1)
            ] + [
                (
                    PresentedPolyhedron(
                        hs, randgen.halfspace_presentation(i, n, complementary=True), Mode.DNF
                    ),
                    i,
                    0,
                )
                for i in range(1, n + 1)
            ]
            points = randgen.grid(m) + [randgen.point(rng, m) for _ in range(10)]
            for x in points:
                ma, mb = a.member(x), b.member(x)
                assert demorgan_u.member(x) == min(ca.member(x), cb.member(x))
                assert demorgan_i.member(x) == max(ca.member(x), cb.member(x))
                assert double.member(x) == ma
                assert idem_u.member(x) == ma
                assert idem_i.member(x) == ma
                assert as_cnf.member(x) == ma
                assert back.member(x) == ma
                for pres, i, sense in presentations:
                    want = hs[i - 1].contains(x)
                    assert pres.member(x) == (want if sense else 1 - want)
                law_checks += 7 + len(presentations)
        info["detail"] = f"50 instances, {law_checks} pointwise law checks"


def test_criterion_6_feasibility_soundness():
    with criterion(6, "feasibility-soundness", 30.0) as info:
        rng = random.Random(6606)
        witnesses = 0
        samples_1d = [(Fraction(i, 4),) for i in range(-40, 41)]
        half_grid = [Fraction(i, 2) for i in range(-12, 13)]
        samples_2d = [(u, v) for u in half_grid for v in half_grid]
        for _ in range(500):
            m = rng.randint(1, 2)
            hs = randgen.halfspaces(rng, rng.randint(1, 5), m)
            s = InequalitySystem(tuple((h.form, h.kind) for h in hs))
            w = witness(s)
            feasible = is_feasible(s)
            assert (w is not None) == feasible
            if w is not None:
                witnesses += 1
                assert s.satisfies(w)
            hit = any(
                s.satisfies(x) for x in (samples_1d if m == 1 else samples_2d)
            )
            if hit:
                assert feasible
            if not feasible:
                assert not hit
        for _ in range(100):
            form = randgen.halfspace(rng, rng.randint(1, 2)).form
            lax = InequalitySystem(
                ((form, InequalityKind.LAX), (form.negated(), InequalityKind.LAX))
            )
            strict = InequalitySystem(
                ((form, InequalityKind.STRICT), (form.negated(), InequalityKind.STRICT))
            )
            w = witness(lax)
            assert w is not None and form.evaluate(w) == 0
            assert not is_feasible(strict)
        info["detail"] = f"500 systems ({witnesses} witnesses) + 100 boundary pairs"


AND_NET = """\
LAYERS=3
LAYER 2 2
0 1 0 >=
0 0 1 >
LAYER 2 1
-3/2 1 1 >=
LAYER 1 1
-1/2 1 >=
"""

XOR_NET = """\
LAYERS=3
LAYER 2 2
0 1 0 >=
0 0 1 >
LAYER 2 2
-1/2 1 1 >=
-3/2 1 1 >=
LAYER 2 1
-1/2 1 -1 >=
"""

HS_TEXT = "0 1 0 >=\n0 0 1 >\n"
AND_SCHEME = "N=2\nG1: ONES=1,2 ZEROS=-\nJ=1\n"
AND_BUNDLE = HS_TEXT + "MODE=DNF\nN=2\nG1: ONES=1,2 ZEROS=-\nJ=1\n"
XOR_BUNDLE = HS_TEXT + "MODE=DNF\nN=2\nG1: ONES=1 ZEROS=2\nG2: ONES=2 ZEROS=1\nJ=1,2\n"


def test_criterion_7_cli_golden_files(tmp_path, capsys):
    def write(name, text):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    def run(*argv):
        code = console_main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out

    with criterion(7, "cli-golden-files", 10.0) as info:
        # byte-identical serialization round trips
        assert format_halfspace(parse_halfspace("-3/2 1 1 >=")) == "-3/2 1 1 >="
        assert format_scheme(parse_scheme(AND_SCHEME)) == AND_SCHEME
        assert format_network(parse_network(AND_NET)) == AND_NET
        assert format_network(parse_network(XOR_NET)) == XOR_NET
        assert format_bundle(parse_bundle(AND_BUNDLE)) == AND_BUNDLE
        assert format_bundle(parse_bundle(XOR_BUNDLE)) == XOR_BUNDLE

        # worked examples: synthesis, evaluation, extraction
        code, out = run("synth", write("h", HS_TEXT), write("s", AND_SCHEME))
        assert code == 0 and out == AND_NET
        and_path = write("and.net", AND_NET)
        code, out = run("eval", and_path, write("p1", "1 1\n1 -1\n"))
        assert code == 0 and out == "1\n0\n"
        xor_path = write("xor.net", XOR_NET)
        code, out = run("eval", xor_path, write("p2", "1 -1\n1 1\n-1 1\n-1 -1\n"))
        assert code == 0 and out == "1\n0\n1\n0\n"
        code, out = run("extract", and_path)
        assert code == 0 and out == AND_BUNDLE
        code, out = run("extract", xor_path)
        assert code == 0 and out == XOR_BUNDLE
        code, out = run("normalize", and_path)
        assert code == 0 and out == AND_NET

        # the exit code table, one exercise per code
        or_scheme = "N=2\nG1: ONES=1 ZEROS=-\nG2: ONES=2 ZEROS=-\nJ=1,2\n"
        code, out = run("synth", write("h2", HS_TEXT), write("s2", or_scheme))
        assert code == 0
        or_path = write("or.net", out)
        code, out = run("equiv", and_path, or_path)
        assert code == 1 and out == "COUNTEREXAMPLE b=(1,0)\nWITNESS=(0,0)\n"
        code, _ = run("feasible", write("f1", "0 1 >\n0 -1 >\n"))
        assert code == 1
        code, _ = run("feasible", write("f2", "0 1 >=\n0 x >=\n"))
        assert code == 2
        code, _ = run("eval", and_path, write("p3", "1 2 3\n"))
        assert code == 3
        code, _ = run("synth", write("h3", HS_TEXT), write("s3", "N=2\nJ=-\n"))
        assert code == 4
        code, _ = run("extract", and_path, "--cap", "1")
        assert code == 5
        info["detail"] = "round trips byte-identical, worked examples, exit codes 0-5"
