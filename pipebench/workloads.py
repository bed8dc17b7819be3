"""The four workloads: seeded inputs, the ops of one round, and their checks.

``generate(workload, seed, workdir)`` writes the input files and
``manifest.json`` and returns the benchmark's own expected results.
``build_ops(...)`` turns the loaded objects into the op list of one
round.  Instance sizes are fixed per slot; only their contents come from
the seed, so every seed gives the same amount of work up to the
instances' own structure.
"""

from __future__ import annotations

import json
import os
import random
from fractions import Fraction

import gen
from harness import Op, expect

# (input dimension, half-spaces, mode) of each pointwise presentation
POINT_SLOTS = [(1, 4, "DNF"), (1, 5, "CNF"), (2, 6, "DNF"), (2, 7, "CNF"),
               (2, 8, "DNF"), (3, 8, "CNF"), (3, 9, "DNF"), (3, 10, "CNF")]
POINTS = 48
# (input dimension, first-layer width, hidden widths) of deep networks
DEEP_SLOTS = [(2, 6, (4, 3)), (3, 7, (5, 3))]
SAMPLES = 60

# (input dimension, first-layer width n1) of the enumerate networks: two
# per width, so that neighbouring op costs are close and the percentiles
# do not jump between ops of very different cost from seed to seed
ENUM_SLOTS = [(m, n1) for n1 in range(8, 15) for m in (2, 3)] + [(3, 16)]
ENUM_TAIL = (6, 4)
NORMALIZE_MAX = 14   # normalized networks grow with the accepted set
EQUIV_MAX = 11       # exact equiv enumerates the normalized tail too
CLI_EXTRACT_MAX = 14
CLI_NORMALIZE_MAX = 12
FULL_CHECK_MAX = 12  # accepted sets are checked on every vector up to here
SAMPLE_CHECK = 2048

# (input dimension, half-spaces, also through the CLI) of the cells
# arrangements
ARRANGEMENTS = [(2, 8, True), (2, 9, True), (2, 10, False),
                (3, 7, True), (3, 8, True), (3, 8, False)]
EQUIV_PAIRS = [(2, 8), (3, 7)]
# (input dimension, constraints) of the planted systems
SYSTEMS = [(2, 6), (2, 7), (3, 6), (3, 7), (2, 8), (3, 8), (2, 5), (3, 5)]
CONTRADICTED = 4
CLI_FEASIBLE = 3
CLI_INFEASIBLE = 2
# Known fault: feasible, but printing the witness needs more than the
# interpreter's 4300-digit int-to-string limit.  Fixed, seed-free inputs.
HUGE_SYSTEMS = ["1e5000 1 >=\n", "1e5000 1 -1 >=\n0 0 1 >\n"]

# (input dimension, half-spaces, A, pairs of B, C) per algebra slot, with A
# and C given as (literals per pair, pairs, distributed terms).  The term
# count sets the time of complement and of the DNF/CNF rewrites; each
# target is the median term count of such pairs, so that a few redraws
# reach it.
ALGEBRA_SLOTS = [
    (2, 8, (4, 5, 303), 3, (3, 5, 96)),
    (3, 8, (4, 6, 495), 4, (3, 6, 156)),
    (2, 8, (4, 7, 740), 3, (3, 6, 156)),
    (3, 10, (4, 6, 952), 4, (3, 5, 112)),
    (2, 12, (4, 6, 1469), 3, (3, 5, 135)),
    (3, 10, (4, 7, 1801), 4, (3, 6, 211)),
    (2, 10, (4, 8, 2875), 3, (3, 6, 211)),
    (3, 12, (4, 7, 3196), 4, (3, 6, 279)),
    (2, 10, (4, 9, 4094), 3, (3, 7, 325)),
    (3, 12, (4, 8, 6645), 4, (3, 7, 550)),
]
ALGEBRA_POINTS = 64
ALGEBRA_VECTORS = 256


def _writer(workdir):
    def write(name, text):
        with open(os.path.join(workdir, name), "w", encoding="utf-8") as handle:
            handle.write(text)
        return name
    return write


def _masks_of_scheme(scheme):
    """(ones, zeros) masks of every pair, read off the program's scheme."""
    out = []
    for pair in scheme.pairs:
        ones = zeros = 0
        for i in pair.ones.members:
            ones |= 1 << (i - 1)
        for i in pair.zeros.members:
            zeros |= 1 << (i - 1)
        out.append((ones, zeros))
    return out


def _read_out(path):
    def view(code):
        with open(path, encoding="utf-8") as handle:
            return code, handle.read()
    return view


def _cli(console_main, workdir, tag, argv, check, known_fault=False):
    out = os.path.join(workdir, f"out-{tag}")
    return Op(f"cli.{argv[0]}", lambda: console_main([*argv, "--out", out]), check,
              view=_read_out(out), known_fault=known_fault)


def _lines(text):
    return [int(line) for line in text.splitlines()]


# ---------------------------------------------------------------------------
# pointwise


def _gen_pointwise(rng, write):
    files = {"poly": [], "deep": []}
    spec = {"poly": []}
    for k, (dim, n, mode) in enumerate(POINT_SLOTS):
        hs = [gen.halfspace(rng, dim) for _ in range(n)]
        pairs, selected = gen.scheme(rng, n, 3 + k % 4, 1, 3)
        pts = gen.points(rng, hs, POINTS)
        lowered = [gen.lower(h) for h in hs]
        expected = [gen.scheme_member(pairs, selected, mode, gen.signature(lowered, p)) for p in pts]
        files["poly"].append({
            "bundle": write(f"p{k}.bundle", gen.fmt_bundle(hs, pairs, selected, mode)),
            "points": write(f"p{k}.pts", "".join(gen.fmt_point(p) + "\n" for p in pts)),
            "halfspaces": write(f"p{k}.hs", "".join(gen.fmt_hs(h) + "\n" for h in hs)),
            "scheme": write(f"p{k}.scheme", gen.fmt_scheme(n, pairs, selected)),
        })
        spec["poly"].append({"expected": expected})
    for k, (dim, n1, widths) in enumerate(DEEP_SLOTS):
        while True:
            net = [[gen.halfspace(rng, dim) for _ in range(n1)]] + gen.tail(rng, n1, widths, 0.3)
            tail = gen.lower_net(net)[1:]
            if any(gen.tail_output(tail, g) for g in range(1 << n1)):
                break
        files["deep"].append(write(f"d{k}.net", gen.fmt_net(net)))
    return files, spec


def _ops_pointwise(pp, console_main, objs, files, spec, workdir):
    ops = []
    path = lambda name: os.path.join(workdir, name)  # noqa: E731
    for k, (poly, net, batch) in enumerate(zip(objs["polys"], objs["nets"], objs["batches"])):
        slot, expected = files["poly"][k], spec["poly"][k]["expected"]
        dnf = poly.mode is pp.Mode.DNF
        build = pp.build_dnf_network if dnf else pp.build_cnf_network
        synth_out = path(f"out-synth{k}")  # written by the CLI synth op, read by CLI eval

        def check_synth(value, net=net, poly=poly):
            expect(value == net and value.depth == 3 and value.layers[0].units == poly.halfspaces,
                   "synthesized network differs from the set-up build")

        def check_bits(value, expected=expected):
            expect(value == [(e,) for e in expected], "forward bits differ from the own evaluation")

        def check_member(value, expected=expected):
            expect(value == expected, "membership bits differ from the own evaluation")

        def check_cli_synth(value, net=net):
            code, text = value
            expect(code == 0 and pp.parse_network(text) == net, "CLI synth output does not parse back to the network")

        def check_cli_lines(value, expected=expected):
            code, text = value
            expect(code == 0 and _lines(text) == expected, "CLI output lines differ from the own evaluation")

        ops += [
            Op("transform.build_dnf_network" if dnf else "transform.build_cnf_network",
               lambda b=build, p=poly: b(p.halfspaces, p.scheme), check_synth),
            Op("network.forward", lambda n=net, b=batch: [n.forward(x) for x in b], check_bits,
               counts=lambda _, c=len(batch): {"network.points": c}),
            Op("polyhedra.member", lambda p=poly, b=batch: [p.member(x) for x in b], check_member,
               counts=lambda _, c=len(batch): {"polyhedra.points": c}),
            _cli(console_main, workdir, f"synth{k}",
                 ["synth", path(slot["halfspaces"]), path(slot["scheme"]), "--mode", "dnf" if dnf else "cnf"],
                 check_cli_synth),
        ]
        with open(path(slot["points"]), encoding="utf-8") as handle:
            lines = handle.read().splitlines()
        ops += [
            Op("geometry.parse_point", lambda ls=lines: [pp.parse_point(line) for line in ls],
               lambda value, b=batch: expect(value == b, "parsed points differ"),
               counts=lambda v: {"geometry.values": sum(map(len, v))}, traced_only=True),
            _cli(console_main, workdir, f"eval{k}", ["eval", synth_out, path(slot["points"])], check_cli_lines),
            _cli(console_main, workdir, f"member{k}", ["member", path(slot["bundle"]), path(slot["points"])],
                 check_cli_lines),
        ]
    for k, (deep, norm) in enumerate(zip(objs["deep"], objs["norms"])):
        def check_sampled(value):
            expect(value.equivalent and value.checked == SAMPLES and value.counterexample_point is None,
                   "sampled equiv of a network and its normalization is not EQUIVALENT")
        ops.append(Op("transform.check_equivalence.sampled",
                      lambda d=deep, n=norm, s=k: pp.check_equivalence(d, n, mode="sampled", seed=s, samples=SAMPLES),
                      check_sampled))
    return ops


# ---------------------------------------------------------------------------
# enumerate


def _gen_enumerate(rng, write):
    files = {"nets": []}
    spec = {"nets": []}
    for k, (dim, n1) in enumerate(ENUM_SLOTS):
        net = [[gen.halfspace(rng, dim) for _ in range(n1)]] + gen.tail(rng, n1, ENUM_TAIL, 0.2)
        tail = gen.lower_net(net)[1:]
        if n1 <= FULL_CHECK_MAX:
            vectors = range(1 << n1)
        else:
            vectors = sorted({rng.getrandbits(n1) for _ in range(SAMPLE_CHECK)})
        outputs = {g: gen.tail_output(tail, g) for g in vectors}
        files["nets"].append(write(f"e{k}.net", gen.fmt_net(net)))
        spec["nets"].append({"n1": n1, "outputs": outputs, "full": n1 <= FULL_CHECK_MAX,
                             "tail": tail})
    return files, spec


def _check_accepted(accepted, info):
    """``accepted``: set of first-layer masks the program accepts."""
    if info["full"]:
        expect(accepted == {g for g, out in info["outputs"].items() if out},
               "accepted set differs from the own evaluation of the tail")
    else:
        expect(all((g in accepted) == bool(out) for g, out in info["outputs"].items()),
               "accepted set differs from the own evaluation on sampled vectors")


def _check_lowering(value, tail):
    """Each lowered unit is a positive multiple of the unit, with its kind."""
    for (biases, weights, lax), own in zip(value, tail):
        for b, ws, l, (ob, ows, ol) in zip(biases, weights, lax, own):
            coeffs, mine = [b, *ws], [ob, *ows]
            k = next(i for i, c in enumerate(mine) if c)
            scale = Fraction(coeffs[k], mine[k])
            expect(scale > 0 and all(Fraction(c) == scale * m for c, m in zip(coeffs, mine)) and l == ol,
                   "lowered layer is not a positive multiple of the unit")


def _ops_enumerate(pp, console_main, objs, files, spec, workdir):
    ops = []
    for k, net in enumerate(objs["nets"]):
        info, n1 = spec["nets"][k], spec["nets"][k]["n1"]
        netfile = os.path.join(workdir, files["nets"][k])
        with open(netfile, encoding="utf-8") as handle:
            text = handle.read()
        extract = Op("transform.extract_scheme", lambda n=net: pp.extract_scheme(n), None)
        normalize = Op("transform.normalize_three_layers", lambda n=net: pp.normalize_three_layers(n), None)

        def check_extract(report, n1=n1, info=info):
            masks = _masks_of_scheme(report.scheme)
            full = (1 << n1) - 1
            expect(report.enumerated_count == 1 << n1 and report.pruned_count == 0
                   and report.accepted_count == len(masks) == report.scheme.selector.size
                   and all(a | z == full and not a & z for a, z in masks)
                   and [p.sort_key() for p in report.scheme.pairs]
                   == sorted(p.sort_key() for p in report.scheme.pairs),
                   "extracted scheme is not a sorted list of full, all-selected pairs")
            _check_accepted({a for a, _ in masks}, info)

        def check_normalize(norm, net=net, extract=extract):
            expect(isinstance(norm, pp.PerceptronNetwork) and norm.depth == 3
                   and norm.layers[0] == net.layers[0]
                   and norm.layers[1].output_dim == extract.reference.accepted_count,
                   "normalized network is not depth 3 over the same first layer")

        def check_cli_extract(value, net=net, extract=extract):
            code, out = value
            expect(code == 0 and pp.parse_bundle(out) == pp.PresentedPolyhedron(
                net.layers[0].units, extract.reference.scheme, pp.Mode.DNF),
                "CLI extract output does not parse back to the extracted presentation")

        extract.check = check_extract
        normalize.check = check_normalize
        ops += [
            extract,
            Op("kernels.lower_layer", lambda n=net: [pp.lower_layer(layer) for layer in n.layers[1:]],
               lambda value, info=info: _check_lowering(value, info["tail"]), traced_only=True),
            Op("kernels.tail_accepted_set", lambda n=net, n1=n1: pp.tail_accepted_set(n.layers[1:], n1),
               lambda value, info=info: _check_accepted(set(value), info),
               counts=lambda v, n1=n1: {"kernels.vectors": 1 << n1, "kernels.accepted": len(v)},
               traced_only=True),
            Op("network.parse_network", lambda t=text: pp.parse_network(t),
               lambda value, net=net: expect(value == net, "parsed network differs"), traced_only=True),
        ]
        if n1 <= CLI_EXTRACT_MAX:
            ops.append(_cli(console_main, workdir, f"extract{k}", ["extract", netfile], check_cli_extract))
        if n1 > NORMALIZE_MAX:
            continue
        ops += [
            normalize,
            Op("network.format_network", lambda op=normalize: pp.format_network(op.last),
               lambda value, op=normalize: expect(pp.parse_network(value) == op.reference,
                                                   "formatted network does not parse back"),
               source=normalize),
        ]
        if n1 <= EQUIV_MAX:
            def check_exact(value, n1=n1):
                expect(value.equivalent and value.checked == 1 << n1,
                       "exact equiv of a network and its normalization is not EQUIVALENT")
            ops.append(Op("transform.check_equivalence.exact",
                          lambda n=net, op=normalize: pp.check_equivalence(n, op.last), check_exact,
                          source=normalize))
        if n1 <= CLI_NORMALIZE_MAX:
            def check_cli_normalize(value, op=normalize):
                code, out = value
                expect(code == 0 and pp.parse_network(out) == op.reference,
                       "CLI normalize output does not parse back to the normalized network")
            ops.append(_cli(console_main, workdir, f"normalize{k}", ["normalize", netfile], check_cli_normalize))
    return ops


# ---------------------------------------------------------------------------
# cells


def _gen_cells(rng, write):
    files = {"arrangements": [], "equiv": [], "systems": [], "cli_systems": []}
    spec = {"arrangements": [], "equiv": [], "systems": []}
    for k, (dim, n, _) in enumerate(ARRANGEMENTS):
        hs = gen.arrangement(rng, n, dim)
        full = (1 << n) - 1
        pairs = [(g, full ^ g) for g in range(1 << n)]
        net = [hs] + gen.tail(rng, n, (5, 3), 0.3)
        tail = gen.lower_net(net)[1:]
        files["arrangements"].append({
            "halfspaces": write(f"a{k}.hs", "".join(gen.fmt_hs(h) + "\n" for h in hs)),
            "scheme": write(f"a{k}.scheme", gen.fmt_scheme(n, pairs, list(range(1 << n)))),
            "net": write(f"a{k}.net", gen.fmt_net(net)),
        })
        spec["arrangements"].append({
            "n": n, "regions": gen.regions(n, dim), "lowered": [gen.lower(h) for h in hs],
            "accepted": {g for g in range(1 << n) if gen.tail_output(tail, g)},
        })
    for k, (dim, n1) in enumerate(EQUIV_PAIRS):
        first = [gen.halfspace(rng, dim) for _ in range(n1)]
        left = [first] + gen.tail(rng, n1, (5, 3), 0.3)
        while True:
            right = [first] + gen.tail(rng, n1, (4, 3), 0.3)
            lo, ro = gen.lower_net(left), gen.lower_net(right)
            if any(gen.net_output(lo, p) != gen.net_output(ro, p) for p in gen.points(rng, first, 60)):
                break
        files["equiv"].append((write(f"l{k}.net", gen.fmt_net(left)), write(f"r{k}.net", gen.fmt_net(right))))
        spec["equiv"].append({"n1": n1, "left": lo, "right": ro})
    systems = [gen.planted_system(rng, dim, count) for dim, count in SYSTEMS]
    systems += [gen.contradicted(rng, systems[k]) for k in range(CONTRADICTED)]
    for k, system in enumerate(systems):
        files["systems"].append(write(f"s{k}.hs", "".join(gen.fmt_hs(h) + "\n" for h in system)))
        spec["systems"].append({"system": system, "feasible": k < len(SYSTEMS)})
    for k, text in enumerate(HUGE_SYSTEMS):
        files["cli_systems"].append(write(f"huge{k}.hs", text))
    return files, spec


def _check_witness(point, system, what):
    expect(point is not None and gen.satisfies(system, point), f"{what}: witness misses the system")


def _check_cli_feasible(value, system, feasible):
    code, out = value
    if not feasible:
        expect(code == 1 and out == "INFEASIBLE\n", "CLI feasible did not answer INFEASIBLE")
        return
    lines = out.splitlines()
    expect(code == 0 and len(lines) == 2 and lines[0] == "FEASIBLE" and lines[1].startswith("WITNESS="),
           "CLI feasible did not answer FEASIBLE with a witness")
    _check_witness(gen.parse_tuple(lines[1][len("WITNESS="):]), system, "CLI feasible")


def _parse_own_system(text):
    system = []
    for line in text.splitlines():
        *coeffs, op = line.split()
        values = [gen.parse_q(c) for c in coeffs]
        system.append((values[0], tuple(values[1:]), op == ">="))
    return system


def _ops_cells(pp, console_main, objs, files, spec, workdir):
    ops = []
    path = lambda name: os.path.join(workdir, name)  # noqa: E731
    for k, hs in enumerate(objs["arrangements"]):
        info, slot = spec["arrangements"][k], files["arrangements"][k]
        scheme, net = objs["schemes"][k], objs["nets"][k]

        def check_prune(value, info=info):
            masks = _masks_of_scheme(value)
            full = (1 << info["n"]) - 1
            expect(value.selector.size == len(masks) == info["regions"]
                   and all(a | z == full and not a & z for a, z in masks),
                   f"kept {value.selector.size} patterns; general position gives {info['regions']}")

        def witness_ops(value, hs=hs, info=info):
            def check(point, g):
                expect(point is not None and gen.signature(info["lowered"], point) == g,
                       "cell witness is not in its cell")
            return [Op("feasibility.cell_witness", lambda pair=pair: pp.cell_witness(hs, pair),
                       lambda point, g=g: check(point, g), counts=lambda _: {"feasibility.systems": 1})
                    for pair, (g, _) in zip(value.pairs, _masks_of_scheme(value))]

        prune = Op("transform.prune_empty_cells", lambda h=hs, s=scheme: pp.prune_empty_cells(h, s),
                   check_prune, expand=witness_ops,
                   counts=lambda v, s=scheme: {"transform.cells_checked": s.selector.size,
                                               "transform.cells_kept": v.selector.size})

        def check_extract(report, info=info, prune=prune):
            kept = {a for a, _ in _masks_of_scheme(report.scheme)}
            realizable = {a for a, _ in _masks_of_scheme(prune.reference)}
            expect(report.accepted_count == len(info["accepted"])
                   and kept == info["accepted"] & realizable
                   and report.pruned_count == report.accepted_count - len(kept),
                   "pruned extraction differs from accepted-and-realizable cells")

        ops += [
            prune,
            Op("transform.extract_scheme", lambda n=net: pp.extract_scheme(n, prune=True), check_extract,
               counts=lambda r: {"transform.cells_checked": r.accepted_count,
                                 "transform.cells_kept": r.accepted_count - r.pruned_count}),
        ]
        if ARRANGEMENTS[k][2]:
            ops.append(_cli(console_main, workdir, f"prune{k}", ["prune", path(slot["halfspaces"]), path(slot["scheme"])],
                            lambda value, prune=prune: expect(
                                value[0] == 0 and pp.parse_scheme(value[1]) == prune.reference,
                                "CLI prune output does not parse back to the pruned scheme")))
    for k, (left, right) in enumerate(objs["pairs"]):
        info = spec["equiv"][k]

        def check_equiv(value, info=info):
            x, bits = value.counterexample_point, value.counterexample_bits
            expect(not value.equivalent and x is not None and bits is not None
                   and value.checked == 1 << info["n1"], "exact equiv found no counterexample")
            mask = sum(b << i for i, b in enumerate(bits))
            expect(gen.signature(info["left"][0], x) == mask
                   and gen.net_output(info["left"], x) != gen.net_output(info["right"], x),
                   "counterexample point does not separate the networks")

        def beside(value, left=left, info=info):
            n1 = info["n1"]
            mask = sum(b << i for i, b in enumerate(value.counterexample_bits))
            pair = pp.pair_of_bits(mask, n1)
            return [Op("feasibility.cell_witness", lambda: pp.cell_witness(left.layers[0].units, pair),
                       lambda point: expect(point is not None and gen.signature(info["left"][0], point) == mask,
                                            "cell witness is not in its cell"),
                       counts=lambda _: {"feasibility.systems": 1}, traced_only=True)]

        ops.append(Op("transform.check_equivalence.exact", lambda a=left, b=right: pp.check_equivalence(a, b),
                      check_equiv, expand=beside))
    for k, system in enumerate(objs["systems"]):
        own, feasible = spec["systems"][k]["system"], spec["systems"][k]["feasible"]
        ops += [
            Op("feasibility.is_feasible", lambda s=system: pp.is_feasible(s),
               lambda value, f=feasible: expect(value is f, "feasibility answer is wrong"),
               counts=lambda _: {"feasibility.systems": 1}),
            Op("feasibility.witness", lambda s=system: pp.witness(s),
               (lambda v, own=own: _check_witness(v, own, "witness")) if feasible
               else (lambda v: expect(v is None, "witness of an infeasible system")),
               counts=lambda _: {"feasibility.systems": 1}),
        ]
    cli_systems = [(name, spec["systems"][k]["system"], True, False) for k, name in
                   enumerate(files["systems"][:CLI_FEASIBLE])]
    cli_systems += [(name, spec["systems"][len(SYSTEMS) + k]["system"], False, False) for k, name in
                    enumerate(files["systems"][len(SYSTEMS):len(SYSTEMS) + CLI_INFEASIBLE])]
    for name in files["cli_systems"]:
        with open(path(name), encoding="utf-8") as handle:
            cli_systems.append((name, _parse_own_system(handle.read()), True, True))
    for k, (name, system, feasible, fault) in enumerate(cli_systems):
        ops.append(_cli(console_main, workdir, f"feasible{k}", ["feasible", path(name)],
                        lambda value, s=system, f=feasible: _check_cli_feasible(value, s, f), known_fault=fault))
    return ops


# ---------------------------------------------------------------------------
# algebra


def _gen_algebra(rng, write):
    files = {"slots": []}
    spec = {"slots": []}
    for k, (dim, n, sized_a, qb, sized_c) in enumerate(ALGEBRA_SLOTS):
        hs = [gen.halfspace(rng, dim) for _ in range(n)]
        a = gen.sized_scheme(rng, n, *sized_a)
        b = gen.scheme(rng, n, qb, 3, 4, select=1.0)
        c = gen.sized_scheme(rng, n, *sized_c)
        lowered = [gen.lower(h) for h in hs]
        vectors = [gen.signature(lowered, p) for p in gen.points(rng, hs, ALGEBRA_POINTS)]
        vectors += [rng.getrandbits(n) for _ in range(ALGEBRA_VECTORS)]
        files["slots"].append({
            "a": write(f"g{k}a.bundle", gen.fmt_bundle(hs, *a, "DNF")),
            "b": write(f"g{k}b.bundle", gen.fmt_bundle(hs, *b, "DNF")),
            "c": write(f"g{k}c.bundle", gen.fmt_bundle(hs, *c, "CNF")),
        })
        spec["slots"].append({"a": a, "b": b, "c": c, "vectors": vectors})
    return files, spec


def _truth(pairs, selected, mode, vectors):
    """Boolean value of a presentation on each bit vector, vectorised."""
    import numpy as np

    v = np.asarray(vectors, dtype=np.int64)[:, None]
    out = np.zeros(len(vectors), bool) if mode == "DNF" else np.ones(len(vectors), bool)
    chosen = [pairs[j] for j in selected]
    for start in range(0, len(chosen), 2048):
        block = np.asarray(chosen[start:start + 2048], dtype=np.int64).reshape(-1, 2)
        ones, zeros = block[:, 0][None, :], block[:, 1][None, :]
        if mode == "DNF":
            out |= (((v & ones) == ones) & ((v & zeros) == 0)).any(axis=1)
        else:
            out &= (((v & ones) != 0) | ((v & zeros) != zeros)).all(axis=1)
    return out


def _ops_algebra(pp, console_main, objs, files, spec, workdir):
    ops = []
    for k, operands in enumerate(objs["slots"]):
        ops += _algebra_slot(pp, console_main, workdir, k, operands, files["slots"][k], spec["slots"][k])
    return ops


def _algebra_slot(pp, console_main, workdir, k, operands, slot, info):
    a, b, c = operands
    vectors = info["vectors"]
    truth = {key: _truth(*info[key], "CNF" if key == "c" else "DNF", vectors) for key in "abc"}
    expected = {
        "union": truth["a"] | truth["b"], "intersection": truth["a"] & truth["b"],
        "complement_poly": ~truth["a"], "dnf_to_cnf": truth["a"], "cnf_to_dnf": truth["c"],
    }

    def check_result(value, op):
        mode = "CNF" if op == "dnf_to_cnf" else "DNF"
        expect(value.halfspaces == a.halfspaces and value.mode.value == mode,
               f"{op} changed the half-spaces or the mode")
        got = _truth(_masks_of_scheme(value.scheme), [j - 1 for j in value.scheme.selector.members],
                     mode, vectors)
        expect((got == expected[op]).all(), f"{op} differs from the own Boolean evaluation")

    def result_op(op, *args):
        fn = getattr(pp, op)
        return Op(f"polyhedra.{op}", lambda: fn(*args), lambda v: check_result(v, op),
                  counts=lambda v: {"polyhedra.pairs_out": v.scheme.q})

    def normalize_beside(source):
        return Op("indexing.normalize_scheme", lambda: pp.normalize_scheme(source.last.scheme),
                  lambda v: expect(v == source.reference.scheme, "normalizing a normal scheme changed it"),
                  traced_only=True, source=source)

    def cli(op, source):
        def check(value):
            code, out = value
            expect(code == 0 and pp.parse_bundle(out) == source.reference,
                   f"CLI algebra {op} output does not parse back to the {source.name} result")
        return _cli(console_main, workdir, f"{op}{k}", ["algebra", op, os.path.join(workdir, slot["a"])], check)

    complement = result_op("complement_poly", a)
    to_cnf = result_op("dnf_to_cnf", a)
    fmt = Op("polyhedra.format_bundle", lambda: pp.format_bundle(complement.last),
             lambda v: expect(isinstance(v, str), "format_bundle returned no text"), source=complement)
    parse = Op("polyhedra.parse_bundle", lambda: pp.parse_bundle(fmt.last),
               lambda v: expect(v == complement.reference, "bundle does not parse back to the complement"),
               source=fmt)
    return [
        complement, normalize_beside(complement), fmt, parse,
        to_cnf, normalize_beside(to_cnf),
        result_op("cnf_to_dnf", c), result_op("union", a, b), result_op("intersection", a, b),
        cli("complement", complement), cli("to-cnf", to_cnf),
    ]


GENERATORS = {"pointwise": _gen_pointwise, "enumerate": _gen_enumerate, "cells": _gen_cells,
              "algebra": _gen_algebra}
BUILDERS = {"pointwise": _ops_pointwise, "enumerate": _ops_enumerate, "cells": _ops_cells,
            "algebra": _ops_algebra}


def generate(workload, seed, workdir):
    rng = random.Random(f"{workload}/{seed}")
    files, spec = GENERATORS[workload](rng, _writer(workdir))
    with open(os.path.join(workdir, "manifest.json"), "w", encoding="utf-8") as handle:
        json.dump(files, handle)
    return files, spec


def build_ops(workload, pp, console_main, objs, files, spec, workdir):
    return BUILDERS[workload](pp, console_main, objs, files, spec, workdir)
