"""Command-line front end.

Every command reads plain-text files, writes plain text to stdout (or a
file via --out), and signals its outcome through the exit code:

    0  success / equivalent / feasible
    1  semantic negative: counterexample found, system infeasible
    2  unreadable or unparsable input, or an unwritable --out path
    3  dimension or precondition violation
    4  scheme that cannot be synthesized
    5  size cap exceeded
"""

from __future__ import annotations

import argparse
import functools
import sys
from typing import Optional, Sequence

from .errors import DimensionError, ParseError, PolypercError, PreconditionError, SchemeError
from .feasibility import DEFAULT_CONSTRAINT_CAP, _point
from .geometry import Row, _count, _parse_row, _rows, format_point, parse_point
from .indexing import check_ground, format_scheme, parse_scheme_lines
from .network import PerceptronLayer, format_network, parse_network
from .polyhedra import (
    Mode,
    PresentedPolyhedron,
    cnf_to_dnf,
    complement_poly,
    dnf_to_cnf,
    format_bundle,
    intersection,
    parse_bundle,
    union,
)
from .transform import (
    DEFAULT_ENUM_CAP,
    ConstantNetwork,
    _check_prune_ground,
    _pruned,
    build_cnf_network,
    build_dnf_network,
    check_equivalence,
    extract_scheme,
    normalize_three_layers,
)


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"cannot read {path}: not UTF-8 text") from exc


def _read_rows(path: str) -> tuple[tuple[Row, ...], tuple[int, ...]]:
    """The row and the scale of each half-space line of a file."""
    scaled = [_parse_row(line, lineno) for lineno, line in _rows(_read(path).splitlines())]
    return tuple([row for row, _ in scaled]), tuple([scale for _, scale in scaled])


def _read_points(path: str, dimension: int):
    points = [(lineno, parse_point(line, lineno)) for lineno, line in _rows(_read(path).splitlines())]
    for lineno, point in points:
        if len(point) != dimension:
            raise DimensionError(f"line {lineno}: point has {len(point)} coordinates, form expects {dimension}")
    return [point for _, point in points]


def _seed(text: str) -> int:
    value = _count(text)
    if value is None or value >= 2**64:
        raise argparse.ArgumentTypeError("seed must fit in 64 unsigned bits")
    return value


def _positive(text: str) -> int:
    value = _count(text)
    if value is None or value < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return value


def _emit(text: str, out: Optional[str]) -> None:
    if out is None:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise ParseError(f"cannot write {out}: {exc.strerror or exc}") from exc


def _cmd_eval(args) -> tuple[int, str]:
    network = parse_network(_read(args.network))
    lines = []
    for point in _read_points(args.points, network.input_dim):
        bits = network.forward(point)
        lines.append(" ".join(str(b) for b in bits))
    return 0, "".join(line + "\n" for line in lines)


def _cmd_member(args) -> tuple[int, str]:
    bundle = parse_bundle(_read(args.bundle))
    lines = [str(bundle.member(point)) for point in _read_points(args.points, bundle.dimension)]
    return 0, "".join(line + "\n" for line in lines)


def _cmd_synth(args) -> tuple[int, str]:
    rows, scales = _read_rows(args.halfspaces)
    # N= is checked before any mask is built, so a huge N= costs nothing
    scheme = parse_scheme_lines(
        _read(args.scheme).splitlines(), 1, lambda n: check_ground(n, len(rows))
    )
    build = build_dnf_network if args.mode == "dnf" else build_cnf_network
    return 0, format_network(build(PerceptronLayer._of_rows(rows, scales), scheme))


def _cmd_extract(args) -> tuple[int, str]:
    network = parse_network(_read(args.network))
    report = extract_scheme(network, prune=args.prune, cap=args.cap)
    if report.accepted_count == 0 and not args.permissive_constants:
        raise SchemeError("empty scheme: the network is constantly 0")
    return 0, format_bundle(PresentedPolyhedron(network.layers[0], report.scheme, Mode.DNF))


def _cmd_normalize(args) -> tuple[int, str]:
    network = parse_network(_read(args.network))
    result = normalize_three_layers(
        network, permit_constant=args.permissive_constants, cap=args.cap
    )
    if isinstance(result, ConstantNetwork):
        return 0, f"CONSTANT={result.value}\nINPUTS={result.input_dim}\n"
    return 0, format_network(result)


def _cmd_algebra(args) -> tuple[int, str]:
    first = parse_bundle(_read(args.bundle))
    if args.op in ("union", "intersect"):
        if args.other is None:
            raise PreconditionError(f"algebra {args.op} needs two bundles")
        second = parse_bundle(_read(args.other))
        result = (union if args.op == "union" else intersection)(first, second)
    elif args.other is not None:
        raise PreconditionError(f"algebra {args.op} takes one bundle")
    elif args.op == "complement":
        result = complement_poly(first)
    elif args.op == "to-dnf":
        result = cnf_to_dnf(first)
    else:
        result = dnf_to_cnf(first)
    return 0, format_bundle(result)


def _cmd_equiv(args) -> tuple[int, str]:
    left = parse_network(_read(args.left))
    right = parse_network(_read(args.right))
    result = check_equivalence(
        left,
        right,
        mode=args.mode,
        seed=args.seed,
        samples=args.samples,
        cap=args.cap,
    )
    if result.equivalent:
        return 0, "EQUIVALENT\n"
    if result.counterexample_bits is not None:
        lines = ["COUNTEREXAMPLE b=" + format_point(result.counterexample_bits)]
        if result.counterexample_point is not None:
            lines.append("WITNESS=" + format_point(result.counterexample_point))
    else:
        lines = ["COUNTEREXAMPLE x=" + format_point(result.counterexample_point)]
    return 1, "".join(line + "\n" for line in lines)


def _cmd_prune(args) -> tuple[int, str]:
    rows, _ = _read_rows(args.halfspaces)
    scheme = parse_scheme_lines(
        _read(args.scheme).splitlines(), 1, lambda n: _check_prune_ground(n, len(rows))
    )
    return 0, format_scheme(_pruned(rows, scheme))


def _cmd_feasible(args) -> tuple[int, str]:
    rows, _ = _read_rows(args.halfspaces)
    dims = {len(coeffs) for _, _, coeffs in rows}
    if len(dims) > 1:
        raise DimensionError("mixed constraint dimensions")
    # no half-space at all is the system of the empty point
    point = _point(list(rows), dims.pop() if dims else 0, args.cap)
    if point is None:
        return 1, "INFEASIBLE\n"
    return 0, f"FEASIBLE\nWITNESS={format_point(point)}\n"


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polyperc",
        description=(
            "Exact conversions between half-space presentations of polyhedra "
            "and single-output threshold networks."
        ),
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", "-o", help="write output to a file instead of stdout")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", parents=[common], help="forward pass on points")
    p.add_argument("network")
    p.add_argument("points")
    p.set_defaults(run=_cmd_eval)

    p = sub.add_parser("member", parents=[common], help="polyhedron membership bits")
    p.add_argument("bundle")
    p.add_argument("points")
    p.set_defaults(run=_cmd_member)

    p = sub.add_parser("synth", parents=[common], help="scheme to 3-layer network")
    p.add_argument("halfspaces")
    p.add_argument("scheme")
    p.add_argument("--mode", choices=("dnf", "cnf"), default="dnf")
    p.set_defaults(run=_cmd_synth)

    p = sub.add_parser("extract", parents=[common], help="network to polyhedron bundle")
    p.add_argument("network")
    p.add_argument("--prune", action="store_true", help="drop unrealizable cells")
    p.add_argument("--cap", type=_positive, default=DEFAULT_ENUM_CAP)
    p.add_argument("--permissive-constants", action="store_true")
    p.set_defaults(run=_cmd_extract)

    p = sub.add_parser("normalize", parents=[common], help="equivalent 3-layer network")
    p.add_argument("network")
    p.add_argument("--cap", type=_positive, default=DEFAULT_ENUM_CAP)
    p.add_argument("--permissive-constants", action="store_true")
    p.set_defaults(run=_cmd_normalize)

    p = sub.add_parser("algebra", parents=[common], help="set operations on bundles")
    p.add_argument(
        "op", choices=("union", "intersect", "complement", "to-dnf", "to-cnf")
    )
    p.add_argument("bundle")
    p.add_argument("other", nargs="?")
    p.set_defaults(run=_cmd_algebra)

    p = sub.add_parser("equiv", parents=[common], help="compare two networks")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--mode", choices=("sampled", "exact"), default="exact")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--samples", type=_positive, default=200)
    p.add_argument("--cap", type=_positive, default=DEFAULT_ENUM_CAP)
    p.set_defaults(run=_cmd_equiv)

    p = sub.add_parser("prune", parents=[common], help="drop empty selected cells")
    p.add_argument("halfspaces")
    p.add_argument("scheme")
    p.set_defaults(run=_cmd_prune)

    p = sub.add_parser("feasible", parents=[common], help="decide a half-space system")
    p.add_argument("halfspaces")
    p.add_argument("--cap", type=_positive, default=DEFAULT_CONSTRAINT_CAP)
    p.set_defaults(run=_cmd_feasible)

    return parser


def console_main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        code, text = args.run(args)
        _emit(text, args.out)
        return code
    except PolypercError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


def main() -> None:
    sys.exit(console_main())


if __name__ == "__main__":
    main()
