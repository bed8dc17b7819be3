import ast
import importlib.metadata
import os
import random
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import polyperc
from polyperc import (
    Mode,
    PresentedPolyhedron,
    format_bundle,
    format_halfspace,
    format_network,
    format_scheme,
    parse_network,
)
from polyperc.cli import console_main

import randgen

try:
    import tomllib
except ModuleNotFoundError:  # Python 3.10
    tomllib = None

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

HS = "0 1 0 >=\n0 0 1 >\n"
AND_SCHEME = "N=2\nG1: ONES=1,2 ZEROS=-\nJ=1\n"
OR_SCHEME = "N=2\nG1: ONES=1 ZEROS=-\nG2: ONES=2 ZEROS=-\nJ=1,2\n"

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

# a 2-layer network whose tail can never fire on a bit input
CONST_NET = "LAYERS=2\nLAYER 1 1\n0 1 >=\nLAYER 1 1\n-3/2 1 >=\n"


@pytest.fixture
def files(tmp_path):
    def write(name, text):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    return write


def run(capsys, *argv):
    code = console_main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_synth_golden(files, capsys):
    code, out, err = run(capsys, "synth", files("h", HS), files("s", AND_SCHEME))
    assert (code, err) == (0, "")
    assert out == AND_NET


def test_synth_cnf_mode(files, capsys):
    code, out, _ = run(
        capsys, "synth", files("h", HS), files("s", AND_SCHEME), "--mode", "cnf"
    )
    assert code == 0
    assert "-1/2 1 1 >=" in out  # OR unit replaces the AND unit


def test_synth_nothing_selected_exit_4(files, capsys):
    scheme = "N=2\nG1: ONES=1 ZEROS=-\nJ=-\n"
    code, out, err = run(capsys, "synth", files("h", HS), files("s", scheme))
    assert code == 4
    assert "selector" in err


def test_out_flag_writes_file(files, capsys, tmp_path):
    target = tmp_path / "net.txt"
    code, out, _ = run(
        capsys, "synth", files("h", HS), files("s", AND_SCHEME), "-o", str(target)
    )
    assert code == 0 and out == ""
    assert target.read_text(encoding="utf-8") == AND_NET


def test_eval_golden(files, capsys):
    points = "1 1\n1 -1\n0/1 5\n"
    code, out, _ = run(capsys, "eval", files("n", AND_NET), files("p", points))
    assert code == 0
    assert out == "1\n0\n1\n"


def test_eval_empty_points(files, capsys):
    code, out, _ = run(capsys, "eval", files("n", AND_NET), files("p", "\n"))
    assert (code, out) == (0, "")


def test_eval_dimension_mismatch_exit_3(files, capsys):
    code, _, err = run(capsys, "eval", files("n", AND_NET), files("p", "1 2 3\n"))
    assert code == 3
    assert "coordinates" in err


@pytest.mark.parametrize(
    "command, source",
    [("eval", AND_NET), ("member", HS + "MODE=DNF\nN=2\nG1: ONES=1 ZEROS=2\nJ=1\n")],
    ids=["eval", "member"],
)
def test_wrong_length_point_names_its_line(files, capsys, command, source):
    # the blank line 2 counts, so the short point is on line 4
    points = "1 1\n\n-1 2\n7\n0 0\n"
    code, out, err = run(capsys, command, files("n", source), files("p", points))
    assert (code, out) == (3, "")
    assert err == "error: line 4: point has 1 coordinates, form expects 2\n"


def test_member_golden(files, capsys):
    bundle = HS + "MODE=DNF\nN=2\nG1: ONES=1 ZEROS=2\nJ=1\n"
    code, out, _ = run(capsys, "member", files("b", bundle), files("p", "-2 9\n0 0\n"))
    assert code == 0
    assert out == "0\n1\n"


def test_member_cnf_empty_selector_is_everything(files, capsys):
    bundle = HS + "MODE=CNF\nN=2\nJ=-\n"
    code, out, _ = run(capsys, "member", files("b", bundle), files("p", "-2 9\n0 0\n"))
    assert code == 0
    assert out == "1\n1\n"


def test_extract_golden(files, capsys):
    code, out, _ = run(capsys, "extract", files("n", AND_NET))
    assert code == 0
    assert out == HS + "MODE=DNF\nN=2\nG1: ONES=1,2 ZEROS=-\nJ=1\n"


def test_extract_cap_exit_5(files, capsys):
    code, _, err = run(capsys, "extract", files("n", AND_NET), "--cap", "1")
    assert code == 5
    assert "cap" in err


def test_extract_past_the_scheme_reader_bound_exit_5(files, capsys, tmp_path, monkeypatch):
    # a 4-unit first layer whose tail accepts 15 of its 16 bit vectors:
    # 15 pair lines times N=4 is past a bound of 12
    monkeypatch.setattr("polyperc.indexing.MAX_SCHEME_BITS", 12)
    net = "LAYERS=2\nLAYER 1 4\n0 1 >=\n1 1 >=\n2 1 >=\n3 1 >=\nLAYER 4 1\n-1/2 1 1 1 1 >=\n"
    target = tmp_path / "out.bundle"
    code, out, err = run(capsys, "extract", files("n", net), "--out", str(target))
    assert (code, out) == (5, "")
    assert "past 12" in err
    assert not target.exists()


# 70 first-layer units: --cap 100 admits them, but a list of 2^70 entries
# cannot even be sized, so this fails before anything is allocated
WIDE_NET = (
    "LAYERS=2\nLAYER 1 70\n" + "".join(f"{i} 1 >=\n" for i in range(70)) + "LAYER 70 1\n-1/2" + " 1" * 70 + " >=\n"
)


def test_bit_vector_table_that_cannot_be_built_exit_5(files, capsys):
    net = files("n", WIDE_NET)
    for argv in (["extract", net], ["normalize", net], ["equiv", net, net]):
        code, out, err = run(capsys, *argv, "--cap", "100")
        assert (code, out) == (5, ""), argv
        assert err == "error: a table of 2^70 first-layer bit vectors cannot be built\n"


def test_extract_constant_strict_exit_4(files, capsys):
    code, _, err = run(capsys, "extract", files("n", CONST_NET))
    assert code == 4
    assert "constantly 0" in err


def test_extract_constant_permissive(files, capsys):
    code, out, _ = run(
        capsys, "extract", files("n", CONST_NET), "--permissive-constants"
    )
    assert code == 0
    assert out == "0 1 >=\nMODE=DNF\nN=1\nJ=-\n"


def test_normalize_is_identity_on_normal_form(files, capsys):
    code, out, _ = run(capsys, "normalize", files("n", AND_NET))
    assert code == 0
    assert out == AND_NET


def test_normalize_golden(files, capsys):
    or_net_path = files("s", OR_SCHEME)
    code, or_net, _ = run(capsys, "synth", files("h", HS), or_net_path)
    assert code == 0
    code, out, _ = run(capsys, "normalize", files("n", or_net))
    assert code == 0
    assert out == (
        "LAYERS=3\n"
        "LAYER 2 2\n0 1 0 >=\n0 0 1 >\n"
        "LAYER 2 3\n-1/2 1 -1 >=\n-3/2 1 1 >=\n-1/2 -1 1 >=\n"
        "LAYER 3 1\n-1/2 1 1 1 >=\n"
    )


def test_normalize_constant(files, capsys):
    code, _, err = run(capsys, "normalize", files("n", CONST_NET))
    assert code == 4 and "constantly 0" in err
    code, out, _ = run(
        capsys, "normalize", files("n", CONST_NET), "--permissive-constants"
    )
    assert code == 0
    assert out == "CONSTANT=0\nINPUTS=1\n"


def test_algebra_complement_golden(files, capsys):
    bundle = HS + "MODE=DNF\nN=2\nG1: ONES=1 ZEROS=2\nJ=1\n"
    code, out, _ = run(capsys, "algebra", "complement", files("b", bundle))
    assert code == 0
    assert out == (
        HS + "MODE=DNF\nN=2\nG1: ONES=- ZEROS=1\nG2: ONES=2 ZEROS=-\nJ=1,2\n"
    )


def test_algebra_union_and_intersect(files, capsys):
    b1 = files("b1", HS + "MODE=DNF\nN=2\nG1: ONES=1 ZEROS=-\nJ=1\n")
    b2 = files("b2", HS + "MODE=DNF\nN=2\nG1: ONES=2 ZEROS=-\nJ=1\n")
    code, out, _ = run(capsys, "algebra", "union", b1, b2)
    assert code == 0
    assert "G1: ONES=1 ZEROS=-\nG2: ONES=2 ZEROS=-\nJ=1,2\n" in out
    code, out, _ = run(capsys, "algebra", "intersect", b1, b2)
    assert code == 0
    assert "G1: ONES=1,2 ZEROS=-\nJ=1\n" in out


def test_algebra_mode_conversions(files, capsys):
    cnf = files("c", HS + "MODE=CNF\nN=2\nG1: ONES=1 ZEROS=-\nJ=1\n")
    code, out, _ = run(capsys, "algebra", "to-dnf", cnf)
    assert code == 0 and "MODE=DNF" in out
    dnf = files("d", HS + "MODE=DNF\nN=2\nG1: ONES=1 ZEROS=-\nJ=1\n")
    code, out, _ = run(capsys, "algebra", "to-cnf", dnf)
    assert code == 0 and "MODE=CNF" in out


def test_algebra_arity_errors_exit_3(files, capsys):
    b = files("b", HS + "MODE=DNF\nN=2\nG1: ONES=1 ZEROS=-\nJ=1\n")
    code, _, err = run(capsys, "algebra", "union", b)
    assert code == 3 and "two bundles" in err
    code, _, err = run(capsys, "algebra", "complement", b, b)
    assert code == 3 and "one bundle" in err


def test_equiv_equivalent(files, capsys):
    n = files("n", AND_NET)
    code, out, _ = run(capsys, "equiv", n, n)
    assert (code, out) == (0, "EQUIVALENT\n")


def make_or_net(files, capsys):
    code, out, _ = run(capsys, "synth", files("h", HS), files("s", OR_SCHEME))
    assert code == 0
    return files("or.net", out)


def test_equiv_exact_counterexample(files, capsys):
    or_net = make_or_net(files, capsys)
    code, out, _ = run(capsys, "equiv", files("and.net", AND_NET), or_net)
    assert code == 1
    assert out == "COUNTEREXAMPLE b=(1,0)\nWITNESS=(0,0)\n"


def test_equiv_sampled_counterexample(files, capsys):
    or_net = make_or_net(files, capsys)
    code, out, _ = run(
        capsys,
        "equiv",
        files("and.net", AND_NET),
        or_net,
        "--mode",
        "sampled",
        "--seed",
        "7",
    )
    assert code == 1
    assert out.startswith("COUNTEREXAMPLE x=(")


def test_equiv_first_layer_mismatch_exit_3(files, capsys):
    other = AND_NET.replace("0 1 0 >=", "1 1 0 >=")
    code, _, err = run(
        capsys, "equiv", files("a", AND_NET), files("b", other)
    )
    assert code == 3
    assert "first layer" in err


def test_prune_golden(files, capsys):
    hs = "0 1 >=\n-1 1 >\n"
    scheme = "N=2\nG1: ONES=1 ZEROS=2\nG2: ONES=2 ZEROS=1\nJ=1,2\n"
    code, out, _ = run(capsys, "prune", files("h", hs), files("s", scheme))
    assert code == 0
    assert out == "N=2\nG1: ONES=1 ZEROS=2\nJ=1\n"


def test_prune_ambient_mismatch_exit_3(files, capsys):
    code, _, err = run(
        capsys, "prune", files("h", "0 1 >=\n"), files("s", AND_SCHEME)
    )
    assert code == 3
    assert err == "error: scheme over 2 with 1 half-spaces\n"


def test_prune_mixed_dimensions_exit_3(files, capsys):
    # a selected pair over a 1-D and a 2-D half-space is refused, in
    # either order; selected pairs that keep to one dimension are pruned
    mixed = files("s", "N=2\nG1: ONES=1,2 ZEROS=-\nJ=1\n")
    apart = "N=2\nG1: ONES=1 ZEROS=-\nG2: ONES=- ZEROS=2\nG3: ONES=1,2 ZEROS=-\nJ=1,2\n"
    for hs in ("0 1 >=\n0 1 1 >=\n", "0 1 1 >=\n0 1 >=\n"):
        assert run(capsys, "prune", files("h", hs), mixed) == (
            3, "", "error: mixed constraint dimensions\n"
        )
        assert run(capsys, "prune", files("h", hs), files("a", apart)) == (0, apart, "")


HUGE_SCHEME = "N=100000000000\nG1: ONES=99999999999 ZEROS=-\nJ=1\n"


def test_huge_scheme_ambient_refused_before_any_mask(files, capsys):
    # a mask holding index 99999999999 would take 12.5 GB; N= is checked
    # against the one half-space first, so nothing near that is allocated
    hs, scheme = files("h", "0 1 >\n"), files("s", HUGE_SCHEME)
    bundle, points = files("b", "0 1 >\nMODE=DNF\n" + HUGE_SCHEME), files("p", "0\n")
    mismatch = "scheme over 100000000000 pairs with 1 half-spaces"
    tracemalloc.start()
    try:
        assert run(capsys, "synth", hs, scheme) == (4, "", f"error: {mismatch}\n")
        assert run(capsys, "prune", hs, scheme) == (
            3, "", "error: scheme over 100000000000 with 1 half-spaces\n"
        )
        assert run(capsys, "member", bundle, points) == (4, "", f"error: {mismatch}\n")
        assert run(capsys, "algebra", "complement", bundle) == (4, "", f"error: {mismatch}\n")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_feasible_golden(files, capsys):
    code, out, _ = run(capsys, "feasible", files("h", "0 1 >=\n0 -1 >=\n"))
    assert code == 0
    assert out == "FEASIBLE\nWITNESS=(0)\n"
    code, out, _ = run(capsys, "feasible", files("h", "0 1 >\n0 -1 >\n"))
    assert code == 1
    assert out == "INFEASIBLE\n"


def test_feasible_prints_coefficients_past_int_str_digit_limit(files, capsys):
    code, out, err = run(capsys, "feasible", files("h", "1e5000 1 >=\n"))
    assert (code, err) == (0, "")
    assert out == "FEASIBLE\nWITNESS=(-1" + "0" * 5000 + ")\n"


def test_synth_prints_coefficients_past_int_str_digit_limit(files, capsys):
    scheme = "N=1\nG1: ONES=1 ZEROS=-\nJ=1\n"
    code, out, _ = run(capsys, "synth", files("h", "1e5000 1 >=\n"), files("s", scheme))
    assert code == 0
    assert out.splitlines()[2] == "1" + "0" * 5000 + " 1 >="
    assert format_network(parse_network(out)) == out


def test_digit_limit_exit_2_with_line(files, capsys):
    code, out, err = run(capsys, "feasible", files("h", "0 1 >=\n1e100001 1 >=\n"))
    assert (code, out) == (2, "")
    assert "line 2" in err and "digits" in err


def test_parse_error_reports_line_exit_2(files, capsys):
    code, _, err = run(capsys, "feasible", files("h", "0 1 >=\n0 x >=\n"))
    assert code == 2
    assert "line 2" in err


def test_missing_file_exit_2(files, capsys):
    code, _, err = run(capsys, "eval", files("n", AND_NET), "/nonexistent/p.txt")
    assert code == 2
    assert "cannot read" in err


def child_env():
    """Environment under which a child imports the same polyperc as this process."""
    env = dict(os.environ)
    package_root = str(Path(polyperc.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [package_root, env.get("PYTHONPATH")])
    )
    return env


def run_child(*argv):
    return subprocess.run(
        [sys.executable, "-m", "polyperc.cli", *argv],
        capture_output=True,
        encoding="utf-8",
        env=child_env(),
    )


def assert_one_error_line(proc):
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), proc.stderr


def test_non_utf8_input_exit_2(tmp_path):
    path = tmp_path / "bin.txt"
    path.write_bytes(b"\xff\xfe\x00bad\n")
    proc = run_child("feasible", str(path))
    assert_one_error_line(proc)
    assert proc.stderr == f"error: cannot read {path}: not UTF-8 text\n"
    assert proc.stdout == ""


def test_unwritable_out_path_exit_2(files, tmp_path):
    target = tmp_path / "no" / "such" / "out"
    proc = run_child("feasible", files("h", "0 1 >=\n"), "-o", str(target))
    assert_one_error_line(proc)
    assert proc.stderr.startswith(f"error: cannot write {target}: ")
    assert proc.stdout == "" and not target.exists()


def test_out_flag_matches_stdout_for_every_subcommand(files, capsys, tmp_path):
    # -o FILE writes exactly the bytes stdout would get, prints nothing and
    # keeps the exit code; a call that fails creates no file
    hs = files("h", HS)
    empty_hs = files("e", "0 1 >=\n-1 -1 >=\n")  # x >= 0 and x <= -1 share no point
    code, net, _ = run(capsys, "synth", empty_hs, files("s1", "N=2\nG1: ONES=1 ZEROS=-\nJ=1\n"))
    assert code == 0
    net = files("n", net)
    and_net, or_net = files("and.net", AND_NET), make_or_net(files, capsys)
    b1 = files("b1", HS + "MODE=DNF\nN=2\nG1: ONES=1 ZEROS=-\nJ=1\n")
    b2 = files("b2", HS + "MODE=DNF\nN=2\nG1: ONES=2 ZEROS=-\nJ=1\n")
    cnf = files("c", HS + "MODE=CNF\nN=2\nG1: ONES=1 ZEROS=-\nJ=1\n")
    prune_scheme = files("s2", "N=2\nG1: ONES=1 ZEROS=2\nG2: ONES=2 ZEROS=1\nJ=1,2\n")
    calls = [
        (0, "eval", and_net, files("p", "1 1\n1 -1\n")),
        (0, "member", b1, files("q", "-2 9\n0 0\n")),
        (0, "synth", hs, files("s", AND_SCHEME)),
        (0, "synth", hs, files("s", AND_SCHEME), "--mode", "cnf"),
        (0, "extract", net),
        (0, "extract", net, "--prune"),
        (0, "normalize", or_net),
        (0, "algebra", "union", b1, b2),
        (0, "algebra", "intersect", b1, b2),
        (0, "algebra", "complement", b1),
        (0, "algebra", "to-dnf", cnf),
        (0, "algebra", "to-cnf", b1),
        (0, "equiv", and_net, and_net),
        (1, "equiv", and_net, or_net),
        (0, "equiv", and_net, and_net, "--mode", "sampled"),
        (1, "equiv", and_net, or_net, "--mode", "sampled", "--seed", "7"),
        (0, "prune", files("h2", "0 1 >=\n-1 1 >\n"), prune_scheme),
        (0, "feasible", files("f0", "0 1 >=\n0 -1 >=\n")),
        (1, "feasible", files("f1", "0 1 >\n0 -1 >\n")),
        (5, "extract", and_net, "--cap", "1"),
        (4, "synth", hs, files("s3", "N=3\nG1: ONES=1 ZEROS=-\nJ=1\n")),
        (2, "eval", and_net, files("bad", "1 x\n")),
    ]
    for k, (expected, *argv) in enumerate(calls):
        code, out, err = run(capsys, *argv)
        assert code == expected, (argv, err)
        target = tmp_path / f"out{k}"
        assert run(capsys, *argv, "-o", str(target)) == (code, "", err), argv
        if code in (0, 1):
            assert out and target.read_bytes() == out.encode("utf-8"), argv
        else:
            assert out == "" and not target.exists(), argv


def test_bad_network_file_exit_2(files, capsys):
    code, _, err = run(
        capsys, "eval", files("n", "LAYERS=1\nLAYER 2 1\n"), files("p", "1 1\n")
    )
    assert code == 2


def test_unknown_subcommand_is_argparse_error(files):
    with pytest.raises(SystemExit) as exc:
        console_main(["frobnicate"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv, message",
    [
        (["equiv", "a", "b", "--seed", "-1"], "argument --seed: seed must fit in 64 unsigned bits"),
        (["extract", "n", "--cap", "0"], "argument --cap: must be a positive integer"),
        (["equiv", "a", "b", "--samples", "0"], "argument --samples: must be a positive integer"),
        # counts take ASCII digits only, as every count in a file does
        (["extract", "n", "--cap", "1_0"], "argument --cap: must be a positive integer"),
        (["extract", "n", "--cap", "\u0661\u0660"], "argument --cap: must be a positive integer"),
        (["normalize", "n", "--cap", "\uff12\uff10"], "argument --cap: must be a positive integer"),
        (["equiv", "a", "b", "--mode", "sampled", "--seed", " +7"], "argument --seed: seed must fit in 64 unsigned bits"),
        (["equiv", "a", "b", "--mode", "sampled", "--samples", "0_5"], "argument --samples: must be a positive integer"),
    ],
    ids=["seed", "cap", "samples", "cap-underscore", "cap-arabic-indic", "cap-fullwidth", "seed-signed", "samples-underscore"],
)
def test_bad_option_value_is_argparse_error(argv, message, capsys):
    # refused before any file is read, so the files need not exist
    with pytest.raises(SystemExit) as exc:
        console_main(argv)
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


def declared_script(name):
    """The entry point of console script `name`, or None if nothing declares it.

    Read from this checkout's `[project.scripts]` when tomllib can parse it,
    else from the installed distribution's `console_scripts` metadata.
    """
    if tomllib is not None and PYPROJECT.is_file():
        with PYPROJECT.open("rb") as fh:
            scripts = tomllib.load(fh)["project"].get("scripts", {})
        assert name in scripts, f"[project.scripts] declares no {name!r}"
        return importlib.metadata.EntryPoint(name, scripts[name], "console_scripts")
    try:
        dist = importlib.metadata.distribution("polyperc")
    except importlib.metadata.PackageNotFoundError:
        return None
    return dist.entry_points.select(group="console_scripts")[name]


def script_wrapper(ep):
    """The argv of an installer's console-script wrapper for `ep`."""
    head = ep.attr.split(".")[0]
    code = (
        f"import sys; from {ep.module} import {head}; sys.exit({ep.attr}())"
    )
    return [sys.executable, "-c", code]


def test_repeated_calls_in_one_process_match_fresh_processes(files, capsys):
    # the parser is built once per process, so no option may carry over
    # from one call to the next
    hs = files("h", "0 1 >=\n-1 -1 >=\n")  # x >= 0 and x <= -1 share no point
    code, net, _ = run(capsys, "synth", hs, files("s", "N=2\nG1: ONES=1 ZEROS=-\nJ=1\n"))
    assert code == 0
    net = files("n", net)
    and_net, or_net = files("and.net", AND_NET), make_or_net(files, capsys)
    b1 = files("b1", HS + "MODE=DNF\nN=2\nG1: ONES=1 ZEROS=-\nJ=1\n")
    b2 = files("b2", HS + "MODE=DNF\nN=2\nG1: ONES=2 ZEROS=-\nJ=1\n")
    calls = [
        ("extract", net, "--prune"),
        ("extract", net),
        ("equiv", and_net, or_net, "--mode", "sampled", "--seed", "3"),
        ("equiv", and_net, or_net),
        ("equiv", and_net, or_net, "--mode", "sampled"),
        ("algebra", "union", b1, b2),
        ("algebra", "complement", b1),
    ]
    outputs = [run(capsys, *argv) for argv in calls]
    for argv, output in zip(calls, outputs):
        proc = run_child(*argv)
        assert output == (proc.returncode, proc.stdout, proc.stderr), argv
    # each option changes what its call prints
    assert outputs[0] != outputs[1] and outputs[2] != outputs[3]
    assert outputs[6][0] == 0
    with pytest.raises(SystemExit) as exc:
        console_main(["--help"])
    assert exc.value.code == 0
    assert "synth" in capsys.readouterr().out
    assert run(capsys, *calls[1]) == outputs[1]


def test_module_and_script_invocations(files):
    feasible = files("h", "0 1 >=\n0 -1 >=\n")
    infeasible = files("i", "0 1 >\n0 -1 >\n")
    # children import the same polyperc as this process, wherever run from
    env = child_env()

    def call(argv):
        return subprocess.run(argv, capture_output=True, encoding="utf-8", env=env)

    proc = call([sys.executable, "-m", "polyperc.cli", "feasible", feasible])
    assert proc.returncode == 0
    assert proc.stdout == "FEASIBLE\nWITNESS=(0)\n"

    def check_script(command):
        proc = call(command + ["--help"])
        assert proc.returncode == 0, proc.stderr
        for name in ("synth", "extract", "normalize", "equiv", "feasible"):
            assert name in proc.stdout
        # a non-zero code must survive the trip through the entry point
        proc = call(command + ["feasible", infeasible])
        assert (proc.returncode, proc.stdout) == (1, "INFEASIBLE\n"), proc.stderr

    installed = shutil.which("polyperc")
    if installed is not None:
        check_script([installed])
    ep = declared_script("polyperc")
    if ep is None:
        pytest.skip("no tomllib to read pyproject.toml and polyperc not installed")
    check_script(script_wrapper(ep))


def test_import_loads_no_numpy_or_cython():
    # every CLI call and every library user pays for what the import loads
    env = child_env()
    code = (
        "import sys, polyperc, polyperc.cli\n"
        "heavy = [m for m in sys.modules if m.split('.')[0] in ('numpy', 'Cython')]\n"
        "print(polyperc.__file__)\n"
        "print(','.join(sorted(heavy)))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, encoding="utf-8", env=env
    )
    assert proc.returncode == 0, proc.stderr
    where, heavy = proc.stdout.splitlines()
    assert Path(where).resolve() == Path(polyperc.__file__).resolve()
    assert heavy == ""


# the standard-library modules that src/ names; importing the CLI may load
# nothing beyond what importing these loads, since every call pays for it
SRC_STDLIB = (
    "__future__", "argparse", "bisect", "dataclasses", "decimal", "enum", "fractions",
    "functools", "itertools", "math", "operator", "random", "re", "sys", "typing",
)


def test_src_names_exactly_the_pinned_stdlib_modules():
    src = Path(polyperc.__file__).resolve().parent
    named = set()
    for path in src.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                named.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and not node.level:
                named.add(node.module.split(".")[0])
    assert named == set(SRC_STDLIB)


def test_import_loads_only_the_stdlib_modules_src_names():
    code = (
        "import importlib, sys\n"
        f"for name in {SRC_STDLIB!r}: importlib.import_module(name)\n"
        "before = set(sys.modules)\n"
        "import polyperc.cli\n"
        "extra = set(sys.modules) - before\n"
        "print(','.join(sorted(m for m in extra if m.split('.')[0] != 'polyperc')))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, encoding="utf-8", env=child_env()
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "\n"


MIXED_HS = ("0 1 >=\n0 1 1 >=\n", "0 1 1 >=\n0 1 >=\n")


@pytest.mark.parametrize(
    "argv, outcome",
    [
        (["feasible", "h:"], (0, "FEASIBLE\nWITNESS=()\n", "")),
        (["feasible", "h:\n  \n"], (0, "FEASIBLE\nWITNESS=()\n", "")),
        (["synth", "h:", "s:N=1\nG1: ONES=1 ZEROS=-\nJ=1\n"], (4, "", "error: scheme over 1 pairs with 0 half-spaces\n")),
        (["prune", "h:", "s:N=1\nG1: ONES=1 ZEROS=-\nJ=1\n"], (3, "", "error: scheme over 1 with 0 half-spaces\n")),
        *[
            (argv, (3, "", f"error: mixed {what}\n"))
            for hs in MIXED_HS
            for argv, what in [
                (["feasible", "h:" + hs], "constraint dimensions"),
                (["synth", "h:" + hs, "s:N=2\nG1: ONES=1 ZEROS=-\nJ=1\n"], "unit dimensions in layer"),
                (["synth", "h:" + hs, "s:N=2\nG1: ONES=1 ZEROS=-\nJ=1\n", "--mode", "cnf"], "unit dimensions in layer"),
                # the file's dimensions come before the scheme's synthesis faults
                (["synth", "h:" + hs, "s:N=2\nG1: ONES=1 ZEROS=-\nJ=-\n"], "unit dimensions in layer"),
                (["prune", "h:" + hs, "s:N=2\nG1: ONES=1 ZEROS=2\nJ=1\n"], "constraint dimensions"),
            ]
        ],
        (["prune", "h:" + MIXED_HS[0], "s:N=2\nG1: ONES=1 ZEROS=-\nJ=1\n"], (0, "N=2\nG1: ONES=1 ZEROS=-\nJ=1\n", "")),
        *[
            ([command, "h:0 1 >=\n1 0 0 >\n", *rest], (2, "", "error: line 2: half-space form has all-zero weights\n"))
            for command, *rest in [["feasible"], ["synth", "s:N=2\nJ=-\n"], ["prune", "s:N=2\nJ=-\n"]]
        ],
    ],
)
def test_halfspace_file_outcomes(argv, outcome, files, capsys):
    # empty files, mixed dimensions and constant forms end as they did
    # when each line was read into a HalfSpace
    argv = [files(arg[0], arg[2:]) if arg[1:2] == ":" else arg for arg in argv]
    assert run(capsys, *argv) == outcome


def test_halfspace_files_build_no_halfspace(files, capsys, monkeypatch):
    # synth, prune and feasible read each line into its integer row
    def refuse(self):
        raise AssertionError("a HalfSpace was built")

    monkeypatch.setattr(polyperc.HalfSpace, "__post_init__", refuse)
    hs = files("h", "1/2 -3/4 1 >\n2 1 1 >=\n")
    scheme = files("s", "N=2\nG1: ONES=1 ZEROS=2\nG2: ONES=2 ZEROS=1\nJ=1,2\n")
    assert run(capsys, "synth", hs, scheme)[0] == 0
    assert run(capsys, "synth", hs, scheme, "--mode", "cnf")[0] == 0
    assert run(capsys, "prune", hs, scheme)[0] == 0
    assert run(capsys, "feasible", hs) == (0, "FEASIBLE\nWITNESS=(0,1/2)\n", "")


def boundary_point(rng, halfspace):
    """A random point on the half-space's hyperplane."""
    x = list(randgen.point(rng, halfspace.dimension))
    weights = halfspace.form.weights
    j = next(j for j, w in enumerate(weights) if w)
    x[j] = 0
    x[j] = -halfspace.form.evaluate(x) / weights[j]
    return tuple(x)


def test_member_agrees_with_synthesized_and_extracted(files, capsys):
    # CLI member on a bundle, forward on the network synth builds from it,
    # and CLI member on what extract --prune reads back must all agree
    rng = random.Random(1207)
    for k in range(40):
        m, n = rng.randint(1, 3), rng.randint(1, 6)
        hs = randgen.halfspaces(rng, n, m)
        scheme = randgen.scheme(rng, n, max_pairs=5)
        points = [randgen.point(rng, m) for _ in range(8)]
        points += [boundary_point(rng, h) for h in rng.sample(hs, min(n, 4))]
        points_file = files(f"p{k}", "".join(" ".join(map(str, x)) + "\n" for x in points))
        hs_file = files(f"h{k}", "".join(format_halfspace(h) + "\n" for h in hs))
        scheme_file = files(f"s{k}", format_scheme(scheme))
        for mode in (Mode.DNF, Mode.CNF):
            bundle = files(f"b{k}", format_bundle(PresentedPolyhedron(hs, scheme, mode)))
            code, out, _ = run(capsys, "member", bundle, points_file)
            assert code == 0
            code, net_text, _ = run(capsys, "synth", hs_file, scheme_file, "--mode", mode.name.lower())
            assert code == 0
            net = parse_network(net_text)
            assert out == "".join(f"{net.forward(x)[0]}\n" for x in points)
            code, extracted, _ = run(
                capsys, "extract", files(f"n{k}", net_text), "--prune", "--permissive-constants"
            )
            assert code == 0
            code, again, _ = run(capsys, "member", files(f"e{k}", extracted), points_file)
            assert (code, again) == (0, out)
