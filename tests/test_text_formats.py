"""Properties shared by every text format: half-space blocks, networks,
schemes, bundles and points files.

In each format, blank lines are skipped and a line may carry leading
and trailing whitespace, so padding a text changes no value it parses
to.  Each malformed input in the error table puts blank lines before
its fault, so the line it names counts blank lines too.
"""

import contextlib
import io
import random
import sys
import tempfile
from pathlib import Path
from unittest import mock

import hypothesis
import hypothesis.strategies as strat
import pytest

from polyperc import (
    Mode,
    ParseError,
    PolypercError,
    PresentedPolyhedron,
    format_bundle,
    format_halfspace,
    format_network,
    format_rational,
    format_scheme,
    parse_bundle,
    parse_halfspace_block,
    parse_network,
    parse_scheme,
)
from polyperc import cli
from polyperc.cli import console_main

import randgen
from test_indexing import schemes
from test_polyhedra import bundles

# seeded like the bundles strategy, so each example reproduces
rngs = strat.integers(0, 2**32).map(random.Random)

NET_2_TO_1 = "LAYERS=1\nLAYER 2 1\n0 1 1 >=\n"


def read_points(text, tmp_path, capsys):
    """Run ``eval`` on a points file; raise the error it reports."""
    network, points = tmp_path / "net", tmp_path / "points"
    network.write_text(NET_2_TO_1, encoding="utf-8")
    points.write_text(text, encoding="utf-8")
    code = console_main(["eval", str(network), str(points)])
    err = capsys.readouterr().err
    assert code == ParseError.exit_code
    head, _, message = err.removeprefix("error: line ").partition(": ")
    raise ParseError(message.rstrip("\n"), int(head))


READERS = {
    "network": parse_network,
    "scheme": parse_scheme,
    "bundle": parse_bundle,
    "halfspaces": lambda text: parse_halfspace_block(text.splitlines()),
}

MALFORMED = [
    # parse_network
    ("network", "\n  \n", ParseError, None, "empty network file"),
    ("network", "\n\nLAYER 1 1\n0 1 >=\n", ParseError, 3, "expected LAYERS=<k> header"),
    ("network", "\nLAYERS=x\n", ParseError, 2, "bad layer count"),
    ("network", "\n\nLAYERS=0\n", ParseError, 3, "layer count must be at least 1"),
    ("network", "\nLAYERS=2\n\nLAYER 1 1\n\n0 1 >=\n\n", ParseError, 6, "missing LAYER block"),
    ("network", "LAYERS=1\n\nLAYER 1\n0 1 >=\n", ParseError, 3, "expected LAYER <in> <out> line"),
    ("network", "LAYERS=1\n\nLAYER 1 2\n\n0 1 >=\n", ParseError, 5, "missing half-space line"),
    ("network", "LAYERS=1\nLAYER 2 1\n\n0 1 >=\n", ParseError, 4, "half-space dimension 1 does not match declared layer input 2"),
    ("network", "LAYERS=1\nLAYER 1 1\n\n0 1 =>\n", ParseError, 4, "unknown inequality operator '=>'"),
    ("network", "LAYERS=1\n\nLAYER 2 0\n", ParseError, 3, "empty layer"),
    ("network", "\n\nLAYERS=2\nLAYER 1 1\n0 1 >=\nLAYER 2 1\n0 1 1 >=\n", ParseError, 3, "layer 1 feeds 1 bits into a layer expecting 2"),
    ("network", "LAYERS=1\nLAYER 1 1\n0 1 >=\n\nLAYER 1 1\n", ParseError, 5, "unexpected content after last layer"),
    # parse_scheme
    ("scheme", "\n \n", ParseError, 1, "empty scheme block"),
    ("scheme", "\nG1: ONES=1 ZEROS=-\nJ=1\n", ParseError, 2, "scheme block must start with N=<n>"),
    ("scheme", "\n\nN=x\nJ=-\n", ParseError, 3, "bad ambient 'x'"),
    ("scheme", "\nN=0\nJ=-\n", ParseError, 2, "scheme ambient must be positive"),
    ("scheme", "N=1\n\nG1: ONES=1 ZORES=-\nJ=1\n", ParseError, 3, "bad scheme line 'G1: ONES=1 ZORES=-'"),
    ("scheme", "N=1\nG1: ONES=1 ZEROS=-\n\nG3: ONES=1 ZEROS=-\nJ=1\n", ParseError, 4, "pair lines must be numbered consecutively, got G3"),
    pytest.param(
        "scheme", f"N=1\n\nG{'1' * 5001}: ONES=1 ZEROS=-\nJ=1\n", ParseError, 3,
        f"pair lines must be numbered consecutively, got G{'1' * 32}... (5001 digits)",
        id="scheme-5001-digit-pair-label",
    ),
    ("scheme", "N=1\n\nG1: ONES=2 ZEROS=-\nJ=1\n", ParseError, 3, "bad index list '2': member 2 exceeds ambient 1"),
    ("scheme", "N=1\nG1: ONES=1 ZEROS=-\n\nJ=2\n", ParseError, 4, "bad index list '2': member 2 exceeds ambient 1"),
    ("scheme", "N=1\nJ=-\n\nG1: ONES=1 ZEROS=-\n", ParseError, 4, "unexpected content after J= line"),
    ("scheme", "N=1\n\nG1: ONES=1 ZEROS=-\n\n", ParseError, 3, "scheme block has no J= line"),
    # parse_bundle
    ("bundle", "0 1 >=\n\nMODE=XNF\nN=1\nJ=-\n", ParseError, 3, "unknown mode 'XNF'"),
    ("bundle", "\n0 1 >=\n\n", ParseError, 3, "missing MODE=DNF|CNF line"),
    ("bundle", "\n\nMODE=DNF\nN=1\nJ=-\n", ParseError, 3, "bundle has no half-space lines"),
    ("bundle", "\n0 1 =>\nMODE=DNF\nN=1\nJ=-\n", ParseError, 2, "unknown inequality operator '=>'"),
    ("bundle", "0 1 >=\nMODE=DNF\n\n", ParseError, 3, "empty scheme block"),
    ("bundle", "0 1 >=\n\nMODE=DNF\n\nN=1\nG1: ONES=1 ZEROS=-\n\nJ=2\n", ParseError, 8, "bad index list '2': member 2 exceeds ambient 1"),
    # a half-space block and a points file
    ("halfspaces", "0 1 >=\n\n  \n0 1 >>\n", ParseError, 4, "unknown inequality operator '>>'"),
    ("halfspaces", "\n0 0 >=\n", ParseError, 2, "half-space form has all-zero weights"),
    ("points", "1 2\n\n1 x\n", ParseError, 3, "bad rational 'x'"),
]


@pytest.mark.parametrize("reader, text, error, line, message", MALFORMED)
def test_every_parser_error_names_its_line(reader, text, error, line, message, tmp_path, capsys):
    with pytest.raises(error) as exc:
        if reader == "points":
            read_points(text, tmp_path, capsys)
        else:
            READERS[reader](text)
    assert type(exc.value) is error
    assert (exc.value.line, exc.value.message) == (line, message)


# every number field: its name, then (reader, a text with {} where the
# number goes, after blank lines, and the message that refuses it)
RATIONAL_FIELDS = {
    "half-space": ("halfspaces", "\n\n0 {} >=\n", "bad rational {number!r}"),
    "point": ("points", "\n\n1 {}\n", "bad rational {number!r}"),
}
COUNT_FIELDS = {
    "LAYERS=": ("network", "\n\nLAYERS={}\nLAYER 1 1\n0 1 >=\n", "bad layer count"),
    "LAYER-in": ("network", "LAYERS=1\n\nLAYER {} 1\n0 1 >=\n", "expected LAYER <in> <out> line"),
    "LAYER-out": ("network", "LAYERS=1\n\nLAYER 1 {}\n0 1 >=\n", "expected LAYER <in> <out> line"),
    "N=": ("scheme", "\n\nN={}\nG1: ONES=1 ZEROS=-\nJ=1\n", "bad ambient {number!r}"),
    "G<k>": ("scheme", "N=1\n\nG{}: ONES=1 ZEROS=-\nJ=1\n", "bad scheme line {line!r}"),
    "J=": ("scheme", "N=1\nG1: ONES=1 ZEROS=-\n\nJ={}\n", "bad index list {number!r}"),
}


def foreign(digits):
    """A number of ``digits`` digits with an underscore, one ending in an
    Arabic-Indic digit and one ending in a fullwidth digit; Python's
    ``int`` and ``Fraction`` read all three."""
    ones = "1" * (digits - 1)
    return [ones[1:] + "1_0", ones + "١", ones + "１"]


SPELLINGS = {"_": "underscore", "١": "arabic-indic", "１": "fullwidth", "+": "sign", " ": "space"}


def number_line(template):
    return template[: template.index("{}")].count("\n") + 1


def number_cases(fields, numbers):
    """One case per field and number, named by the field, the foreign
    character and the digit count, such as ``N=-sign-1``."""
    return [
        pytest.param(*field, number, id=f"{name}-{SPELLINGS[kind]}-{sum(map(str.isdigit, number))}")
        for name, field in fields.items()
        for number in numbers
        for kind in SPELLINGS
        if kind in number
    ]


@pytest.mark.parametrize(
    "reader, template, message, number",
    # a rational at 3 digits and past the int-string digit limit
    number_cases(RATIONAL_FIELDS, foreign(3) + foreign(5001))
    + number_cases(COUNT_FIELDS, foreign(2) + ["+1", " 1"]),
)
def test_every_number_field_takes_ascii_digits_only(reader, template, message, number, tmp_path, capsys):
    text = template.format(number)
    with pytest.raises(ParseError) as exc:
        if reader == "points":
            read_points(text, tmp_path, capsys)
        else:
            READERS[reader](text)
    lineno = number_line(template)
    line = text.splitlines()[lineno - 1].strip()
    expected = message.format(number=number, line=line)
    if len(number) > 64:
        # past 64 characters a text is echoed as its first 32, "..." and its length
        expected = f"bad rational '{'1' * 32}'... ({len(number)} characters)"
    assert (exc.value.line, exc.value.message) == (lineno, expected)


def test_a_rational_just_under_the_digit_limit_is_echoed_short():
    number = "1" * 99_998 + "١"
    with pytest.raises(ParseError) as exc:
        parse_halfspace_block(f"\n\n0 {number} >=\n".splitlines())
    assert exc.value.line == 3
    assert len(str(exc.value)) < 100
    assert str(exc.value) == "line 3: bad rational '11111111111111111111111111111111'... (99999 characters)"


@pytest.mark.parametrize("length", [64, 65])
def test_an_echoed_text_is_whole_up_to_64_characters(length):
    text = "x" * length
    with pytest.raises(ParseError) as exc:
        parse_scheme(f"N={text}\nJ=-\n")
    shown = repr(text) if length == 64 else f"'{'x' * 32}'... (65 characters)"
    assert exc.value.message == f"bad ambient {shown}"


@pytest.mark.parametrize("reader, template, message", COUNT_FIELDS.values(), ids=list(COUNT_FIELDS))
def test_a_count_past_the_int_string_digit_limit_is_refused_at_its_line(reader, template, message):
    # 5001 digits are past int()'s default limit of 4300, but a count is
    # read through Decimal as a rational is, so the limit changes no answer:
    # the count is refused at its line, or at the line it runs past, just
    # as one of 600 digits is, with the same message but for the count
    def refusal(digits):
        with pytest.raises(ParseError) as exc:
            READERS[reader](template.format("1" * digits))
        return exc.value.line, exc.value.message.replace("1" * digits, "<count>").replace(f"({digits} ", "(")

    assert refusal(5001) == refusal(600)
    assert refusal(5001)[0] >= number_line(template)


@hypothesis.given(schemes(), rngs)
def test_padded_scheme_parses_to_the_same_value(scheme, rng):
    text = format_scheme(scheme)
    assert parse_scheme(randgen.padded(rng, text)) == parse_scheme(text) == scheme


@hypothesis.given(bundles(), rngs)
def test_padded_bundle_parses_to_the_same_value(bundle, rng):
    text = format_bundle(bundle)
    assert parse_bundle(randgen.padded(rng, text)) == parse_bundle(text) == bundle


@hypothesis.settings(deadline=None)
@hypothesis.given(rngs)
def test_padded_network_parses_to_the_same_value(rng):
    network = randgen.network(rng, rng.randint(1, 3))
    text = format_network(network)
    assert parse_network(randgen.padded(rng, text)) == parse_network(text) == network


@hypothesis.given(rngs)
def test_padded_halfspace_block_parses_to_the_same_value(rng):
    halfspaces = randgen.halfspaces(rng, rng.randint(1, 6), rng.randint(1, 3))
    text = "".join(format_halfspace(h) + "\n" for h in halfspaces)
    padded = randgen.padded(rng, text).splitlines()
    assert parse_halfspace_block(padded) == parse_halfspace_block(text.splitlines()) == halfspaces


def eval_stdout(network_path, points_path) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = console_main(["eval", str(network_path), str(points_path)])
    return code, out.getvalue()


@hypothesis.settings(deadline=None)
@hypothesis.given(rngs)
def test_padded_points_file_gives_the_same_eval_output(rng):
    dim = rng.randint(1, 3)
    points = [randgen.point(rng, dim) for _ in range(rng.randint(1, 5))]
    text = "".join(" ".join(map(format_rational, x)) + "\n" for x in points)
    with tempfile.TemporaryDirectory() as name:
        folder = Path(name)
        network, plain, padded = folder / "net", folder / "plain", folder / "padded"
        network.write_text(format_network(randgen.network(rng, dim)), encoding="utf-8")
        plain.write_text(text, encoding="utf-8")
        padded.write_text(randgen.padded(rng, text), encoding="utf-8")
        expected = eval_stdout(network, plain)
        assert expected[0] == 0 and expected[1].count("\n") == len(points)
        assert eval_stdout(network, padded) == expected


# every character at which str.splitlines, and so every reader, ends a
# line; the README's format section lists the same ones
LINE_ENDS = "\n\x0b\x0c\r\x1c\x1d\x1e\x85\u2028\u2029"


def test_readers_end_lines_where_str_splitlines_does():
    every = "".join(map(chr, range(sys.maxunicode + 1)))
    assert "".join(piece[-1] for piece in every.splitlines(True)[:-1]) == LINE_ENDS
    assert parse_network("LAYERS=1\x0cLAYER 1 1\n0 1 >=\n") == parse_network("LAYERS=1\nLAYER 1 1\n0 1 >=\n")
    for end in LINE_ENDS:
        with pytest.raises(ParseError) as info:
            parse_network(f"LAYERS=1{end}LAYER 1 1\n0 1 =>\n")
        # the text has two lines for an editor, three for the reader
        assert info.value.line == 3


def points_text(rng, dim=2):
    return "".join(" ".join(map(format_rational, randgen.point(rng, dim))) + "\n" for _ in range(rng.randint(1, 4)))


def read_points_text(text):
    """The CLI's points reader for two-coordinate points, on a text."""
    with mock.patch.object(cli, "_read", lambda path: text):
        return cli._read_points("points", 2)


def bundle_text(rng):
    n = rng.randint(1, 4)
    presented = PresentedPolyhedron(randgen.halfspaces(rng, n, 2), randgen.scheme(rng, n), rng.choice(list(Mode)))
    return format_bundle(presented)


def halfspace_lines(halfspaces):
    return "".join(format_halfspace(h) + "\n" for h in halfspaces)


# format: (a valid text from a seeded rng, reader, writer)
FUZZED = {
    "network": (lambda rng: format_network(randgen.network(rng, rng.randint(1, 2), 2, 3)), parse_network, format_network),
    "scheme": (lambda rng: format_scheme(randgen.scheme(rng, rng.randint(1, 5), 4)), parse_scheme, format_scheme),
    "bundle": (bundle_text, parse_bundle, format_bundle),
    "halfspaces": (
        lambda rng: halfspace_lines(randgen.halfspaces(rng, rng.randint(1, 4), 2)),
        lambda text: parse_halfspace_block(text.splitlines()),
        halfspace_lines,
    ),
    "points": (points_text, read_points_text, lambda points: "".join(" ".join(map(format_rational, x)) + "\n" for x in points)),
}

# characters the formats are made of, a line end and one that none uses
EDIT_CHARS = "0123456789-+,/.e =>:GNJLAYERSMODCFZ\n\t\x0c#"


@strat.composite
def edited(draw, text):
    """``text`` after one to three single-character inserts, deletions
    or replacements."""
    chars = list(text)
    for _ in range(draw(strat.integers(1, 3))):
        at = draw(strat.integers(0, len(chars)))
        end = at + draw(strat.sampled_from([0, 1]))
        chars[at:end] = draw(strat.sampled_from(["", *EDIT_CHARS]))
    return "".join(chars)


@hypothesis.settings(deadline=None, max_examples=300)
@hypothesis.given(strat.sampled_from(sorted(FUZZED)), rngs, strat.data())
def test_edited_text_gives_a_value_or_a_polyperc_error(kind, rng, data):
    """Every reader either returns a value that survives format -> parse,
    or raises a ``PolypercError`` subclass, on texts a few edits away from
    valid ones.  Edits this small keep every index list short, so this
    does not reach the documented case of a scheme naming a huge index
    under a huge ``N=`` (README "A scheme's mask is as wide as its largest
    index"), which stays open."""
    make, read, write = FUZZED[kind]
    text = data.draw(edited(make(rng)))
    try:
        value = read(text)
    except PolypercError:
        return
    assert read(write(value)) == value
