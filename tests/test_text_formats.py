"""Properties shared by every text format: half-space blocks, networks,
schemes, bundles and points files.

In each format, blank lines are skipped and a line may carry leading
and trailing whitespace, so padding a text changes no value it parses
to.  Each malformed input in the error table puts blank lines before
its fault, so the line it names counts blank lines too.
"""

import contextlib
import io
import itertools
import random
import re
import sys
import tempfile
from pathlib import Path
from unittest import mock

import hypothesis
import hypothesis.strategies as strat
import pytest

from polyperc import (
    IndexPair,
    IndexSet,
    Mode,
    ParseError,
    PerceptronLayer,
    PolypercError,
    PresentedPolyhedron,
    Scheme,
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
from polyperc import cli, indexing, polyhedra
from polyperc.cli import console_main
from polyperc.indexing import MAX_AMBIENT, MAX_SCHEME_BITS

import randgen
from test_indexing import schemes
from test_network import units
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
    # no blank line, so that the block is read whole first
    "J=-unpadded": ("scheme", "N=1\nG1: ONES=1 ZEROS=-\nJ={}\n", "bad index list {number!r}"),
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


@hypothesis.settings(deadline=None)
@hypothesis.given(rngs, strat.tuples(strat.integers(1, 3), strat.integers(1, 6)).flatmap(lambda shape: units(*shape)))
def test_padded_halfspace_block_parses_to_the_same_value(rng, drawn):
    """Also at any magnitude: each half-space line, alone and in a bundle,
    is the one the Fraction printer wrote, and a bundle's layer is its
    block's."""
    for halfspaces in (randgen.halfspaces(rng, rng.randint(1, 6), rng.randint(1, 3)), tuple(drawn)):
        text = "".join(format_halfspace(h) + "\n" for h in halfspaces)
        assert text.splitlines() == [randgen.halfspace_text(h) for h in halfspaces]
        padded = randgen.padded(rng, text).splitlines()
        assert parse_halfspace_block(padded) == parse_halfspace_block(text.splitlines()) == halfspaces
        scheme = randgen.scheme(rng, len(halfspaces))
        bundle = format_bundle(PresentedPolyhedron(halfspaces, scheme, rng.choice(list(Mode))))
        assert bundle.splitlines()[: len(halfspaces)] == text.splitlines()
        assert parse_bundle(bundle).layer == PerceptronLayer(parse_halfspace_block(text.splitlines()))


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


def outcome(read, *args):
    """A reader's value, or its error's class, message and line."""
    try:
        return read(*args)
    except PolypercError as exc:
        return type(exc), str(exc), getattr(exc, "line", None)


@strat.composite
def block_schemes(draw):
    """Schemes over 1 to 80 indices, so masks pass 8 bytes, of 0 to 20
    pairs: empty, full and random masks, now and then an inconsistent
    pair, and an empty, full or random selector."""
    n, q = draw(strat.integers(1, 80)), draw(strat.integers(0, 20))
    masks = strat.sampled_from([0, (1 << n) - 1]) | strat.integers(0, (1 << n) - 1)
    pairs = []
    for _ in range(q):
        ones, zeros = draw(masks), draw(masks)
        pairs.append(IndexPair(ones, zeros if draw(strat.integers(0, 9)) == 0 else zeros & ~ones, n))
    every = (1 << q) - 1
    return Scheme(n, pairs, IndexSet.from_mask(draw(strat.sampled_from([0, every]) | strat.integers(0, every)), q))


# index lists that format_scheme never writes; ``bound`` is N= for a pair
# list and the pair count for J=
LIST_EDITS = {
    "double comma": lambda text, bound: text.replace(",", ",,", 1) if "," in text else text + ",,1",
    "trailing comma": lambda text, bound: text + ",",
    "index 0": lambda text, bound: "0" if text == "-" else "0," + text,
    "past the bound": lambda text, bound: str(bound + 1) if text == "-" else f"{text},{bound + 1}",
    "decreasing": lambda text, bound: "2,1" if text in ("-", "1") else text + ",1",
    "zero-padded": lambda text, bound: "1".zfill(20) if text == "-" else re.sub(r"^[0-9]+", lambda m: m[0].zfill(20), text),
    # spellings int() reads and the grammar refuses
    "sign": lambda text, bound: "+1" if text == "-" else "+" + text,
    "underscore": lambda text, bound: text.replace(",", "_", 1) if "," in text else "1_0",
    "inner space": lambda text, bound: text.replace(",", ", ", 1) if "," in text else "1, 2",
}
LINE_EDITS = ["G01", "swapped labels", "blank line", "trailing space", "CRLF", "N past MAX_AMBIENT", "N at MAX_AMBIENT", "q*N past MAX_SCHEME_BITS"]
EDITS = [*LIST_EDITS, *LINE_EDITS]


def aimed_edit(text, kind, at, spot, k):
    """A formatted scheme after one edit that leaves it, or part of it, to
    the line-by-line reader: a label, blank line, padding or line end the
    writer does not write, an index list it does not write, or an N= at or
    past a bound.  ``at`` picks a pair line or the J= line, ``spot`` a list
    on it, and ``k`` the labels that swap or the first pair line past
    ``MAX_SCHEME_BITS``, each modulo the choices there are."""
    lines = text.splitlines()
    q, end = len(lines) - 2, "\n"
    at = 1 + at % (q + 1)
    if kind in LIST_EDITS:
        spots = list(re.finditer("(?<==)[0-9,-]+", lines[at]))
        found = spots[spot % len(spots)]
        bound = q if at == q + 1 else int(lines[0][2:])
        lines[at] = lines[at][: found.start()] + LIST_EDITS[kind](found[0], bound) + lines[at][found.end() :]
    elif kind == "G01" and q:
        lines[min(at, q)] = lines[min(at, q)].replace("G", "G0", 1)
    elif kind == "swapped labels" and q > 1:
        k = 1 + k % (q - 1)
        lines[k], lines[k + 1] = lines[k + 1], lines[k]
    elif kind == "blank line":
        lines.insert(at, "")
    elif kind == "trailing space":
        lines[at] += " "
    elif kind == "CRLF":
        end = "\r\n"
    elif kind.startswith("N "):
        lines[0] = f"N={MAX_AMBIENT + (kind == 'N past MAX_AMBIENT')}"
    elif kind.startswith("q*N"):
        # at least 17 pair lines, so that N= stays at most MAX_AMBIENT
        lines[-1:-1] = [f"G{j}: ONES=- ZEROS=-" for j in range(q + 1, 18)]
        lines[0] = f"N={MAX_SCHEME_BITS // (17 + k % (max(q, 17) - 16)) + 1}"
    return end.join(lines) + end


def assert_read_as_the_oracle_reads(text, rows, mode, chunk):
    """``parse_scheme``, and ``parse_bundle`` of the scheme after ``rows``
    half-space lines, give what the line-by-line reader kept in
    ``tests/randgen.py`` gives, reading ``chunk`` pair lines per block:
    the same value, or the same error class, message and line."""
    bundle = "".join(f"{k} 1 >=\n" for k in range(rows)) + f"MODE={mode}\n" + text
    want = outcome(randgen.line_by_line_scheme_lines, text.splitlines())
    with mock.patch.object(polyhedra, "parse_scheme_lines", randgen.line_by_line_scheme_lines):
        want_bundle = outcome(parse_bundle, bundle)
    with mock.patch.object(indexing, "_CHUNK", chunk):
        assert outcome(parse_scheme, text) == want
        assert outcome(parse_bundle, bundle) == want_bundle
    return want


@hypothesis.given(block_schemes(), strat.data())
def test_scheme_block_reader_matches_the_line_by_line_oracle(s, data):
    """Written texts, edited ones and ones with an aimed edit read as the
    line-by-line reader reads them, alone and in a bundle whose half-space
    count may differ from N=, at 1 to 3 pair lines per block or the
    reader's own number."""
    text = format_scheme(s)
    how = data.draw(strat.sampled_from(["as written", "edited", "aimed"]))
    if how == "edited":
        text = data.draw(edited(text))
    elif how == "aimed":
        choices = strat.integers(0, 20)
        text = aimed_edit(text, data.draw(strat.sampled_from(EDITS)), data.draw(choices), data.draw(choices), data.draw(choices))
    rows = s.ambient + data.draw(strat.sampled_from([0, 0, 0, -1, 1]))
    mode = data.draw(strat.sampled_from(["DNF", "CNF"]))
    want = assert_read_as_the_oracle_reads(text, rows, mode, data.draw(strat.sampled_from([1, 2, 3, indexing._CHUNK])))
    if how == "as written":
        assert want == s


@pytest.mark.parametrize("kind", EDITS)
def test_each_aimed_edit_reads_as_the_line_by_line_oracle_reads_it(kind):
    # three pairs over five indices, with empty and shared lists
    text = "N=5\nG1: ONES=1,3 ZEROS=-\nG2: ONES=- ZEROS=2,4,5\nG3: ONES=1,3 ZEROS=2\nJ=1,3\n"
    for at, spot, k, chunk in itertools.product(range(4), range(2), range(2), (1, 2, indexing._CHUNK)):
        assert_read_as_the_oracle_reads(aimed_edit(text, kind, at, spot, k), 5, "DNF", chunk)


def test_a_line_holding_a_line_break_is_read_as_the_oracle_reads_it():
    # the block joins its lines with "\n", so a line that holds one must
    # not pass for two pair lines
    lines = ["N=2", "G1: ONES=1 ZEROS=-\nG2: ONES=2 ZEROS=-", "G2: ONES=x ZEROS=-", "J=1"]
    want = outcome(randgen.line_by_line_scheme_lines, lines)
    assert want[0] is ParseError
    assert outcome(indexing.parse_scheme_lines, lines) == want
