import re
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mwspoilers.blt_io import (
    _GAPS,
    BltDocument,
    BltParseError,
    emit_blt,
    emit_results_csv,
    parse_blt,
    parse_blt_document,
)
from mwspoilers.core import Ballot, Profile

from conftest import vote_splitting_profile
from oracles import parse_blt_by_lines

TABLE_DOC = (
    "3 1\n"
    "100 1 2 3 0\n"
    "90 2 3 1 0\n"
    "40 3 2 1 0\n"
    "0\n"
    '"A"\n'
    '"W"\n'
    '"S"\n'
    '"Example"\n'
)


def test_parse_vote_splitting_file():
    assert parse_blt(TABLE_DOC) == vote_splitting_profile()


def test_parse_accepts_bytes_crlf_and_trailing_whitespace():
    messy = TABLE_DOC.replace("\n", "  \r\n").encode("utf-8")
    assert parse_blt(messy) == vote_splitting_profile()


def test_parse_merges_duplicate_ballot_lines():
    doc = '2 1\n1 1 2 0\n1 1 2 0\n3 2 0\n0\n"A"\n"B"\n"t"\n'
    p = parse_blt(doc)
    assert p.ballots == (Ballot(b"\x00\x01", 2), Ballot(b"\x01", 3))


def test_trailing_metadata_lines_are_kept_but_ignored():
    doc = parse_blt_document(TABLE_DOC + "source: somewhere\n\n")
    assert doc.profile == vote_splitting_profile()
    assert doc.title == "Example"


@pytest.mark.parametrize(
    "text, line_no",
    [
        ("3\n0\n", 1),  # malformed header
        ("3 3\n0\n", 1),  # k >= m
        ("257 2\n1 257 0\n0\n", 1),  # more candidates than a ballot key holds
        ("3 1\n5 2 2 1 0\n0\n", 2),  # duplicate candidate
        ("3 1\n5 4 0\n0\n", 2),  # index out of range
        ("3 1\n5 1 2\n0\n", 2),  # missing 0 terminator on ballot line
        ("3 1\n0 1 0\n0\n", 2),  # zero weight
        ("3 1\n5 0\n0\n", 2),  # empty ballot
        # A number is ASCII decimal digits, and nothing else int() takes.
        ('3 1\n+5 1 0\n0\n"A"\n"B"\n"C"\n"t"\n', 2),  # signed weight
        ('3 1\n1_0 1 0\n0\n"A"\n"B"\n"C"\n"t"\n', 2),  # underscore
        ('3 1\n5 \u0661 0\n0\n"A"\n"B"\n"C"\n"t"\n', 2),  # Arabic-Indic digit one
        ('3 1\n5 1 -0\n0\n"A"\n"B"\n"C"\n"t"\n', 2),  # signed terminator
        ('+3 1\n5 1 0\n0\n"A"\n"B"\n"C"\n"t"\n', 1),  # signed header
    ],
)
def test_parse_errors_carry_line_numbers(text, line_no):
    with pytest.raises(BltParseError) as err:
        parse_blt(text)
    assert err.value.line_no == line_no


def test_gaps_are_every_whitespace_character_but_the_line_break():
    everything = "".join(map(chr, range(sys.maxunicode + 1)))
    whitespace = set(everything) - set("".join(everything.split()))
    assert set(re.findall(f"[{_GAPS}]", everything)) == whitespace - {"\n"}


def test_256_candidates_parse_with_zero_based_indices():
    names = "".join(f'"C{i}"\n' for i in range(256))
    profile = parse_blt(f"256 2\n3 256 1 0\n2 1 0\n0\n{names}\"t\"\n")
    assert profile.ballots == (Ballot(b"\x00", 2), Ballot(b"\xff\x00", 3))


# ---------------------------------------------------------------------------
# The bulk pass against the line walker

SEPARATORS = [" ", "  ", "\t", "\x0c", "\x1f", "\xa0", "\u2009", "\u3000"]
# Added to names: escaped quotes and backslashes, lone backslashes, a gap, and
# now and then a quote left unescaped.
NAME_PIECES = ['\\"', '\\"', "\\\\", "\\\\", "\\", "\\", " x", '"']
BAD_NUMBERS = ["+5", "1_0", "\u0661", "-0", "-5", "x", "0", "00", "257", "5.0", "0x1"]


@st.composite
def ballot_lines(draw, m):
    """One ballot line's numbers as text, sometimes zero-padded."""
    weight = draw(st.one_of(st.integers(1, 9), st.integers(2**63 - 2, 2**70)))
    ranking = draw(st.lists(st.integers(1, m), min_size=1, max_size=min(m, 6), unique=True))
    pad = st.sampled_from(["", "", "", "0", "00"])
    return [draw(pad) + str(x) for x in (weight, *ranking)] + [draw(st.sampled_from(["0", "00"]))]


def faulty(draw, tokens, m):
    """A ballot line's numbers with one fault."""
    tokens = list(tokens)
    kinds = ["number", "weight", "duplicate", "no terminator", "no ranking", "index"]
    fault = draw(st.sampled_from(kinds))
    if fault == "weight":
        tokens[0] = draw(st.sampled_from(["0", "00"]))
    elif fault == "number":
        tokens[draw(st.integers(0, len(tokens) - 1))] = draw(st.sampled_from(BAD_NUMBERS))
    elif fault == "duplicate":
        tokens.insert(-1, tokens[1])
    elif fault == "no terminator":
        tokens.pop()
    elif fault == "no ranking":
        tokens = [tokens[0], tokens[-1]]
    else:
        index = draw(st.sampled_from([0, m + 1, m + 1, 257]))
        tokens[draw(st.integers(1, len(tokens) - 2))] = str(index)
    return tokens


@st.composite
def blt_files(draw):
    """A ``.blt`` file as bytes or str: CRLF or LF, any gaps, unsorted and
    repeated ballot lines, weights above int64, m up to 256, names and
    titles with escapes, trailing metadata; most of the time one fault at a
    random line."""
    m = draw(st.sampled_from([2, 3, 4, 5, 8, 256]))
    k = draw(st.integers(1, m - 1))
    lines = draw(st.lists(ballot_lines(m), min_size=1, max_size=8))
    lines += draw(st.lists(st.sampled_from(lines), max_size=3))  # repeated lines
    eol = draw(st.sampled_from(["\n", "\r\n"]))

    def join(tokens):
        gaps = [draw(st.sampled_from(SEPARATORS)) for _ in tokens]
        lead = draw(st.sampled_from(["", "", " "]))
        trail = draw(st.sampled_from(["", "", " ", "\t ", "\r"]))
        return lead + "".join(g + t for g, t in zip(["", *gaps], tokens)) + trail

    text = [join([str(m), str(k)]), *map(join, lines), "0" + draw(st.sampled_from(["", " "]))]
    names = [f"C{i}" for i in range(m)] + ["title"]
    for piece in draw(st.lists(st.sampled_from(NAME_PIECES), max_size=4)):
        names[draw(st.integers(0, m))] += piece
    text += [f'"{name}"' for name in names]
    text += draw(st.sampled_from([[], ["source: somewhere", ""], [""]]))
    kinds = ["none", "ballot", "ballot", "ballot and name", "header", "no ballots", "noise"]
    kind = draw(st.sampled_from(kinds + ["drop", "cut"]))
    at = draw(st.integers(0, len(text) - 1))
    if kind.startswith("ballot"):
        at = draw(st.integers(1, len(lines)))
        text[at] = join(faulty(draw, lines[at - 1], m))
    if kind == "ballot and name":  # a name after the faulty ballot line, unquoted
        text[len(lines) + 2 + draw(st.integers(0, m - 1))] = "C"
    elif kind == "header":
        headers = [["257", "2"], ["3", "3"], ["3", "0"], ["1", "1"], ["3"]]
        text[0] = join(draw(st.sampled_from(headers)))
    elif kind == "no ballots":
        del text[1 : len(lines) + 1]
    elif kind == "noise":
        text[at] = draw(st.text(alphabet="0123456789 \t\r+-_\u0661x\"", max_size=12))
    elif kind == "drop":
        del text[at]
    elif kind == "cut":
        del text[at:]
    document = eol.join(text) + draw(st.sampled_from(["", eol]))
    form = draw(st.sampled_from(["str", "bytes", "bom"]))
    if form == "str":
        return document
    return ("\ufeff" if form == "bom" else "").encode() + document.encode()


def parsed_or_error(parse, data):
    try:
        return parse(data)
    except BltParseError as exc:
        return str(exc), exc.line_no


@given(blt_files())
@settings(max_examples=600, deadline=None)
def test_bulk_parse_matches_the_line_walker(data):
    parsed = parsed_or_error(parse_blt_document, data)
    assert parsed == parsed_or_error(parse_blt_by_lines, data)  # profile and title
    if isinstance(parsed, BltDocument):  # in canonical form: rebuilding it changes nothing
        profile = parsed.profile
        assert Profile.build(profile.m, profile.names, profile.ballots, profile.k) == profile


def test_missing_sentinel_is_an_error():
    with pytest.raises(BltParseError):
        parse_blt('3 1\n5 1 2 0\n"A"\n"B"\n"C"\n"t"\n')


def test_round_trip_is_identity():
    profile = vote_splitting_profile()
    assert parse_blt(emit_blt(profile, title="Example")) == profile


def test_round_trip_via_reparse_of_text():
    blob = emit_blt(parse_blt(TABLE_DOC), title="Example")
    assert parse_blt(blob) == parse_blt(TABLE_DOC)


def test_names_with_quotes_survive_round_trip():
    p = vote_splitting_profile()
    quoted = type(p)(
        m=p.m, names=('Ann "The Ace"', "Bob \\ Co", "Cy"), ballots=p.ballots, k=p.k
    )
    assert parse_blt(emit_blt(quoted)).names == quoted.names


@pytest.mark.parametrize("names, title", [("A\nB", "Example"), ("AB", "Line one\nline two")])
def test_emit_refuses_a_line_break_in_a_name_or_title(names, title):
    p = vote_splitting_profile()
    broken = type(p)(m=p.m, names=(names, "W", "S"), ballots=p.ballots, k=p.k)
    offending = names if "\n" in names else title
    with pytest.raises(ValueError, match=re.escape(repr(offending))):
        emit_blt(broken, title=title)


# Any text but a line break, and no lone surrogates, which UTF-8 cannot encode.
ONE_LINE = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\n"))


@given(st.lists(ONE_LINE, min_size=2, max_size=5), ONE_LINE)
@settings(max_examples=300, deadline=None)
def test_names_and_titles_round_trip(names, title):
    p = Profile.build(len(names), names, [(tuple(range(len(names))), 1)], 1)
    document = parse_blt_document(emit_blt(p, title=title))
    assert (document.profile, document.title) == (p, title)


def test_emit_aggregates_identical_ballots():
    p = vote_splitting_profile()
    blob = emit_blt(p).decode()
    assert blob.splitlines()[1:4] == ["100 1 2 3 0", "90 2 3 1 0", "40 3 2 1 0"]


# ---------------------------------------------------------------------------
# CSV


def test_csv_formats_fractions_as_percentages():
    out = emit_results_csv([{"method": "STV", "spoiler": 0.049, "ratio": 0.049}], ["spoiler"])
    assert out == b"method,spoiler,ratio\nSTV,4.9,0.049\n"


def test_csv_empty_table_is_header_only():
    assert emit_results_csv([], (), columns=["method", "spoiler"]) == b"method,spoiler\n"
    assert emit_results_csv([], ()) == b""


def test_csv_non_percent_floats_and_none():
    out = emit_results_csv(
        [{"method": "SNTV", "ratio": 22.5, "extra": None}], percent_fields=()
    )
    assert out == b"method,ratio,extra\nSNTV,22.500,\n"


def test_csv_quotes_fields_containing_separators():
    out = emit_results_csv([{"election": 'ward "A", north', "n": 5}], ())
    assert out == b'election,n\n"ward ""A"", north",5\n'
    # A carriage return is a line break to a CSV reader, as a line feed is.
    rows = [{"method": "x", "spoilers": "A\rB"}, {"method": "y", "spoilers": "C\nD"}]
    out = emit_results_csv(rows, ())
    assert out == b'method,spoilers\nx,"A\rB"\ny,"C\nD"\n'


def test_whole_corpus_parses_and_round_trips():
    import scotdata

    root = scotdata.corpus_dir()
    if root is None:
        pytest.skip("Scottish ballot data not available (set SCOT_ELEX_DIR)")
    count = 0
    for file in sorted(root.rglob("*.blt")):
        data = file.read_bytes()
        profile = parse_blt(data)
        declared = parse_blt_by_lines(data).profile.n  # the sum of the file's ballot weights
        assert profile.n == declared, file
        assert parse_blt(emit_blt(profile)) == profile, file
        count += 1
    assert count > 0
