import pytest

from mwspoilers.blt_io import (
    BltParseError,
    emit_blt,
    emit_results_csv,
    parse_blt,
    parse_blt_document,
)
from mwspoilers.core import Ballot

from conftest import vote_splitting_profile

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
    assert doc.to_profile() == vote_splitting_profile()


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
    ],
)
def test_parse_errors_carry_line_numbers(text, line_no):
    with pytest.raises(BltParseError) as err:
        parse_blt(text)
    assert err.value.line_no == line_no


def test_256_candidates_parse_with_zero_based_indices():
    names = "".join(f'"C{i}"\n' for i in range(256))
    profile = parse_blt(f"256 2\n3 256 1 0\n2 1 0\n0\n{names}\"t\"\n")
    assert profile.ballots == (Ballot(b"\x00", 2), Ballot(b"\xff\x00", 3))


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


def test_emit_aggregates_identical_ballots():
    p = vote_splitting_profile()
    blob = emit_blt(p).decode()
    assert blob.splitlines()[1:4] == ["100 1 2 3 0", "90 2 3 1 0", "40 3 2 1 0"]


# ---------------------------------------------------------------------------
# CSV


def test_csv_formats_fractions_as_percentages():
    out = emit_results_csv([{"method": "STV", "spoiler": 0.049}])
    assert out == b"method,spoiler\nSTV,4.9\n"


def test_csv_empty_table_is_header_only():
    assert emit_results_csv([], columns=["method", "spoiler"]) == b"method,spoiler\n"
    assert emit_results_csv([]) == b""


def test_csv_non_percent_floats_and_none():
    out = emit_results_csv(
        [{"method": "SNTV", "ratio": 22.5, "extra": None}], percent_fields=()
    )
    assert out == b"method,ratio,extra\nSNTV,22.500,\n"


def test_csv_quotes_fields_containing_separators():
    out = emit_results_csv([{"election": 'ward "A", north', "n": 5}])
    assert out == b'election,n\n"ward ""A"", north",5\n'


def test_whole_corpus_parses_and_round_trips():
    import scotdata

    root = scotdata.corpus_dir()
    if root is None:
        pytest.skip("Scottish ballot data not available (set SCOT_ELEX_DIR)")
    count = 0
    for file in sorted(root.rglob("*.blt")):
        document = parse_blt_document(file.read_bytes())
        profile = document.to_profile()
        declared = sum(weight for weight, _ in document.ballot_lines)
        assert profile.n == declared, file
        assert parse_blt(emit_blt(profile)) == profile, file
        count += 1
    assert count > 0
