import sys

import pytest

from mwspoilers.blt_io import emit_blt
from mwspoilers.cli import main
from mwspoilers.core import Profile, default_names

from conftest import vote_splitting_profile


@pytest.fixture
def blt_file(tmp_path):
    path = tmp_path / "example.blt"
    path.write_bytes(emit_blt(vote_splitting_profile(), title="Example"))
    return path


@pytest.fixture
def corpus_dir(tmp_path):
    d = tmp_path / "corpus"
    d.mkdir()
    spoiled = Profile.build(
        4,
        default_names(4),
        [((0, 1, 2, 3), 100), ((1, 0, 2, 3), 90), ((2, 3, 0, 1), 40), ((3, 2, 1, 0), 65)],
        2,
    )
    (d / "a.blt").write_bytes(emit_blt(spoiled, title="a"))
    (d / "b.blt").write_bytes(emit_blt(vote_splitting_profile(2), title="b"))
    (d / "broken.blt").write_bytes(b"not a ballot file\n")
    return d


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_tabulate_prints_winners(blt_file, capsys):
    code, out, _ = run_cli(capsys, "tabulate", str(blt_file), "--method", "stv")
    assert code == 0
    assert out.strip() == "W"


def test_tabulate_trace_table(blt_file, capsys):
    code, out, _ = run_cli(capsys, "tabulate", str(blt_file), "--trace")
    assert code == 0
    assert out.startswith("Quota = 116")
    assert "130*" in out  # W elected on 130 transferred votes
    assert "Elected: W" in out


def test_spoilers_on_directory(corpus_dir, tmp_path, capsys):
    out_csv = tmp_path / "rates.csv"
    detail_csv = tmp_path / "detail.csv"
    stability_csv = tmp_path / "stability.csv"
    code, _, err = run_cli(
        capsys,
        "spoilers",
        str(corpus_dir),
        "--methods",
        "sntv",
        "stv",
        "--out",
        str(out_csv),
        "--detail-out",
        str(detail_csv),
        "--stability-out",
        str(stability_csv),
    )
    assert code == 0
    assert "broken.blt" in err  # parse failure reported, run continued
    assert "elections used: 1, skipped: 1" in err
    table = out_csv.read_text().splitlines()
    assert table[0].startswith("method,spoiler")
    assert any(line.startswith("SNTV,100.0") for line in table)
    assert "a.blt" in detail_csv.read_text()
    stability = stability_csv.read_text().splitlines()
    assert stability[0].startswith("method,spoiler_elections")
    assert any(line.startswith("SNTV,1,1") for line in stability)


def test_simulate_csv_deterministic_across_workers(tmp_path, capsys):
    args = [
        "simulate",
        "--model", "iac",
        "--regime", "partial",
        "--m", "4",
        "--k", "2",
        "--voters", "101",
        "--trials", "80",
        "--seed", "13",
        "--methods", "sntv", "bloc",
    ]
    one = tmp_path / "one.csv"
    two = tmp_path / "two.csv"
    assert main(args + ["--workers", "1", "--out", str(one)]) == 0
    assert main(args + ["--workers", "2", "--out", str(two)]) == 0
    assert one.read_bytes() == two.read_bytes()
    assert one.read_text().splitlines()[0].startswith("method,spoiler")


def test_extend_round_trips_through_cli(tmp_path, capsys):
    p = Profile.build(
        4,
        default_names(4),
        [((0, 1, 2), 10), ((0, 1, 2, 3), 9), ((0, 1, 3, 2), 1)],
        2,
    )
    src = tmp_path / "in.blt"
    src.write_bytes(emit_blt(p, title="ext"))
    dst = tmp_path / "out.blt"
    code, _, _ = run_cli(capsys, "extend", str(src), "--out", str(dst))
    assert code == 0
    text = dst.read_text()
    assert text.splitlines()[0] == "4 2"
    # All ten short ballots got a fourth preference.
    from mwspoilers.blt_io import parse_blt

    extended = parse_blt(dst.read_bytes())
    assert extended.n == 20
    assert all(len(b.ranking) >= 3 for b in extended.ballots)


def test_subelections_command(corpus_dir, capsys):
    code, out, err = run_cli(
        capsys,
        "subelections",
        str(corpus_dir),
        "--t", "4",
        "--k", "2",
        "--methods", "sntv",
    )
    assert code == 0
    assert out.startswith("method,spoiler")
    assert "sub-elections used: 1" in err


def test_clones_command(corpus_dir, capsys):
    code, out, _ = run_cli(
        capsys, "clones", str(corpus_dir), "--method", "sntv"
    )
    assert code == 0
    header, row = out.splitlines()[:2]
    assert header.startswith("method,closer_to_retained")
    assert row.startswith("SNTV,")


def test_spoilers_detail_table_keeps_failed_audits(tmp_path, capsys):
    # Exact CC cannot search the C(24, 12) committees of the large election.
    d = tmp_path / "corpus"
    d.mkdir()
    large = Profile.build(
        24,
        default_names(24),
        [(tuple(range(i, 24)) + tuple(range(i)), 24 - i) for i in range(24)],
        12,
    )
    (d / "large.blt").write_bytes(emit_blt(large, title="large"))
    (d / "normal.blt").write_bytes(
        emit_blt(
            Profile.build(4, default_names(4), [((0, 1, 2, 3), 5), ((3, 2, 1, 0), 4)], 2),
            title="normal",
        )
    )
    out_csv = tmp_path / "rates.csv"
    detail_csv = tmp_path / "detail.csv"
    code, _, err = run_cli(
        capsys, "spoilers", str(d), "--methods", "sntv", "cc_om",
        "--out", str(out_csv), "--detail-out", str(detail_csv),
    )  # fmt: skip
    assert code == 0
    assert "large.blt: cc_om: SearchBudgetError" in err
    header, *rows = detail_csv.read_text().splitlines()
    assert header == (
        "election,method,m,k,n,tie,num_spoilers,spoilers,num_alt_sets,max_changed"
    )
    assert len(rows) == 4
    assert "large.blt,cc_om,24,12,300,,,,," in rows
    rates = {line.split(",")[0]: line for line in out_csv.read_text().splitlines()}
    assert rates["Cham-Cour (OM)"].endswith(",1,0,0,1")
