import csv
import hashlib
import sys

import numpy as np
import pytest

from mwspoilers.blt_io import emit_blt
from mwspoilers.cli import build_parser, main
from mwspoilers.core import Profile, default_names
from mwspoilers.harness import run_corpus_audit
from mwspoilers.methods import METHODS

from conftest import random_profile, vote_splitting_profile


@pytest.fixture
def blt_file(tmp_path):
    path = tmp_path / "example.blt"
    path.write_bytes(emit_blt(vote_splitting_profile(), title="Example"))
    return path


def spoiled_ward(names=default_names(4)) -> Profile:
    """A two-seat ward in which C and D are both SNTV spoilers."""
    return Profile.build(
        4,
        names,
        [((0, 1, 2, 3), 100), ((1, 0, 2, 3), 90), ((2, 3, 0, 1), 40), ((3, 2, 1, 0), 65)],
        2,
    )


@pytest.fixture
def corpus_dir(tmp_path):
    d = tmp_path / "corpus"
    d.mkdir()
    (d / "a.blt").write_bytes(emit_blt(spoiled_ward(), title="a"))
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


def test_tabulate_trace_rounds_fractional_totals_half_up(tmp_path, capsys):
    # D's surplus of 20 - 7 passes on at 13/20 = 0.65 a ballot: A gets 0.65,
    # B 4.55 and C 7.8, so two cells round half up.
    profile = Profile.build(
        4, default_names(4), [((3, 0, 2, 1), 1), ((3, 2), 12), ((3, 1), 7)], 2
    )
    path = tmp_path / "surplus.blt"
    path.write_bytes(emit_blt(profile, title="surplus"))
    code, out, _ = run_cli(capsys, "tabulate", str(path), "--trace")
    assert code == 0
    assert [line.rstrip() for line in out.splitlines()] == [
        "Quota = 7",
        "  |       R1       R2",
        "---------------------",
        "A |        0      0.7",
        "B |        0      4.6",
        "C |        0     7.8*",
        "D |      20*",
        "Elected: C, D",
    ]


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
    # b.blt has 3 candidates, too few for a size-4 subset.
    assert "sub-elections used: 1, skipped: 0, empty: 0, too small: 1\n" in err


def test_clones_command(corpus_dir, capsys):
    code, out, _ = run_cli(
        capsys, "clones", str(corpus_dir), "--method", "sntv"
    )
    assert code == 0
    header, row = out.splitlines()[:2]
    assert header.startswith("method,closer_to_retained")
    assert row.startswith("SNTV,")


def test_only_a_detail_table_keeps_detail_rows(corpus_dir, tmp_path, monkeypatch, capsys):
    from mwspoilers import cli

    asked = []

    def recording(*args, **kwargs):
        asked.append(kwargs["keep_details"])
        return run_corpus_audit(*args, **kwargs)

    monkeypatch.setattr(cli, "run_corpus_audit", recording)
    detail_csv = tmp_path / "detail.csv"
    detail_out = ("--detail-out", str(detail_csv))
    run_cli(capsys, "spoilers", str(corpus_dir), "--methods", "sntv", *detail_out)
    run_cli(capsys, "spoilers", str(corpus_dir), "--methods", "sntv")
    run_cli(capsys, "subelections", str(corpus_dir), "--t", "4", "--k", "2", "--methods", "sntv")
    run_cli(capsys, "clones", str(corpus_dir), "--method", "sntv")
    assert asked == [True, False, False, False]
    assert "a.blt,sntv," in detail_csv.read_text()


@pytest.mark.parametrize(
    "argv, used",
    [
        (["spoilers", "--methods", "sntv"], "elections used: 1, skipped: 0"),
        (["subelections", "--t", "4", "--k", "2", "--methods", "sntv"], "sub-elections used: 1"),
        (["clones", "--method", "sntv"], None),
    ],
    ids=["spoilers", "subelections", "clones"],
)
def test_unreadable_ballot_path_is_a_warning(argv, used, tmp_path, capsys):
    d = tmp_path / "corpus"
    (d / "sub.blt").mkdir(parents=True)
    (d / "ward.blt").write_bytes(emit_blt(spoiled_ward(), title="ward"))
    code, out, err = run_cli(capsys, argv[0], str(d), *argv[1:])
    assert code == 0
    assert out.startswith("method,")
    warnings = [line for line in err.splitlines() if line.startswith("warning:")]
    assert len(warnings) == 1
    assert warnings[0].startswith(f"warning: {d / 'sub.blt'}: ")
    if used:
        assert used in err
    else:
        assert out.splitlines()[1].startswith("SNTV,")


def test_detail_table_quotes_a_name_with_a_carriage_return(tmp_path, capsys):
    d = tmp_path / "corpus"
    d.mkdir()
    ward = spoiled_ward(("A", "B", "C\rc", "D\rd"))
    (d / "ward.blt").write_bytes(emit_blt(ward, title="ward"))
    detail_csv = tmp_path / "detail.csv"
    code, _, _ = run_cli(
        capsys, "spoilers", str(d), "--methods", "sntv", "--detail-out", str(detail_csv)
    )
    assert code == 0
    with open(detail_csv, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert [(row["election"], row["spoilers"]) for row in rows] == [("ward.blt", "C\rc;D\rd")]


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


def test_spoilers_detail_table_has_a_header_when_every_election_is_filtered(tmp_path, capsys):
    d = tmp_path / "corpus"
    d.mkdir()
    small = Profile.build(3, default_names(3), [((0, 1, 2), 5), ((2, 1, 0), 4)], 2)
    (d / "small.blt").write_bytes(emit_blt(small, title="small"))
    detail_csv = tmp_path / "detail.csv"
    code, _, err = run_cli(
        capsys, "spoilers", str(d), "--methods", "sntv", "--detail-out", str(detail_csv)
    )
    assert code == 0
    assert "elections used: 0, skipped: 1" in err
    assert detail_csv.read_text() == (
        "election,method,m,k,n,tie,num_spoilers,spoilers,num_alt_sets,max_changed\n"
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["subelections", "{corpus}", "--t", "4", "--k", "4"],
        ["subelections", "{corpus}", "--t", "4", "--k", "3"],
        ["subelections", "{corpus}", "--t", "4", "--k", "1"],
        ["simulate", "--model", "ic", "--regime", "complete", "--m", "4", "--k", "4",
         "--trials", "3"],
        ["simulate", "--model", "ic", "--regime", "complete", "--m", "4", "--k", "2",
         "--trials", "-1"],
        ["simulate", "--model", "ic", "--regime", "complete", "--m", "4", "--k", "2",
         "--trials", "3", "--workers", "0"],
        ["simulate", "--model", "ic", "--regime", "complete", "--m", "4", "--k", "2",
         "--trials", "3", "--workers", "-2"],
        ["simulate", "--model", "ic", "--regime", "complete", "--m", "9", "--k", "2",
         "--trials", "3"],
        ["simulate", "--model", "spatial1d", "--regime", "complete", "--m", "257", "--k", "2",
         "--trials", "3"],
        ["simulate", "--model", "ic", "--regime", "complete", "--m", "4", "--k", "2",
         "--trials", "2", "--seed", "-1", "--workers", "1"],
        ["simulate", "--model", "ic", "--regime", "complete", "--m", "4", "--k", "2",
         "--trials", "2", "--seed", "-1", "--workers", "2"],
        ["extend", "{corpus}/a.blt", "--stop-ratio", "1.5"],
        ["extend", "{corpus}/a.blt", "--stop-ratio", "0"],
        ["extend", "{corpus}/a.blt", "--stop-ratio", "nan"],
    ],
    ids=["subelections-k-not-below-t", "subelections-k-leaves-one-loser",
         "subelections-single-seat", "simulate-k-not-below-m", "simulate-negative-trials",
         "simulate-no-workers", "simulate-negative-workers", "simulate-ic-m-too-large",
         "simulate-m-above-256", "simulate-negative-seed", "simulate-negative-seed-two-workers",
         "extend-stop-ratio-above-1", "extend-stop-ratio-0",
         "extend-stop-ratio-nan"],
)  # fmt: skip
def test_invalid_arguments_are_usage_errors(argv, corpus_dir, tmp_path, capsys):
    out_csv = tmp_path / "out.csv"
    argv = [a.format(corpus=corpus_dir) for a in argv] + ["--out", str(out_csv)]
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    assert f"mwspoilers {argv[0]}: error:" in capsys.readouterr().err
    assert not out_csv.exists()


def test_a_usage_error_leaves_the_shared_parser_as_it_was(corpus_dir, tmp_path, capsys):
    def spoilers(name):
        outs = [tmp_path / f"{name}-{stem}.csv" for stem in ("rates", "stability", "detail")]
        code, out, err = run_cli(
            capsys, "spoilers", str(corpus_dir), "--methods", "sntv", "stv", "--k", "2",
            "--out", str(outs[0]), "--stability-out", str(outs[1]), "--detail-out", str(outs[2]),
        )  # fmt: skip
        return code, out, err, [path.read_bytes() for path in outs]

    build_parser.cache_clear()
    alone = spoilers("alone")
    for argv in (
        ["spoilers", str(corpus_dir), "--methods", "nope"],  # refused by the parser
        ["spoilers", str(tmp_path / "nowhere"), "--tie", "error"],  # refused after parsing
    ):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        capsys.readouterr()
    assert spoilers("after") == alone
    assert build_parser() is build_parser()


def test_extend_checks_the_stop_ratio_before_reading_the_file(tmp_path, capsys):
    missing = tmp_path / "nowhere.blt"
    with pytest.raises(SystemExit) as exit_info:
        main(["extend", str(missing), "--stop-ratio", "1.5"])
    assert exit_info.value.code == 2
    assert "error: --stop-ratio 1.5 must be in (0, 1]" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["tabulate", "extend"])
def test_malformed_ballot_file_is_a_one_line_error(command, tmp_path, capsys):
    bad = tmp_path / "bad.blt"
    bad.write_bytes(b"not a ballot file\n")
    code, out, err = run_cli(capsys, command, str(bad))
    assert code == 1
    assert out == ""
    assert err == f"error: {bad}: line 1: header must be 'm k', got 'not a ballot file'\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["tabulate", "{missing}"],
        ["extend", "{missing}", "--out", "{out}"],
        ["spoilers", "{missing}", "--out", "{out}"],
        ["subelections", "{missing}", "--t", "4", "--k", "2", "--out", "{out}"],
        ["clones", "{missing}", "--method", "sntv", "--out", "{out}"],
    ],
    ids=lambda argv: argv[0],
)
def test_missing_paths_are_usage_errors(argv, tmp_path, capsys):
    missing, out_csv = tmp_path / "nowhere", tmp_path / "out.csv"
    argv = [a.format(missing=missing, out=out_csv) for a in argv]
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert f"mwspoilers {argv[0]}: error: {missing}: no such file or directory" in err
    assert not out_csv.exists()


@pytest.mark.parametrize("method", ["stv", "srcv"])
def test_tabulate_reports_a_refused_tie_on_one_line(method, tmp_path, capsys):
    tied = Profile.build(3, default_names(3), [((0,), 1), ((1,), 1), ((2,), 1)], 1)
    path = tmp_path / "tied.blt"
    path.write_bytes(emit_blt(tied, title="tied"))
    code, out, err = run_cli(capsys, "tabulate", str(path), "--method", method, "--tie", "error")
    assert code == 1
    assert out == ""
    assert err == "error: tie for elimination between A, B, C\n"


def test_tabulate_reports_an_exceeded_search_budget_on_one_line(tmp_path, capsys):
    m = 24
    ranked = [(tuple((c + shift) % m for c in range(m)), 1) for shift in range(3)]
    path = tmp_path / "large.blt"
    path.write_bytes(emit_blt(Profile.build(m, default_names(m), ranked, 12), title="large"))
    code, out, err = run_cli(capsys, "tabulate", str(path), "--method", "cc_om")
    assert code == 1
    assert out == ""
    assert err == (
        "error: C(24, 12) = 2704156 committees exceeds budget 1000000; use greedy_cc\n"
    )


def test_a_boundary_tie_past_the_search_budget_is_one_error(tmp_path, capsys):
    # One bullet vote among 40 candidates: 39 tie for 19 seats, C(39, 19) committees.
    m = 40
    path = tmp_path / "bullet.blt"
    path.write_bytes(emit_blt(Profile.build(m, default_names(m), [((0,), 1)], 20), title="b"))
    code, out, err = run_cli(
        capsys, "tabulate", str(path), "--method", "sntv", "--tie", "alphabetical"
    )
    assert (code, out) == (1, "")
    assert err == (
        "error: C(39, 19) = 68923264410 tied committees exceeds budget 1000000; "
        "use tie policy lowest_index\n"
    )
    code, _, err = run_cli(capsys, "spoilers", str(path), "--methods", "sntv", "--k", "20")
    assert code == 0
    assert "bullet.blt: sntv: SearchBudgetError" in err


def test_tabulate_reports_a_profile_error_on_one_line(tmp_path, capsys):
    # n * m overflows the int64 scores of the array rules.
    heavy = Profile.build(3, default_names(3), [((0, 1, 2), 2**62 + 1)], 1)
    path = tmp_path / "heavy.blt"
    path.write_bytes(emit_blt(heavy, title="heavy"))
    code, out, err = run_cli(capsys, "tabulate", str(path), "--method", "cc_om")
    assert code == 1
    assert out == ""
    assert err == (
        "error: n=4611686018427387905 voters x m=3 candidates overflows 64-bit integer scores\n"
    )


# sha256 of the CSVs that ``clones`` and ``subelections`` write for the
# ``seeded_corpus`` below, recorded before the spoiler records dropped their
# stored tie flags and clone counters.  No benchmark digest covers either
# output, and ``clones`` is the one that reads the clone counters.
CLONES_DIGESTS = {
    "stv": "be50ba8f394add57dfe0dbf275b88b1c94444bba6fc76d3a007b3f1978cb9a36",
    "srcv": "edc5bcbc2caf39b887d13aa7c4611c072c0ba86f7cb11278aed2fb6d9fd45935",
    "sntv": "faf54cd7df0ee220917747ee8629350fab9416699b9c7ce1773bc1df41de7dc7",
    "bloc": "604f262316e998c970fa4a78e2d1e054f16e5c69c3697fea5b5ca7bd42b52c78",
    "borda_om": "eb6c21fb5d8f3a97bf95f039af55e412762a09a1de4dc754c4bc9bda4a5510f7",
    "borda_pm": "312834c1705fd8a9be126a0e29ac53ba8f8a9bcbe47b32ad187c523b5accd09d",
    "cc_om": "59b2288fa7d10a5a04de98af4dcb991d2130d00152d22176262064892c7127a6",
    "cc_pm": "25ab90c1de7a3e1a5a0b94fc60c3e9cbad09c63818257518ebbce0317bd04c8b",
    "greedy_om": "d9ce1ea77ef079d8dccc3bc07c05314448e69a42092cf922f82bdd183c533d45",
    "greedy_pm": "cbe54902fa36a3d40ef3331b7b8c21485aa0a5c5161b4c5fbca8ee436ab6a2a2",
    "mcc": "23e32e85e0785fb0ac7d8e62e5c19695544ffc04f2d89c67c1db0154852fc683",
    "topk_irv": "9a441c1964850f3ee2409978dbb610045366ea9db55ca70acbed1fcd79eb7001",
}
SUBELECTIONS_DIGEST = "6c70efadb3cba65fa1f1188deec86214a5320a3713930700da5f2ef2887edec6"


@pytest.fixture(scope="module")
def seeded_corpus(tmp_path_factory, ward):
    """The ward and two small random elections, one ``.blt`` file each."""
    d = tmp_path_factory.mktemp("seeded")
    (d / "ward.blt").write_bytes(emit_blt(ward, title="ward"))
    rng = np.random.default_rng(7)
    for i in range(2):
        profile = random_profile(rng, max_m=7, max_weight=20, max_types=40)
        (d / f"random{i}.blt").write_bytes(emit_blt(profile, title=f"random {i}"))
    return d


def csv_digest(capsys, *argv):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    return hashlib.sha256(out.encode()).hexdigest()


@pytest.mark.parametrize("method_id", METHODS)
def test_clones_csv_matches_its_recorded_digest(seeded_corpus, capsys, method_id):
    digest = csv_digest(capsys, "clones", str(seeded_corpus), "--method", method_id)
    assert digest == CLONES_DIGESTS[method_id]


def test_subelections_csv_matches_its_recorded_digest(seeded_corpus, capsys):
    argv = ("subelections", str(seeded_corpus), "--t", "4", "--k", "2", "--methods", "all")
    assert csv_digest(capsys, *argv) == SUBELECTIONS_DIGEST
