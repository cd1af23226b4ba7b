"""Command-line interface.

Subcommands:

* ``tabulate``     run one method on a ballot file; ``--trace`` prints the
                   round-by-round STV count as an aligned table.
* ``spoilers``     audit a ballot file or a directory tree of files for
                   spoiler candidates under one or more methods.
* ``simulate``     Monte Carlo spoiler campaign under a random ballot culture.
* ``extend``       proportionally lengthen partial ballots; emits a new file.
* ``subelections`` audit every size-t candidate subset of each election.
* ``clones``       clone-similarity statistics for spoilers under one method.

All tabular output is CSV (UTF-8, LF); fractions print as percentages with
one decimal place.  Use ``--out`` to write to a file instead of stdout.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Iterable, Iterator

from . import blt_io
from .core import Profile, ProfileError
from .cultures import MODELS, REGIMES, CultureSpec
from .extend import extend_profile
from .harness import (
    DETAIL_COLUMNS,
    FRACTION_COLUMNS,
    CorpusResult,
    clone_rows,
    method_rows,
    run_corpus_audit,
    run_simulation,
    stability_rows,
)
from .methods import METHODS, UNIT, SearchBudgetError, TieError, TiePolicy, stv
from .subelections import enumerate_subelections

_METHOD_CHOICES = tuple(METHODS) + ("all",)


def _resolve_methods(requested: Iterable[str]) -> list[str]:
    out: list[str] = []
    for mid in requested:
        if mid == "all":
            out.extend(m for m in METHODS if m not in out)
        elif mid not in out:
            out.append(mid)
    return out


def _existing(args: argparse.Namespace, name: str) -> Path:
    """The path ``name``; a usage error when nothing is there."""
    path = Path(name)
    if not path.exists():
        args.usage_error(f"{name}: no such file or directory")
    return path


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 1


def _collect_files(path: Path) -> list[Path]:
    if path.is_dir():
        return sorted(path.rglob("*.blt"))
    return [path]


def _load_elections(path: Path) -> Iterator[tuple[str, Profile]]:
    base = path if path.is_dir() else path.parent
    for file in _collect_files(path):
        try:
            profile = blt_io.parse_blt(file.read_bytes())
        except (OSError, blt_io.BltParseError, ValueError) as exc:
            print(f"warning: {file}: {exc}", file=sys.stderr)
            continue
        yield str(file.relative_to(base)), profile


def _warn_failures(result: CorpusResult) -> None:
    for election, mid, message in result.failures:
        print(f"warning: {election}: {mid}: {message}", file=sys.stderr)


def _write(data: bytes, out: str | None) -> None:
    if out:
        Path(out).write_bytes(data)
    else:
        sys.stdout.buffer.write(data)


def _fmt_units(units: int) -> str:
    """Votes from 1e-5 units: whole numbers bare, otherwise one decimal."""
    if units % UNIT == 0:
        return str(units // UNIT)
    tenths = (units + 5_000) // 10_000
    return f"{tenths // 10}.{tenths % 10}"


def format_trace(profile: Profile, trace) -> str:
    """Round-by-round count as an aligned text table.

    One row per candidate and one column per counting stage; a candidate's
    final entry is marked ``*`` when they were declared elected on it, and
    the row goes blank once they leave the count.
    """
    order = sorted(range(profile.m), key=lambda c: profile.names[c])
    rounds = trace.rounds
    cells: dict[int, list[str]] = {c: [] for c in order}
    for rnd in rounds:
        totals = dict(rnd.totals)
        elected_here = {c for c, _ in rnd.elected} | set(rnd.auto_elected)
        for c in order:
            if c not in totals:
                cells[c].append("")
                continue
            mark = "*" if c in elected_here else ""
            cells[c].append(_fmt_units(totals[c]) + mark)
    name_width = max(len(profile.names[c]) for c in order)
    col_widths = [
        max(8, max(len(cells[c][i]) for c in order)) for i in range(len(rounds))
    ]
    lines = [f"Quota = {_fmt_units(trace.quota)}"]
    header = " " * name_width + " | " + " ".join(
        f"R{i + 1}".rjust(w) for i, w in enumerate(col_widths)
    )
    lines.append(header)
    lines.append("-" * len(header))
    for c in order:
        row = profile.names[c].ljust(name_width) + " | " + " ".join(
            cells[c][i].rjust(w) for i, w in enumerate(col_widths)
        )
        lines.append(row)
    winners = ", ".join(profile.names[c] for c in sorted(trace.winners))
    lines.append(f"Elected: {winners}")
    return "\n".join(lines) + "\n"


def _cmd_tabulate(args: argparse.Namespace) -> int:
    path = _existing(args, args.file)
    try:
        profile = blt_io.parse_blt(path.read_bytes())
    except (OSError, ValueError) as exc:
        return _fail(f"{args.file}: {exc}")
    tie = TiePolicy(args.tie)
    if args.trace and args.method != "stv":
        print("warning: --trace is only available for stv", file=sys.stderr)
    try:
        if args.method == "stv":
            outcome, trace = stv(profile, tie)
        else:
            outcome = METHODS[args.method].run(profile, tie)
    except (TieError, SearchBudgetError, ProfileError) as exc:
        return _fail(str(exc))
    if args.method == "stv" and args.trace:
        sys.stdout.write(format_trace(profile, trace))
        return 0
    for committee in sorted(
        (sorted(profile.names[c] for c in committee) for committee in outcome.committees)
    ):
        print(", ".join(committee))
    if outcome.tie_flag:
        print("note: result involved a tie", file=sys.stderr)
    return 0


def _cmd_spoilers(args: argparse.Namespace) -> int:
    methods = _resolve_methods(args.methods)
    result = run_corpus_audit(
        _load_elections(_existing(args, args.path)),
        methods,
        k_override=args.k,
        tie=TiePolicy(args.tie),
        keep_details=bool(args.detail_out),
    )
    _warn_failures(result)
    _write(
        blt_io.emit_results_csv(method_rows(result.methods), FRACTION_COLUMNS),
        args.out,
    )
    if args.stability_out:
        _write(blt_io.emit_results_csv(stability_rows(result), ()), args.stability_out)
    if args.detail_out:
        _write(
            blt_io.emit_results_csv(result.details, (), columns=DETAIL_COLUMNS),
            args.detail_out,
        )
    print(
        f"elections used: {result.elections_used}, skipped: {result.elections_skipped}",
        file=sys.stderr,
    )
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    try:
        spec = CultureSpec(
            model=args.model,
            regime=args.regime,
            m=args.m,
            k=args.k,
            n=args.voters,
            seed=args.seed,
        )
    except ValueError as exc:
        args.usage_error(str(exc))
    if args.trials < 0:
        args.usage_error("--trials must be non-negative")
    if args.workers < 1:
        args.usage_error("--workers must be at least 1")
    result = run_simulation(
        spec,
        _resolve_methods(args.methods),
        trials=args.trials,
        tie=TiePolicy(args.tie),
        workers=args.workers,
    )
    _write(
        blt_io.emit_results_csv(method_rows(result.methods), FRACTION_COLUMNS),
        args.out,
    )
    return 0


def _cmd_extend(args: argparse.Namespace) -> int:
    if not 0 < args.stop_ratio <= 1:
        args.usage_error(f"--stop-ratio {args.stop_ratio} must be in (0, 1]")
    path = _existing(args, args.file)
    try:
        document = blt_io.parse_blt_document(path.read_bytes())
    except (OSError, ValueError) as exc:
        return _fail(f"{args.file}: {exc}")
    extended = extend_profile(document.profile, args.stop_ratio)
    _write(blt_io.emit_blt(extended, title=document.title), args.out)
    return 0


def _cmd_subelections(args: argparse.Namespace) -> int:
    # The audit keeps an election only when k > 1 and m > k + 1.
    if not 2 <= args.k <= args.t - 2:
        args.usage_error(f"--k {args.k} must satisfy 2 <= k <= t - 2 = {args.t - 2}")
    path = _existing(args, args.path)
    too_small = skipped_empty = 0

    def stream() -> Iterator[tuple[str, Profile]]:
        nonlocal too_small, skipped_empty
        for name, profile in _load_elections(path):
            if profile.m < args.t:
                too_small += 1
                continue
            for sub in enumerate_subelections(profile, args.t, args.k):
                if sub.profile is None:
                    skipped_empty += 1
                    continue
                tag = "+".join(str(c + 1) for c in sub.subset)
                yield f"{name}[{tag}]", sub.profile

    result = run_corpus_audit(
        stream(), _resolve_methods(args.methods), tie=TiePolicy(args.tie), keep_details=False
    )
    _warn_failures(result)
    _write(
        blt_io.emit_results_csv(method_rows(result.methods), FRACTION_COLUMNS),
        args.out,
    )
    print(
        f"sub-elections used: {result.elections_used}, "
        f"skipped: {result.elections_skipped}, empty: {skipped_empty}, too small: {too_small}",
        file=sys.stderr,
    )
    return 0


def _cmd_clones(args: argparse.Namespace) -> int:
    result = run_corpus_audit(
        _load_elections(_existing(args, args.path)),
        [args.method],
        k_override=args.k,
        tie=TiePolicy(args.tie),
        keep_details=False,
    )
    _warn_failures(result)
    _write(blt_io.emit_results_csv(clone_rows(result), ()), args.out)
    return 0


def _add_tie_option(parser: argparse.ArgumentParser, default: str) -> None:
    parser.add_argument(
        "--tie",
        choices=[p.value for p in TiePolicy],
        default=default,
        help=f"tie-breaking policy (default: {default})",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mwspoilers",
        description="Multiwinner ranked-choice tabulation and spoiler audits.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("tabulate", help="run one method on a ballot file")
    p.add_argument("file")
    p.add_argument("--method", choices=tuple(METHODS), default="stv")
    p.add_argument("--trace", action="store_true", help="print the STV round table")
    _add_tie_option(p, "alphabetical")
    p.set_defaults(func=_cmd_tabulate, usage_error=p.error)

    p = sub.add_parser("spoilers", help="spoiler audit of a file or directory")
    p.add_argument("path")
    p.add_argument("--methods", nargs="+", choices=_METHOD_CHOICES, default=["all"])
    p.add_argument("--k", type=int, default=None, help="override the seat count")
    p.add_argument("--out")
    p.add_argument("--stability-out")
    p.add_argument("--detail-out")
    _add_tie_option(p, "alphabetical")
    p.set_defaults(func=_cmd_spoilers, usage_error=p.error)

    p = sub.add_parser("simulate", help="Monte Carlo spoiler campaign")
    p.add_argument("--model", choices=MODELS, required=True)
    p.add_argument("--regime", choices=REGIMES, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--voters", type=int, default=1001)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--methods", nargs="+", choices=_METHOD_CHOICES, default=["all"])
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--out")
    _add_tie_option(p, "error")
    p.set_defaults(func=_cmd_simulate, usage_error=p.error)

    p = sub.add_parser("extend", help="proportionally extend partial ballots")
    p.add_argument("file")
    p.add_argument("--stop-ratio", type=float, default=0.10)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_extend, usage_error=p.error)

    p = sub.add_parser("subelections", help="audit all size-t candidate subsets")
    p.add_argument("path")
    p.add_argument("--t", type=int, required=True, choices=(4, 5))
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--methods", nargs="+", choices=_METHOD_CHOICES, default=["all"])
    p.add_argument("--out")
    _add_tie_option(p, "alphabetical")
    p.set_defaults(func=_cmd_subelections, usage_error=p.error)

    p = sub.add_parser("clones", help="clone-similarity statistics for spoilers")
    p.add_argument("path")
    p.add_argument("--method", choices=tuple(METHODS), required=True)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--out")
    _add_tie_option(p, "alphabetical")
    p.set_defaults(func=_cmd_clones, usage_error=p.error)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
