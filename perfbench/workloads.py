"""The benchmark's workloads: their inputs, the commands they time, and output checks.

Every workload drives ``mwspoilers.cli.main`` in-process with the serial
harness path, so the timed path is the command users run and the checked
output is the CSV it writes.  A workload is a list of chunks, one command
each; a pass runs every chunk once, and the benchmark repeats passes.

* ``ic-paper``: acceptance criterion 4's campaign.  Many tiny profiles (24
  ballot types), so per-trial fixed costs dominate: removals rebuilt once per
  method, validation, scalar rules on small inputs.
* ``spatial-bloc``: acceptance criterion 5's campaign.  The 1D spatial
  sampler dominates and the one cheap rule leaves nothing to share between
  methods; it stands in for most of the tier-1 test time.
* ``corpus-audit``: ``spoilers`` over a synthetic ``.blt`` corpus of few,
  large partial-ballot profiles: parsing, the STV parcel loop, all twelve
  rules, stability and clone statistics.
"""

from __future__ import annotations

import csv
import hashlib
import io
import itertools
import sys
from dataclasses import dataclass
from pathlib import Path

from mwspoilers import METHODS

import corpus

ALL_METHODS = tuple(METHODS)


class CheckError(Exception):
    """A command's output broke an invariant."""


@dataclass(frozen=True)
class Chunk:
    """One command: its arguments, the files it writes, and its size."""

    argv: tuple[str, ...]
    outputs: tuple[Path, ...]
    items: int


@dataclass(frozen=True)
class Plan:
    """A workload's generated inputs for one seed."""

    chunks: tuple[Chunk, ...]
    warmup: Chunk
    shape: tuple[str, ...]  # lines describing the inputs, printed with the run


@dataclass(frozen=True)
class Tally:
    """What one checked output says about its audits."""

    requested: int
    used: int
    errors: int


def _rows(data: bytes) -> list[dict[str, str]]:
    """CSV rows as dicts; output that is not such a table fails the check."""
    try:
        rows = list(csv.DictReader(io.StringIO(data.decode("utf-8"))))
    except (UnicodeDecodeError, csv.Error) as exc:
        raise CheckError(f"unreadable CSV: {exc}") from None
    if any(None in row or None in row.values() for row in rows):
        raise CheckError("CSV rows do not match the header")
    return rows


def _int(row: dict[str, str], column: str) -> int:
    try:
        return int(row[column])
    except (KeyError, ValueError):
        raise CheckError(f"column {column!r} is missing or not an integer") from None


def _method_rows(data: bytes, methods: tuple[str, ...], requested: int) -> Tally:
    """Check the per-method table; every audit is used, discarded or an error."""
    rows = _rows(data)
    labels = [r.get("method") for r in rows]
    if labels != [METHODS[mid].label for mid in methods]:
        raise CheckError(f"method rows {labels} do not match {list(methods)}")
    used = errors = 0
    for row in rows:
        row_used = _int(row, "trials_used")
        row_errors = _int(row, "errors")
        accounted = row_used + _int(row, "ties_discarded") + row_errors
        if accounted != requested:
            raise CheckError(
                f"{row['method']}: used + ties_discarded + errors = {accounted}, "
                f"expected {requested}"
            )
        used += row_used
        errors += row_errors
    return Tally(requested=requested * len(methods), used=used, errors=errors)


@dataclass(frozen=True)
class Campaign:
    """A ``simulate`` campaign; chunk ``i`` uses campaign seed ``seed + i``."""

    name: str
    default_seed: int
    model: str
    m: int
    k: int
    voters: int
    methods: tuple[str, ...]
    tie: str
    structural_zero: bool  # the rule can never have a spoiler on these profiles

    def sizes(self, smoke: bool) -> tuple[int, int]:
        """(chunks per pass, trials per chunk)."""
        return (2, 10) if smoke else (4, 125)

    def _chunk(self, seed: int, trials: int, out: Path) -> Chunk:
        argv = (
            "simulate", "--model", self.model, "--regime", "complete",
            "--m", str(self.m), "--k", str(self.k), "--voters", str(self.voters),
            "--trials", str(trials), "--seed", str(seed),
            "--methods", *self.methods, "--tie", self.tie,
            "--workers", "1", "--out", str(out),
        )  # fmt: skip
        return Chunk(argv=argv, outputs=(out,), items=trials)

    def prepare(self, seed: int, smoke: bool, workdir: Path) -> Plan:
        count, trials = self.sizes(smoke)
        chunks = tuple(
            self._chunk(seed + i, trials, workdir / f"chunk{i:02d}.csv") for i in range(count)
        )
        shape = (
            f"{self.model} complete m={self.m} k={self.k} n={self.voters} "
            f"methods={' '.join(self.methods)} tie={self.tie}: "
            f"{count} chunks x {trials} trials, seeds {seed}..{seed + count - 1}",
        )
        return Plan(chunks, self._chunk(seed, 1, workdir / "warmup.csv"), shape)

    def check(self, chunk: Chunk, outputs: list[bytes]) -> Tally:
        tally = _method_rows(outputs[0], self.methods, chunk.items)
        if self.structural_zero:
            for row in _rows(outputs[0]):
                if row.get("spoiler") != "0.0":
                    raise CheckError(f"{row['method']} spoiler rate {row.get('spoiler')}%, expected 0")
        return tally

    def expected_spans(self, plan: Plan) -> dict[str, int | None]:
        """Span counts per traced pass; None means at least one."""
        trials = sum(c.items for c in plan.chunks)
        spans: dict[str, int | None] = {
            "harness": len(plan.chunks),
            "harness.item": trials,
            "cultures.sample": trials,
            "spoilers.analyze": trials * len(self.methods),
            "spoilers.weakness": trials,
            "blt_io.emit_csv": len(plan.chunks),
            "core.profile_build": None,
            "core.remove_candidate": None,
            "core.scores": None,
        }
        spans.update({f"methods.{mid}": None for mid in self.methods})
        return spans


@dataclass(frozen=True)
class CorpusAudit:
    """``spoilers <dir> --methods all`` over a corpus generated from the seed.

    Each election sits in a directory of its own and is one chunk: short
    chunks are what lets the fastest-run timing skip bursts of contention.
    """

    name: str
    default_seed: int
    tie: str = "alphabetical"
    methods: tuple[str, ...] = ALL_METHODS

    def _chunk(self, path: Path, items: int, outdir: Path) -> Chunk:
        outs = tuple(outdir / f"{stem}.csv" for stem in ("methods", "stability", "detail"))
        argv = (
            "spoilers", str(path), "--methods", "all", "--tie", self.tie,
            "--out", str(outs[0]), "--stability-out", str(outs[1]), "--detail-out", str(outs[2]),
        )  # fmt: skip
        return Chunk(argv=argv, outputs=outs, items=items)

    def prepare(self, seed: int, smoke: bool, workdir: Path) -> Plan:
        shapes = corpus.SMOKE_SHAPES if smoke else corpus.SHAPES
        elections = corpus.write_corpus(workdir / "corpus", seed, shapes)
        chunks = []
        for e in elections:
            ward = Path(e.file).parent
            (workdir / "out" / ward).mkdir(parents=True)
            chunks.append(self._chunk(workdir / "corpus" / ward, 1, workdir / "out" / ward))
        (workdir / "warmup").mkdir()
        warmup = self._chunk(chunks[0].argv[1], 1, workdir / "warmup")
        shape = tuple(
            f"{e.file}: m={e.m} k={e.k} n={e.n} ballot_types={e.ballot_types} bytes={e.bytes}"
            for e in elections
        )
        return Plan(tuple(chunks), warmup, shape)

    def check(self, chunk: Chunk, outputs: list[bytes]) -> Tally:
        methods_csv, stability_csv, detail_csv = outputs
        tally = _method_rows(methods_csv, self.methods, chunk.items)
        stability = [r.get("method") for r in _rows(stability_csv)]
        if stability != [METHODS[mid].label for mid in self.methods]:
            raise CheckError(f"stability rows {stability} do not match the methods")
        details = [(r.get("election"), r.get("method")) for r in _rows(detail_csv)]
        elections = sorted({e for e, _ in details})
        if len(elections) != chunk.items or len(details) != len(set(details)) or set(
            details
        ) != set(itertools.product(elections, self.methods)):
            raise CheckError(
                f"detail table has {len(details)} rows over {len(elections)} elections, "
                f"expected one per election and method ({chunk.items} x {len(self.methods)})"
            )
        return tally

    def expected_spans(self, plan: Plan) -> dict[str, int | None]:
        elections = sum(c.items for c in plan.chunks)
        audits = elections * len(self.methods)
        spans: dict[str, int | None] = {
            "harness": len(plan.chunks),
            "harness.item": elections,
            "blt_io.parse": elections,
            "spoilers.analyze": audits,
            "spoilers.weakness": elections,
            "spoilers.stability": audits,
            "spoilers.clone": len(self.methods) * len(plan.chunks),
            "blt_io.emit_csv": 3 * len(plan.chunks),
            "core.profile_build": None,
            "core.remove_candidate": None,
            "core.scores": None,
        }
        spans.update({f"methods.{mid}": None for mid in self.methods})
        return spans


WORKLOADS = {
    w.name: w
    for w in (
        Campaign(
            name="ic-paper",
            default_seed=20220505,
            model="ic",
            m=4,
            k=2,
            voters=1001,
            methods=("stv", "srcv", "sntv", "bloc", "borda_om"),
            tie="lowest_index",
            structural_zero=False,
        ),
        Campaign(
            name="spatial-bloc",
            default_seed=2022,
            model="spatial1d",
            m=5,
            k=3,
            voters=1001,
            methods=("bloc",),
            tie="error",
            structural_zero=True,
        ),
        CorpusAudit(name="corpus-audit", default_seed=2017),
    )
}

# Digest of each chunk's outputs at the workload's default seed, as run.py
# prints them: (workload, smoke) -> one digest per chunk.  Every spatial-bloc
# chunk reads the same: all trials used, no spoilers.
DIGESTS: dict[tuple[str, bool], tuple[str, ...]] = {
    ("ic-paper", False): (
        "5115c81ef058d1524e243a75c9440de8cfecdfad9e94a2f7082a38536e920d8e",
        "b1ac181b48cc4663c50c262ac9b29537ea38c6482ca7a25f85827bc959bbc21c",
        "ab5833a7899361a9a1129e841a0711ea2344c22c124394972c78e6a024ca6557",
        "484d0fd5754768bf552206296da46282de4522c2b2dedddccd8317fcc2cbaf1d",
    ),
    ("ic-paper", True): (
        "8ae98d9e53a5197b01e52dc5321e5de0781b56f450813cd4b66a377d3263f497",
        "340b233c9ce8865690f4f7d151d20fe20302e6753d6eccdf469d1ec43142378f",
    ),
    ("spatial-bloc", False): ("e6569242def6f0b19fbb7afa3eaaf757b2750c077ff955214e87e1f0e59ac351",) * 4,
    ("spatial-bloc", True): ("adee9df8a27c71ef7c2b2c6c5adcbf0796d3609c9043dcb4475def8b0259dfea",) * 2,
    ("corpus-audit", False): (
        "7ba1f1315df11030e040f6f27a0fb88ec581d190681e07c65b890b6b65897dd1",
        "712d9bcac12ffaee527f0bced9a6d226022c10b9d8a274936f7d501f4ac1c44d",
        "a6d1e115827d50f370f52c5209aba3314f67084cf92f32bef7783c918e16e30b",
        "a41f8a1ec214791947856628e66364170ac1cce32fa46aaf03b3491dfe2bcb5d",
        "e89212610bbc7bb91d9461625a9440a0864723c81b2f8571b92040304322c556",
    ),
    ("corpus-audit", True): (
        "5ca926554ef54c5d88c31c0fc8d5d7c9c6f3e25049fb369455055126a68eae43",
        "a5944a82aad10583ed093d8be84518b0ee7dee05c5222e2a7de277f55d0973c7",
    ),
}


def digest(outputs: list[bytes]) -> str:
    h = hashlib.sha256()
    for data in outputs:
        h.update(hashlib.sha256(data).digest())
    return h.hexdigest()


class Ledger:
    """Checks every command's output and counts audits attempted and failed.

    A chunk fails when its command raised, when its output breaks the
    workload's invariants, when its first output misses the recorded digest
    (default seed only), or when a later run's output differs from the first.
    All audits of a failed chunk count as failed; otherwise its ``errors``
    tallies do.
    """

    def __init__(self, workload, plan: Plan, seed: int, smoke: bool):
        self.workload = workload
        self.plan = plan
        self.expected = DIGESTS.get((workload.name, smoke)) if seed == workload.default_seed else None
        self.reference: list[str | None] = [None] * len(plan.chunks)
        self.attempted = self.failed = 0
        self.problems: list[str] = []

    def record(self, index: int, outputs: list[bytes] | None, error: str | None) -> Tally | None:
        """The chunk's tally when every check passes, else None."""
        chunk = self.plan.chunks[index]
        audits = chunk.items * len(self.workload.methods)
        self.attempted += audits
        tally = None
        if error is None:
            got = digest(outputs)
            if self.reference[index] is None:
                self.reference[index] = got
                if self.expected is not None and got != self.expected[index]:
                    error = f"chunk {index} output digest {got}, expected {self.expected[index]}"
            elif got != self.reference[index]:
                error = f"chunk {index} output differs from its first run"
        if error is None:
            try:
                tally = self.workload.check(chunk, outputs)
            except CheckError as exc:
                error = f"chunk {index}: {exc}"
        if error is not None:
            self.failed += audits
            if len(self.problems) < 5:
                print(f"check failed: {error}", file=sys.stderr)
            self.problems.append(error)
            return None
        self.failed += tally.errors
        return tally
