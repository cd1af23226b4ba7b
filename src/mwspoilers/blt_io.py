"""Reading and writing preference-ballot files in the Scottish ``.blt`` dialect.

The grammar matches the files published for Scottish local government
elections (see the scot-elex collection at
https://github.com/mggg/scot-elex, which is also where to fetch the full
dataset; it is not vendored here):

* line 1: ``m k`` (candidate count and seats, ``k < m``),
* one line per ballot: ``w i1 i2 ... 0`` with a positive integer weight and
  distinct 1-based candidate indices, terminated by a ``0``,
* a lone ``0`` line ending the ballot section,
* ``m`` quoted candidate names, one per line,
* a quoted election title.

Windows line endings and trailing whitespace are tolerated; anything else
malformed is rejected with the offending line number, since a quietly
mis-parsed ballot file would poison every audit downstream.  Lines after the
title (present in a handful of corpus files) are skipped.  Other ballot
formats are out of scope; to add one, produce a
:class:`~mwspoilers.core.Profile` by any means and feed it to the same
downstream machinery.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .core import _MAX_CANDIDATES, Profile


class BltParseError(ValueError):
    """Malformed ballot file; carries the 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


@dataclass(frozen=True)
class BltDocument:
    """A parsed ballot file, kept close to its on-disk shape."""

    m: int
    k: int
    ballot_lines: tuple[tuple[int, tuple[int, ...]], ...]  # weight, 1-based indices
    names: tuple[str, ...]
    title: str

    def to_profile(self) -> Profile:
        rankings = tuple(map(operator.itemgetter(1), self.ballot_lines))
        weights = map(operator.itemgetter(0), self.ballot_lines)
        # Every index shifted to zero-based into one bytes object, then cut into rankings.
        shifted = bytes(map((-1).__add__, itertools.chain.from_iterable(rankings)))
        ends = tuple(itertools.accumulate(map(len, rankings)))
        zero_based = map(shifted.__getitem__, map(slice, (0, *ends), ends))
        return Profile.build(self.m, self.names, zip(zero_based, weights), self.k)


def _decode(data: bytes | str) -> list[str]:
    # utf-8-sig strips a BOM when present and is plain UTF-8 otherwise.
    text = data.decode("utf-8-sig") if isinstance(data, bytes) else data
    return text.split("\n")


def _integers(fields: list[str]) -> list[int] | None:
    try:
        return [int(f) for f in fields]
    except ValueError:
        return None


def _unquote(raw: str, line_no: int) -> str:
    s = raw.strip()
    if len(s) < 2 or not s.startswith('"') or not s.endswith('"'):
        raise BltParseError(line_no, f"expected a quoted string, got {raw!r}")
    body = s[1:-1]
    out: list[str] = []
    i = 0
    while i < len(body):
        ch = body[i]
        if ch == "\\" and i + 1 < len(body) and body[i + 1] in ('"', "\\"):
            out.append(body[i + 1])
            i += 2
        elif ch == '"':
            raise BltParseError(line_no, "unescaped quote inside a name")
        else:
            out.append(ch)
            i += 1
    return "".join(out)


def _quote(name: str) -> str:
    return '"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"'


def parse_blt_document(data: bytes | str) -> BltDocument:
    """Parse a ``.blt`` byte stream into its document structure."""
    lines = _decode(data)
    pos = 0

    def next_line() -> tuple[str, int]:
        nonlocal pos
        if pos >= len(lines):
            raise BltParseError(len(lines), "unexpected end of file")
        raw = lines[pos].rstrip("\r").rstrip()
        pos += 1
        return raw, pos

    header, line_no = next_line()
    parts = header.split()
    numbers = _integers(parts)
    if numbers is None or len(numbers) != 2:
        raise BltParseError(line_no, f"header must be 'm k', got {header!r}")
    m, k = numbers
    if m < 2:
        raise BltParseError(line_no, f"need at least 2 candidates, got m={m}")
    if m > _MAX_CANDIDATES:
        raise BltParseError(line_no, f"at most {_MAX_CANDIDATES} candidates supported, got m={m}")
    if not 1 <= k < m:
        raise BltParseError(line_no, f"seat count k={k} must satisfy 1 <= k < m={m}")

    ballot_lines: list[tuple[int, tuple[int, ...]]] = []
    saw_sentinel = False
    while True:
        raw, line_no = next_line()
        if raw == "0":
            saw_sentinel = True
            break
        numbers = _integers(raw.split())
        if not numbers:
            raise BltParseError(line_no, f"expected a ballot line, got {raw!r}")
        if numbers[-1] != 0:
            raise BltParseError(line_no, "ballot line must end with 0")
        weight, ranking = numbers[0], tuple(numbers[1:-1])
        if weight <= 0:
            raise BltParseError(line_no, f"ballot weight must be positive, got {weight}")
        if not ranking:
            raise BltParseError(line_no, "ballot ranks no candidates")
        if any(not 1 <= i <= m for i in ranking):
            raise BltParseError(line_no, f"candidate index out of range 1..{m}")
        if len(set(ranking)) != len(ranking):
            raise BltParseError(line_no, "duplicate candidate on ballot")
        ballot_lines.append((weight, ranking))
    if not saw_sentinel:  # pragma: no cover - next_line raises first
        raise BltParseError(line_no, "missing ballot sentinel line '0'")
    if not ballot_lines:
        raise BltParseError(line_no, "file contains no ballots")

    names: list[str] = []
    for _ in range(m):
        raw, line_no = next_line()
        names.append(_unquote(raw, line_no))
    raw, line_no = next_line()
    title = _unquote(raw, line_no)
    return BltDocument(
        m=m,
        k=k,
        ballot_lines=tuple(ballot_lines),
        names=tuple(names),
        title=title,
    )


def parse_blt(data: bytes | str) -> Profile:
    """Parse a ``.blt`` stream straight to a profile (0-based, deduplicated)."""
    return parse_blt_document(data).to_profile()


def emit_blt(profile: Profile, title: str = "") -> bytes:
    """Render a profile as a canonical ``.blt`` byte stream.

    Ballot types come out sorted with weights aggregated, so
    ``parse_blt(emit_blt(p)) == p``.
    """
    out = [f"{profile.m} {profile.k}"]
    for ranking, weight in profile.ballots:
        body = " ".join(str(c + 1) for c in ranking)
        out.append(f"{weight} {body} 0")
    out.append("0")
    out.extend(_quote(name) for name in profile.names)
    out.append(_quote(title))
    return ("\n".join(out) + "\n").encode("utf-8")


def emit_results_csv(
    rows: Sequence[Mapping[str, object]],
    percent_fields: Iterable[str] | None = None,
    columns: Sequence[str] | None = None,
) -> bytes:
    """Render result rows as CSV (UTF-8, LF, comma-separated).

    Column order follows the first row's keys unless ``columns`` is given
    explicitly (required to emit a header-only table for zero rows).  Float
    values named in ``percent_fields`` (default: every float-valued field)
    are fractions and are printed as percentages with one decimal place,
    e.g. ``0.049 -> 4.9``.  Other floats keep three decimals; ``None``
    prints empty.
    """
    if columns is None:
        if not rows:
            return b""
        columns = list(rows[0].keys())
    else:
        columns = list(columns)
    pct = set(percent_fields) if percent_fields is not None else None

    def render(key: str, value: object) -> str:
        if value is None:
            return ""
        if isinstance(value, bool):
            return "1" if value else "0"
        if isinstance(value, float):
            if pct is None or key in pct:
                return f"{100.0 * value:.1f}"
            return f"{value:.3f}"
        text = str(value)
        if any(ch in text for ch in ',"\n'):
            text = '"' + text.replace('"', '""') + '"'
        return text

    lines = [",".join(columns)]
    for row in rows:
        if list(row.keys()) != columns:
            raise ValueError("all rows must share the same columns")
        lines.append(",".join(render(key, row[key]) for key in columns))
    return ("\n".join(lines) + "\n").encode("utf-8")
