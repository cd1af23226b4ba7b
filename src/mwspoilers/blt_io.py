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

A number is a run of ASCII decimal digits (leading zeros allowed); signs,
underscores and other scripts' digits are rejected.  Numbers are separated
by whitespace, and Windows line endings and trailing whitespace are
tolerated; anything else malformed is rejected with the offending line
number, since a quietly mis-parsed ballot file would poison every audit
downstream.  Lines after the title (present in a handful of corpus files)
are skipped.  Other ballot formats are out of scope; to add one, produce a
:class:`~mwspoilers.core.Profile` by any means and feed it to the same
downstream machinery.

The ballot section is read in bulk: one compiled pattern checks every line's
grammar, the numbers are converted in one pass, the zero-based rankings are
cut as slices of one ``bytes`` object, and :meth:`~mwspoilers.core.Profile.build`
checks the ballots.  Only a file that fails is walked line by line, to name
its first fault.
"""

from __future__ import annotations

import itertools
import operator
import re
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .core import _MAX_CANDIDATES, Profile, ProfileError


class BltParseError(ValueError):
    """Malformed ballot file; carries the 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


@dataclass(frozen=True)
class BltDocument:
    """A parsed ballot file: its profile and the election title it carries."""

    profile: Profile
    title: str


# Whitespace within a line: every character str.split() splits on but the line
# break, listed so that a ballot's numbers and gaps form one character class.
_GAPS = "\t\x0b\x0c\r\x1c-\x1f \x85\xa0\u1680\u2000-\u200a\u2028\u2029\u202f\u205f\u3000"
# A whole ballot line: the weight, the indices after a gap, then a gap and the 0.
_BALLOT_LINE = re.compile(
    f"^[{_GAPS}]*([0-9]+)([{_GAPS}][0-9{_GAPS}]*)[{_GAPS}]+0+[{_GAPS}]*\n", re.M
)
# The line ending the ballot section, matched with the line break before it.
_SENTINEL = re.compile(f"\n0[{_GAPS}]*$", re.M)
# An index token, leading zeros stripped, to its zero-based candidate.
_ZERO_BASED = {str(i): i - 1 for i in range(1, _MAX_CANDIDATES + 1)}
_NUMBER = re.compile("[0-9]+")


def _integers(fields: list[str]) -> list[int] | None:
    """The fields as integers, or None unless every one is a number."""
    if not all(map(_NUMBER.fullmatch, fields)):
        return None
    try:
        return list(map(int, fields))
    except ValueError:  # more digits than int() converts
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


def _header(raw: str) -> tuple[int, int]:
    raw = raw.rstrip()
    numbers = _integers(raw.split())
    if numbers is None or len(numbers) != 2:
        raise BltParseError(1, f"header must be 'm k', got {raw!r}")
    m, k = numbers
    if m < 2:
        raise BltParseError(1, f"need at least 2 candidates, got m={m}")
    if m > _MAX_CANDIDATES:
        raise BltParseError(1, f"at most {_MAX_CANDIDATES} candidates supported, got m={m}")
    if not 1 <= k < m:
        raise BltParseError(1, f"seat count k={k} must satisfy 1 <= k < m={m}")
    return m, k


def _ballot_lines(section: str) -> tuple[list[bytes], list[int]] | None:
    """The zero-based rankings and the weights of the lines of ``section`` (each
    ending in a line break), or None when it holds none or breaks the grammar."""
    found = _BALLOT_LINE.findall(section)
    # Each match ends at a line break and starts a line, so as many matches as
    # line breaks means every line matched on its own.
    if not found or len(found) != section.count("\n"):
        return None
    indices = list(map(str.split, map(operator.itemgetter(1), found)))
    tokens = map(str.lstrip, itertools.chain.from_iterable(indices), itertools.repeat("0"))
    try:
        weights = list(map(int, map(operator.itemgetter(0), found)))
        # Every index zero-based in one bytes object, then cut into rankings.
        shifted = bytes(map(_ZERO_BASED.__getitem__, tokens))
    except (KeyError, ValueError):  # an index of 0 or above 256, a weight too long for int()
        return None
    bounds = list(itertools.accumulate(map(len, indices), initial=0))
    return list(map(shifted.__getitem__, map(slice, bounds, bounds[1:]))), weights


def _name_fault(lines: list[str], m: int) -> None:
    """Raise the first fault of the ballot section that starts at line 2, if any."""
    for line_no, raw in enumerate(lines[1:], 2):
        raw = raw.rstrip()
        if raw == "0":
            if line_no == 2:
                raise BltParseError(line_no, "file contains no ballots")
            return
        numbers = _integers(raw.split())
        if not numbers:
            raise BltParseError(line_no, f"expected a ballot line, got {raw!r}")
        if numbers[-1] != 0:
            raise BltParseError(line_no, "ballot line must end with 0")
        weight, ranking = numbers[0], numbers[1:-1]
        if weight <= 0:
            raise BltParseError(line_no, f"ballot weight must be positive, got {weight}")
        if not ranking:
            raise BltParseError(line_no, "ballot ranks no candidates")
        if any(not 1 <= i <= m for i in ranking):
            raise BltParseError(line_no, f"candidate index out of range 1..{m}")
        if len(set(ranking)) != len(ranking):
            raise BltParseError(line_no, "duplicate candidate on ballot")
    raise BltParseError(len(lines), "unexpected end of file")


def parse_blt_document(data: bytes | str) -> BltDocument:
    """Parse a ``.blt`` byte stream into its profile and title."""
    # utf-8-sig strips a BOM when present and is plain UTF-8 otherwise.
    text = data.decode("utf-8-sig") if isinstance(data, bytes) else data
    header = text.partition("\n")[0]
    m, k = _header(header)
    start = len(header)  # the header's line break, if any
    sentinel = _SENTINEL.search(text, start)
    ballots = sentinel and _ballot_lines(text[start + 1 : sentinel.start() + 1])
    fault = None
    if ballots:
        # The names and the title follow the sentinel line, numbered from first.
        first = len(ballots[1]) + 3
        tail = text[sentinel.end() :].split("\n", m + 2)[1 : m + 2]
        try:
            quoted = [_unquote(raw.rstrip(), no) for no, raw in enumerate(tail, first)]
            if len(quoted) <= m:
                raise BltParseError(first + len(tail) - 1, "unexpected end of file")
            return BltDocument(Profile.build(m, quoted[:m], zip(*ballots), k), quoted[m])
        except (BltParseError, ProfileError) as exc:
            fault = exc
    # A faulty ballot line comes before the names: the line walker names it.
    _name_fault(text.split("\n"), m)
    if not isinstance(fault, BltParseError):
        raise AssertionError("unreachable: the line walker accepts a rejected ballot section") from fault
    raise fault


def parse_blt(data: bytes | str) -> Profile:
    """Parse a ``.blt`` stream straight to a profile (0-based, deduplicated)."""
    return parse_blt_document(data).profile


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
