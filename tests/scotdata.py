"""Locating optional real-election data for the data-dependent tests.

Point ``SCOT_ELEX_DIR`` at a local clone of the Scottish local-government
ballot archive (https://github.com/mggg/scot-elex).  Elections are located
by candidate roster, not by filename, so any directory layout works.  When
the variable is unset or nothing matches, the dependent tests skip.
"""

from __future__ import annotations

import os
import re
from functools import lru_cache
from pathlib import Path
from typing import NamedTuple

from mwspoilers.blt_io import parse_blt
from mwspoilers.core import Profile


def corpus_dir() -> Path | None:
    root = os.environ.get("SCOT_ELEX_DIR")
    if not root:
        return None
    path = Path(root)
    return path if path.is_dir() else None


class Corpus(NamedTuple):
    elections: tuple[tuple[str, Profile], ...]
    skipped: tuple[str, ...]  # files that could not be read or are not ballot files


@lru_cache(maxsize=1)
def load_corpus() -> Corpus:
    """Every ``.blt`` file under ``SCOT_ELEX_DIR``, parsed, by relative path.

    A file skipped as unreadable or malformed (``OSError``, ``ValueError``, as
    the command line skips it) is listed in ``skipped``; any other exception
    is a bug and propagates.
    """
    root = corpus_dir()
    if root is None:
        return Corpus((), ())
    elections, skipped = [], []
    for file in sorted(root.rglob("*.blt")):
        name = str(file.relative_to(root))
        try:
            elections.append((name, parse_blt(file.read_bytes())))
        except (OSError, ValueError):
            skipped.append(name)
    return Corpus(tuple(elections), tuple(skipped))


def find_by_candidates(surnames: list[str], m: int, k: int) -> Profile | None:
    """The unique corpus election whose roster carries all the surnames."""
    pattern = [re.compile(rf"\b{re.escape(s)}\b", re.IGNORECASE) for s in surnames]
    matches = []
    for _, profile in load_corpus().elections:
        if profile.m != m or profile.k != k:
            continue
        if all(any(p.search(name) for name in profile.names) for p in pattern):
            matches.append(profile)
    return matches[0] if len(matches) == 1 else None
