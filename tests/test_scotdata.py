"""The real-election loader skips bad files visibly and lets bugs through."""

import pytest

import scotdata
from mwspoilers.blt_io import emit_blt

from conftest import vote_splitting_profile


@pytest.fixture
def archive(tmp_path, monkeypatch):
    (tmp_path / "ward").mkdir()
    (tmp_path / "ward" / "good.blt").write_bytes(emit_blt(vote_splitting_profile(), title="g"))
    (tmp_path / "bad.blt").write_bytes(b"not a ballot file\n")
    (tmp_path / "dir.blt").mkdir()  # reading it raises an OSError
    monkeypatch.setenv("SCOT_ELEX_DIR", str(tmp_path))
    scotdata.load_corpus.cache_clear()
    yield tmp_path
    scotdata.load_corpus.cache_clear()


def test_bad_files_are_skipped_and_listed(archive):
    elections, skipped = scotdata.load_corpus()
    assert elections == (("ward/good.blt", vote_splitting_profile()),)
    assert skipped == ("bad.blt", "dir.blt")


def test_a_parser_bug_propagates(archive, monkeypatch):
    def broken(data):
        raise TypeError("bug")

    monkeypatch.setattr(scotdata, "parse_blt", broken)
    with pytest.raises(TypeError, match="^bug$"):
        scotdata.load_corpus()
