"""RunJournal tests: checksums, torn-tail recovery, resume refusal."""

import json

import pytest

from repro.errors import ConfigurationError
from tests.jobs.helpers import truncate_journal_tail
from repro.jobs.journal import (
    JOURNAL_VERSION,
    RUN_MARKER,
    RunJournal,
    prepare_run_dir,
)


def _header(**overrides):
    header = {
        "journal_version": JOURNAL_VERSION,
        "spec_digest": "spec-aaa",
        "tech_digest": "tech-bbb",
        "grid_digest": "grid-ccc",
        "shard_size": 4,
        "shard_count": 3,
        "config_count": 12,
    }
    header.update(overrides)
    return header


class TestAppendLoad:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        journal = RunJournal.open(path, _header())
        journal.append("shard_dispatched", shard=0, attempt=0, configs=4)
        journal.append("shard_completed", shard=0, attempt=0, points=[{"cpi": 1.5}])
        loaded = RunJournal.load(path)
        assert [r["type"] for r in loaded.records] == [
            "run_header",
            "shard_dispatched",
            "shard_completed",
        ]
        assert loaded.records[2]["points"] == [{"cpi": 1.5}]

    def test_missing_file_is_empty(self, tmp_path):
        journal = RunJournal.load(tmp_path / "absent.jsonl")
        assert journal.records == []
        assert not journal.finished

    def test_replay_folds_events(self, tmp_path):
        journal = RunJournal.open(tmp_path / "sweep.jsonl", _header())
        journal.append("shard_dispatched", shard=0, attempt=0, configs=4)
        journal.append("shard_failed", shard=0, attempt=0, error="boom")
        journal.append("shard_dispatched", shard=0, attempt=1, configs=4)
        journal.append("shard_completed", shard=0, attempt=1, points=[{"cpi": 2.0}])
        journal.append("shard_dispatched", shard=1, attempt=0, configs=4)
        completed, dispatched = journal.replay()
        assert completed == {0: [{"cpi": 2.0}]}
        assert dispatched == {0: 2, 1: 1}

    def test_finished_flag(self, tmp_path):
        journal = RunJournal.open(tmp_path / "sweep.jsonl", _header())
        assert not journal.finished
        journal.append("run_completed")
        assert RunJournal.load(journal.path).finished


class TestCrashSafety:
    def _journal_with_two_shards(self, tmp_path):
        journal = RunJournal.open(tmp_path / "sweep.jsonl", _header())
        journal.append("shard_completed", shard=0, attempt=0, points=[{"cpi": 1.0}])
        journal.append("shard_completed", shard=1, attempt=0, points=[{"cpi": 2.0}])
        return journal

    def test_truncated_final_record_is_dropped(self, tmp_path):
        journal = self._journal_with_two_shards(tmp_path)
        truncate_journal_tail(journal.path, drop_bytes=9)
        loaded = RunJournal.load(journal.path)
        completed, _ = loaded.replay()
        assert completed == {0: [{"cpi": 1.0}]}  # shard 1's commit was torn

    def test_truncated_tail_is_physically_removed(self, tmp_path):
        # The torn line must not linger: the next append would otherwise
        # glue new bytes onto the partial record.
        journal = self._journal_with_two_shards(tmp_path)
        truncate_journal_tail(journal.path, drop_bytes=9)
        loaded = RunJournal.load(journal.path)
        loaded.append("shard_completed", shard=1, attempt=1, points=[{"cpi": 3.0}])
        completed, _ = RunJournal.load(journal.path).replay()
        assert completed == {0: [{"cpi": 1.0}], 1: [{"cpi": 3.0}]}

    def test_mid_file_corruption_is_fatal(self, tmp_path):
        journal = self._journal_with_two_shards(tmp_path)
        lines = journal.path.read_text().splitlines()
        lines[1] = lines[1][:-10] + "tampered!!"
        journal.path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ConfigurationError, match="corrupt at line 2"):
            RunJournal.load(journal.path)

    def test_tampered_value_fails_checksum(self, tmp_path):
        journal = self._journal_with_two_shards(tmp_path)
        lines = journal.path.read_text().splitlines()
        lines[-1] = lines[-1].replace('"cpi":2.0', '"cpi":9.9')
        journal.path.write_text("\n".join(lines) + "\n")
        completed, _ = RunJournal.load(journal.path).replay()
        assert completed == {0: [{"cpi": 1.0}]}  # tampered tail dropped

    def test_torn_header_starts_over(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        path.write_text('{"type":"run_header","spec')  # died mid-first-append
        journal = RunJournal.open(path, _header())
        assert [r["type"] for r in journal.records] == ["run_header"]
        assert journal.records[0]["spec_digest"] == "spec-aaa"


class TestResumeRefusal:
    def test_same_header_resumes(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        first = RunJournal.open(path, _header())
        first.append("shard_completed", shard=0, attempt=0, points=[])
        second = RunJournal.open(path, _header())
        assert len(second.records) == 2

    def test_different_spec_digest_refused(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        RunJournal.open(path, _header())
        with pytest.raises(ConfigurationError, match="spec_digest mismatch"):
            RunJournal.open(path, _header(spec_digest="spec-zzz"))

    def test_different_shard_plan_refused(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        RunJournal.open(path, _header())
        with pytest.raises(ConfigurationError, match="shard_size mismatch"):
            RunJournal.open(path, _header(shard_size=2))

    def test_headerless_journal_refused(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        stray = RunJournal(path, [])
        stray.append("shard_completed", shard=0, attempt=0, points=[])
        with pytest.raises(ConfigurationError, match="run_header"):
            RunJournal.open(path, _header())


class TestPrepareRunDir:
    def test_fresh_directory(self, tmp_path):
        run_dir = prepare_run_dir(tmp_path / "run", resume=False)
        assert (run_dir / RUN_MARKER).exists()
        assert (run_dir / "sweeps").is_dir()
        payload = json.loads((run_dir / RUN_MARKER).read_text())
        assert payload["format"] == "repro.jobs/run"

    def test_existing_run_requires_resume(self, tmp_path):
        prepare_run_dir(tmp_path / "run", resume=False)
        with pytest.raises(ConfigurationError, match="--resume"):
            prepare_run_dir(tmp_path / "run", resume=False)

    def test_existing_run_resumes(self, tmp_path):
        prepare_run_dir(tmp_path / "run", resume=False)
        prepare_run_dir(tmp_path / "run", resume=True)

    def test_empty_or_absent_dir_with_resume_is_fine(self, tmp_path):
        # Edge case: --resume pointed at a brand-new directory simply
        # starts a fresh run (nothing to replay is not an error).
        (tmp_path / "empty").mkdir()
        prepare_run_dir(tmp_path / "empty", resume=True)
        prepare_run_dir(tmp_path / "absent", resume=True)
