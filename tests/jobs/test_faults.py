"""Fault-injector tests: spec parsing and trigger points."""

import pytest

from repro.errors import ConfigurationError
from repro.jobs.faults import (
    FaultInjector,
    FaultSpec,
    InjectedCrash,
    InjectedFault,
)
from tests.jobs.helpers import truncate_journal_tail


class TestFaultSpec:
    def test_parse_full(self):
        assert FaultSpec.parse("task-error:3:1") == FaultSpec("task-error", 3, 1)

    def test_parse_default_attempt(self):
        assert FaultSpec.parse("abort:2") == FaultSpec("abort", 2, 0)

    @pytest.mark.parametrize(
        "text", ["", "abort", "explode:1", "abort:x", "task-error:1:2:3"]
    )
    def test_parse_rejects_malformed(self, text):
        with pytest.raises(ConfigurationError):
            FaultSpec.parse(text)


class TestInjector:
    def test_task_error_fires_on_exact_attempt(self):
        injector = FaultInjector.parse(["task-error:1:1"])
        injector.before_shard(1, 0)  # wrong attempt: no fault
        injector.before_shard(0, 1)  # wrong shard: no fault
        with pytest.raises(InjectedFault):
            injector.before_shard(1, 1)

    def test_abort_fires_after_commit(self):
        injector = FaultInjector.parse(["abort:2"])
        injector.after_commit(1)
        with pytest.raises(InjectedCrash):
            injector.after_commit(2)

    def test_worker_exit_only_on_first_attempt(self):
        injector = FaultInjector.parse(["worker-exit:0"])
        assert injector.wants_worker_exit(0, 0)
        assert not injector.wants_worker_exit(0, 1)
        assert not injector.wants_worker_exit(1, 0)

    def test_worker_exit_honours_its_attempt(self):
        # As task-error does: an explicit attempt fires on that attempt
        # only, not on the first.
        injector = FaultInjector.parse(["worker-exit:0:1"])
        assert not injector.wants_worker_exit(0, 0)
        assert injector.wants_worker_exit(0, 1)
        assert not injector.wants_worker_exit(0, 2)


def test_truncate_journal_tail(tmp_path):
    path = tmp_path / "j.jsonl"
    path.write_bytes(b"0123456789")
    truncate_journal_tail(path, drop_bytes=4)
    assert path.read_bytes() == b"012345"
    truncate_journal_tail(path, drop_bytes=100)
    assert path.read_bytes() == b""
