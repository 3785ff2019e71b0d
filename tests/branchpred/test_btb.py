"""Branch-target buffer tests."""

import numpy as np
import pytest

from repro.branchpred.btb import BranchTargetBuffer, BTBStats
from repro.errors import ConfigurationError

#: Outcomes of one CTI (T taken, N not taken; one pc, one target) and
#: whether each prediction is correct (+) or not (-); the first access
#: always misses the BTB.
COUNTER_CASES = {
    # Saturates at 3: after a run of takens one not-taken still predicts
    # taken, and a second one flips the prediction.
    "saturates_high": ("TTTTTTNNN", "-+++++--+"),
    # Saturates at 0: the mirror case.
    "saturates_low": ("NNNNNNTTT", "-+++++--+"),
    # A taken miss allocates the counter at 2 (one not-taken flips it)...
    "taken_allocates_2": ("TNN", "--+"),
    # ...and a not-taken miss at 1 (one taken flips it).
    "not_taken_allocates_1": ("NTT", "--+"),
}


class TestBTBStats:
    def test_rates(self):
        stats = BTBStats(ctis=100, hits=80, correct=75)
        assert stats.wrong == 25
        assert stats.hit_rate == pytest.approx(0.80)
        assert stats.wrong_rate == pytest.approx(0.25)

    def test_cycles_per_cti_formula(self):
        # Table 4's structure: 1 + wrong_rate * (delay + 1 refill cycle).
        stats = BTBStats(ctis=100, hits=80, correct=78)
        assert stats.cycles_per_cti(1) == pytest.approx(1 + 0.22 * 2)
        assert stats.cycles_per_cti(3) == pytest.approx(1 + 0.22 * 4)

    def test_additional_cpi(self):
        stats = BTBStats(ctis=100, hits=80, correct=78)
        assert stats.additional_cpi(1, cti_fraction=0.13) == pytest.approx(
            0.13 * 0.22 * 2
        )

    def test_empty_stream(self):
        stats = BTBStats(ctis=0, hits=0, correct=0)
        assert stats.wrong_rate == 0.0
        assert stats.cycles_per_cti(2) == 1.0

    def test_negative_delay_rejected(self):
        with pytest.raises(ConfigurationError):
            BTBStats(1, 1, 1).cycles_per_cti(-1)


class TestBranchTargetBuffer:
    def test_entries_must_be_power_of_two(self):
        with pytest.raises(ConfigurationError):
            BranchTargetBuffer(entries=100)

    def test_first_access_is_wrong(self):
        btb = BranchTargetBuffer()
        assert not btb.access(0x400000, True, 0x400100)

    def test_learns_taken_branch(self):
        btb = BranchTargetBuffer()
        btb.access(0x400000, True, 0x400100)
        assert btb.access(0x400000, True, 0x400100)

    def test_target_change_counts_wrong(self):
        # Returns change target per call site: a hit with the wrong stored
        # target is not a correct prediction.
        btb = BranchTargetBuffer()
        btb.access(0x400000, True, 0x400100)
        assert not btb.access(0x400000, True, 0x400200)
        # After the update, the new target predicts correctly.
        assert btb.access(0x400000, True, 0x400200)

    def test_not_taken_branch_learned(self):
        btb = BranchTargetBuffer()
        btb.access(0x400000, False, 0x400100)  # miss, allocates counter=1
        assert btb.access(0x400000, False, 0x400100)  # predicts not-taken

    def test_conflict_eviction(self):
        btb = BranchTargetBuffer(entries=4)
        a, b = 0x1000, 0x1000 + 4 * 4  # same index in a 4-entry BTB
        btb.access(a, True, 0x2000)
        btb.access(b, True, 0x3000)  # evicts a
        assert not btb.access(a, True, 0x2000)

    def test_hysteresis_on_loop_exit(self):
        btb = BranchTargetBuffer()
        pc, target = 0x4000, 0x5000
        btb.access(pc, True, target)
        for _ in range(5):
            btb.access(pc, True, target)
        btb.access(pc, False, target)  # loop exit: mispredicted
        assert btb.access(pc, True, target)  # still predicts taken

    @pytest.mark.parametrize(
        "outcomes, expected", COUNTER_CASES.values(), ids=COUNTER_CASES.keys()
    )
    def test_two_bit_counter(self, outcomes, expected):
        taken = [outcome == "T" for outcome in outcomes]
        btb = BranchTargetBuffer()
        correct = [btb.access(0x4000, was_taken, 0x5000) for was_taken in taken]
        assert "".join("+" if c else "-" for c in correct) == expected
        n = len(taken)
        stats = BranchTargetBuffer().simulate([0x4000] * n, taken, [0x5000] * n)
        assert stats == BTBStats(ctis=n, hits=n - 1, correct=expected.count("+"))

    def test_reset(self):
        btb = BranchTargetBuffer()
        btb.access(0x4000, True, 0x5000)
        btb.reset()
        assert not btb.access(0x4000, True, 0x5000)

    def test_simulate_matches_sequential_access(self):
        rng = np.random.default_rng(5)
        pcs = rng.choice([0x4000 + 4 * i for i in range(600)], size=5000)
        taken = rng.random(5000) < 0.7
        targets = (pcs * 7 + 64) & ~np.int64(3)
        stats = BranchTargetBuffer(entries=256).simulate(pcs, taken, targets)
        reference = BranchTargetBuffer(entries=256)
        correct = sum(
            reference.access(int(p), bool(t), int(g))
            for p, t, g in zip(pcs, taken, targets)
        )
        assert stats.correct == correct
        assert stats.ctis == 5000

    def test_simulate_carries_state_across_slices(self, monkeypatch):
        # simulate() converts the stream one slice at a time; over a stream
        # fifty slices long its stats must be those of per-CTI access().
        import repro.branchpred.btb as btb_module

        monkeypatch.setattr(btb_module, "SIMULATE_SLICE", 97)
        rng = np.random.default_rng(11)
        pcs = rng.choice([0x4000 + 4 * i for i in range(300)], size=5000)
        taken = rng.random(5000) < 0.6
        targets = rng.choice([0x8000, 0x8040, 0x9000], size=5000)
        stats = BranchTargetBuffer(entries=64).simulate(pcs, taken, targets)
        reference = BranchTargetBuffer(entries=64)
        hits = correct = 0
        for pc, was_taken, target in zip(*(a.tolist() for a in (pcs, taken, targets))):
            hits += reference._tags[(pc >> 2) & 63] == pc
            correct += reference.access(pc, was_taken, target)
        assert len(pcs) > 50 * btb_module.SIMULATE_SLICE
        assert stats == BTBStats(ctis=5000, hits=hits, correct=correct)
        assert 0 < stats.correct < stats.hits < stats.ctis

    def test_simulate_rejects_ragged_input(self):
        with pytest.raises(ConfigurationError):
            BranchTargetBuffer().simulate([1], [True, False], [2])

    def test_working_set_beyond_capacity_hurts(self):
        rng = np.random.default_rng(7)
        small = rng.choice([0x4000 + 4 * i for i in range(64)], size=4000)
        large = rng.choice([0x4000 + 4 * i for i in range(4096)], size=4000)
        taken = np.ones(4000, dtype=bool)
        small_stats = BranchTargetBuffer().simulate(small, taken, small + 64)
        large_stats = BranchTargetBuffer().simulate(large, taken, large + 64)
        assert small_stats.wrong_rate < large_stats.wrong_rate


class TestCtiStreamIntegration:
    def test_stream_from_trace(self):
        from repro.branchpred.streams import cti_stream
        from repro.trace import execute_program
        from repro.workload import benchmark_by_name, synthesize_program

        program = synthesize_program(benchmark_by_name("small"))
        trace = execute_program(program, 20_000)
        stream = cti_stream(trace)
        assert len(stream) > 0
        assert (stream.pcs % 4 == 0).all()
        # Taken CTIs' targets are block starts distinct from the pc run.
        offset_stream = stream.with_offset(1 << 36)
        assert (offset_stream.pcs - stream.pcs == 1 << 36).all()

    def test_btb_on_synthesized_trace_is_plausible(self):
        from repro.branchpred.streams import cti_stream
        from repro.trace import execute_program
        from repro.workload import benchmark_by_name, synthesize_program

        program = synthesize_program(benchmark_by_name("small"))
        trace = execute_program(program, 40_000)
        stream = cti_stream(trace)
        stats = BranchTargetBuffer().simulate(stream.pcs, stream.taken, stream.targets)
        # Neither perfect nor useless (paper's effective wrong rate ~0.22).
        assert 0.05 < stats.wrong_rate < 0.50


class TestWindowedCtiStream:
    """A trace's CTIs read window by window, against the whole stream."""

    @pytest.fixture(scope="class")
    def trace(self):
        from repro.trace import execute_program
        from repro.workload import benchmark_by_name, synthesize_program

        return execute_program(synthesize_program(benchmark_by_name("small")), 20_000)

    @pytest.mark.parametrize("window", [1, 2, 7, 1 << 20])
    @pytest.mark.parametrize("quantum", [1, 5, 333])
    def test_slices_concatenate_to_the_whole_stream(self, trace, window, quantum):
        from repro.branchpred.streams import CtiStream, WindowedCtiStream, cti_stream

        whole = cti_stream(trace).with_offset(1 << 36)
        windowed = WindowedCtiStream(trace, window, offset=1 << 36)
        assert len(windowed) == len(whole) > 1000
        pieces = [
            windowed[start : start + quantum]
            for start in range(0, len(windowed), quantum)
        ]
        assert all(len(p) == quantum for p in pieces[:-1])
        joined = CtiStream.concatenate(pieces)
        for name in ("pcs", "taken", "targets"):
            np.testing.assert_array_equal(getattr(joined, name), getattr(whole, name))

    def test_step_ranges_concatenate_to_the_whole_stream(self, trace):
        from repro.branchpred.streams import CtiStream, cti_count, cti_stream

        whole = cti_stream(trace)
        bounds = [0, 1, 2, 500, 501, trace.steps - 2, trace.steps - 1, trace.steps + 5]
        joined = CtiStream.concatenate(
            [cti_stream(trace, a, b) for a, b in zip(bounds, bounds[1:])]
        )
        np.testing.assert_array_equal(joined.pcs, whole.pcs)
        np.testing.assert_array_equal(joined.taken, whole.taken)
        assert cti_count(trace) == len(whole)

    def test_slices_are_read_in_order(self, trace):
        from repro.branchpred.streams import WindowedCtiStream
        from repro.errors import TraceError

        windowed = WindowedCtiStream(trace, 64)
        windowed[0:10]
        with pytest.raises(TraceError):
            windowed[20:30]

    def test_short_traces_have_no_ctis(self, trace):
        from repro.branchpred.streams import WindowedCtiStream, cti_count, cti_stream
        from repro.trace.executor import ExecutionTrace

        for steps in (0, 1):
            short = ExecutionTrace(
                trace.compiled, trace.block_ids[:steps], trace.went_taken[:steps], 0
            )
            assert cti_count(short) == len(cti_stream(short)) == 0
            assert len(WindowedCtiStream(short, 4)) == 0
