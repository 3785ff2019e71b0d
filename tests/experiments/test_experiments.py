"""Experiment-harness tests.

Each experiment is run against the shared (subset) measurement session
and checked for structure and for the paper's qualitative shape claims.
The full-suite shape anchors live in ``test_paper_shape.py`` and the
full-scale quantitative comparison in EXPERIMENTS.md.
"""

import pytest

from repro.experiments import ExperimentResult
from repro.experiments.runner import ALL_EXPERIMENTS


@pytest.fixture(scope="module")
def results(measurement):
    return {name: run(measurement) for name, run in ALL_EXPERIMENTS.items()}


class TestHarness:
    def test_all_experiments_present(self):
        expected = {f"table{i}" for i in range(1, 7)} | {
            f"fig{i}" for i in range(3, 14)
        }
        assert set(ALL_EXPERIMENTS) == expected

    def test_results_are_well_formed(self, results):
        for name, result in results.items():
            assert isinstance(result, ExperimentResult)
            assert result.experiment_id == name
            assert result.text.strip()
            assert result.data
            assert result.paper_notes

    def test_str_includes_id_and_notes(self, results):
        text = str(results["table2"])
        assert "table2" in text
        assert "[paper]" in text


class TestTableShapes:
    def test_table1_covers_subset(self, results, measurement):
        rows = results["table1"].data["rows"]
        assert {r["name"] for r in rows} == {s.name for s in measurement.specs}

    def test_table2_expansion_monotone(self, results):
        expansion = results["table2"].data["expansion_pct"]
        assert 0 < expansion[1] < expansion[2] < expansion[3] < 40

    def test_table3_waste_grows_with_slots(self, results):
        data = results["table3"].data
        cpis = [data[b]["additional_cpi"] for b in (1, 2, 3)]
        assert cpis == sorted(cpis)
        # Far below the worst case of ~0.13 * slots (good prediction).
        assert data[3]["additional_cpi"] < 0.39

    def test_table4_cycles_grow_with_delay(self, results):
        per_delay = results["table4"].data["per_delay"]
        cycles = [per_delay[d]["cycles_per_cti"] for d in (1, 2, 3)]
        assert cycles == sorted(cycles)
        assert cycles[0] > 1.0

    def test_table5_static_worse_than_dynamic(self, results):
        data = results["table5"].data
        for slots in (1, 2, 3):
            assert (
                data[slots]["static_cycles_per_load"]
                > data[slots]["dynamic_cycles_per_load"]
            )

    def test_table6_anchors(self, results):
        cycle_ns = results["table6"].data["cycle_ns"]
        assert cycle_ns[(1, 3)] == pytest.approx(3.5, abs=0.01)
        assert all(cycle_ns[(s, 0)] > 10.0 for s in (1, 8, 32))


class TestFigureShapes:
    def test_fig3_more_slots_more_icache_cpi_at_small_sizes(self, results):
        icache = results["fig3"].data["icache_cpi"]
        assert icache[3][1] >= icache[0][1]

    def test_fig4_curves_decrease_with_size(self, results):
        cpi = results["fig4"].data["cpi"]
        for slots in (0, 3):
            values = [cpi[slots][s] for s in (1, 4, 16)]
            assert values == sorted(values, reverse=True)

    def test_fig5_cpi_falls_as_clock_slows(self, results):
        cpi = results["fig5"].data["cpi"]
        for size, curve in cpi.items():
            values = list(curve.values())
            assert values == sorted(values, reverse=True)

    def test_fig6_dynamic_slack_mostly_large(self, results):
        assert results["fig6"].data["fraction_ge_3"] > 0.7

    def test_fig7_static_slack_truncated(self, results):
        assert (
            results["fig7"].data["fraction_ge_3"]
            < results["fig6"].data["fraction_ge_3"]
        )

    def test_fig8_load_slots_shift_curves_up(self, results):
        cpi = results["fig8"].data["cpi"]
        for size in (1, 8, 32):
            assert cpi[3][size] > cpi[0][size]

    def test_fig9_penalty_ordering(self, results):
        cpi = results["fig9"].data["cpi"]
        for size in (1, 8, 32):
            assert cpi[6][size] < cpi[10][size] < cpi[18][size]

    def test_fig10_wire_grows_with_size(self, results):
        data = results["fig10"].data
        wires = [data[s]["max_wire_cm"] for s in (1, 8, 32)]
        assert wires == sorted(wires)

    def test_fig11_requirement_grows_with_slots(self, results):
        req = results["fig11"].data["required_reduction_pct"]
        for size in (1, 32):
            assert req[1][size] < req[2][size] < req[3][size]

    def test_fig12_pipelined_dominates(self, results):
        tpi = results["fig12"].data["tpi"]
        # At every size, b=l=2 beats b=l=0 by a wide margin.
        for size, value in tpi[(2, 2)].items():
            assert value < 0.6 * tpi[(0, 0)][size]
        best = results["fig12"].data["best"]
        assert best["b"] >= 2

    def test_fig12_dynamic_beats_static(self, results):
        data = results["fig12"].data
        assert data["best_dynamic"]["tpi_ns"] <= data["best"]["tpi_ns"]

    def test_fig13_cheaper_refill_lowers_tpi(self, results):
        assert (
            results["fig13"].data["best"]["tpi_ns"]
            < results["fig12"].data["best"]["tpi_ns"]
        )


class TestRunner:
    def test_run_experiments_subset(self, measurement, tmp_path):
        import io

        from repro.engine.session import SessionRegistry
        from repro.experiments import runner

        registry = SessionRegistry()
        registry.set("quick", measurement)
        stream = io.StringIO()
        results = runner.run_experiments(
            ["table6"],
            scale="quick",
            out_dir=tmp_path,
            stream=stream,
            registry=registry,
        )
        assert len(results) == 1
        assert (tmp_path / "table6.txt").exists()
        assert "Table 6" in stream.getvalue()

    def test_unknown_experiment_raises_configuration_error(self):
        from repro.errors import ConfigurationError
        from repro.experiments.runner import run_experiments

        with pytest.raises(ConfigurationError, match="table99"):
            run_experiments(["table99"])

    def test_store_reports_hits_after_experiments(self, results, measurement):
        stats = measurement.store.stats()
        assert stats.hits > 0
        assert stats.misses > 0
        assert "hit rate" in stats.report()


class TestCli:
    def test_list_flag_prints_and_exits_zero(self, capsys):
        from repro.experiments import runner

        assert runner.main(["--list"]) == 0
        out = capsys.readouterr().out
        for name in ("table1", "fig12", "ext_l2"):
            assert name in out

    def test_unknown_experiment_is_an_argparse_error(self, capsys):
        from repro.experiments import runner

        with pytest.raises(SystemExit) as exc:
            runner.main(["table99"])
        assert exc.value.code == 2
        assert "table99" in capsys.readouterr().err

    def test_invalid_jobs_rejected(self, capsys):
        from repro.experiments import runner

        with pytest.raises(SystemExit) as exc:
            runner.main(["--jobs", "0", "table6"])
        assert exc.value.code == 2


class TestJsonExport:
    def test_jsonable_tuple_keys_and_numpy(self):
        import json

        import numpy as np

        from repro.experiments.runner import jsonable

        data = {(2, 2): {16: np.float64(8.2)}, "plain": [np.int64(3), None]}
        converted = jsonable(data)
        assert converted == {"2,2": {"16": 8.2}, "plain": [3, None]}
        json.dumps(converted)  # must be encodable

    def test_runner_writes_json(self, measurement, tmp_path):
        import io
        import json

        from repro.engine.session import SessionRegistry
        from repro.experiments import runner

        registry = SessionRegistry()
        registry.set("quick", measurement)
        runner.run_experiments(
            ["table6"],
            scale="quick",
            out_dir=tmp_path,
            stream=io.StringIO(),
            registry=registry,
        )
        payload = json.loads((tmp_path / "table6.json").read_text())
        assert payload["experiment_id"] == "table6"
        assert "1,3" in payload["data"]["cycle_ns"]
