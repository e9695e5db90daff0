"""Tests of the benchmark's own helpers.

    PYTHONPATH=src python3 -m pytest -q bench/test_bench.py
"""

import json
import math
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402


class TestTail:

    def test_ten_beyond(self):
        lat = [float(i) for i in range(100)]
        value, pct = run.tail_latency(lat)
        assert value == 89.0
        assert sum(1 for x in lat if x > value) == 10
        assert pct == pytest.approx(90.0)

    def test_cutoff(self):
        assert run.tail_latency([1.0] * 10) is None
        value, pct = run.tail_latency([5.0, 1.0, 4.0, 3.0, 2.0, 6.0,
                                       7.0, 8.0, 9.0, 10.0, 11.0])
        assert value == 1.0
        assert pct == pytest.approx(100.0 / 11.0)

    def test_every_run_has_a_tail(self):
        for name in wl.WORKLOADS:
            reqs = wl.build_requests(name, 0, wl.rounds_for(name, 1), "o")
            assert run.tail_latency([1.0] * len(reqs)) is not None


class TestSelfTime:

    def test_nested_spans(self):
        spans = [
            ["cli.run", 0.0, 10.0, None, 0],
            ["sweeps.ratio_grid", 1.0, 4.0, 0, 0],
            ["lindblad.gate_error_mixed", 2.0, 3.5, 1, 0],
            ["cli.write_table", 6.0, 7.0, 0, 0],
        ]
        assert tracing.self_times(spans) == pytest.approx([6.0, 1.5, 1.5, 1.0])

    def test_overlapping_children_counted_once(self):
        spans = [["a", 0.0, 10.0, None, 0], ["b", 1.0, 5.0, 0, 0],
                 ["c", 3.0, 6.0, 0, 0]]
        assert tracing.self_times(spans)[0] == pytest.approx(5.0)

    def test_coverage_uses_top_level_spans(self):
        spans = [["cli.run", 0.0, 9.0, None, 0], ["x", 1.0, 2.0, 0, 0]]
        assert tracing.coverage(spans, [10.0]) == pytest.approx(0.9)


class TestCheck:

    def _req(self):
        return wl.Request(kind="gate-open", argv=["gate"],
                          checks=[("open|pi|1|2", "error")])

    def test_perturbed_value_fails(self):
        ref = {"open|pi|1|2": {"error": 1e-3}}
        key = ("open|pi|1|2", "error")
        n, dev, bad = wl.check_cells(self._req(), {key: 1e-3 + 2e-8}, ref)
        assert n == 1 and bad and dev == pytest.approx(2e-8)
        _, _, bad = wl.check_cells(self._req(), {key: 1e-3 + 5e-9}, ref)
        assert not bad

    def test_missing_or_nan_fails(self):
        ref = {"open|pi|1|2": {"error": 1e-3}}
        assert wl.check_cells(self._req(), {}, ref)[2]
        key = ("open|pi|1|2", "error")
        assert wl.check_cells(self._req(), {key: math.nan}, ref)[2]

    def test_gate_output_parsed(self):
        text = "chi = 19.95\nerror = 0.00101195327216\nratio = 0.48\n"
        cells = wl.output_cells(self._req(), text)
        assert cells == {("open|pi|1|2", "error"): 0.00101195327216}


class TestRequests:

    @pytest.mark.parametrize("name", wl.WORKLOADS)
    def test_seed_determines_argv(self, name):
        def argvs(seed):
            return [r.argv for r in wl.build_requests(name, seed, 4, "out")]
        assert argvs(7) == argvs(7)
        assert argvs(7) != argvs(8)

    @pytest.mark.parametrize("name", wl.WORKLOADS)
    def test_rounds_cost_the_same(self, name):
        # every round holds the same cost classes whatever the seed draws
        # (a trace and a gate at one detuning march alike, so they count as one)
        def classes(seed):
            reqs = wl.build_requests(name, seed, 1, "out")
            sizes = sorted((r.argv[r.argv.index("--delta") + 1]
                            if "--delta" in r.argv else "", r.points)
                           for r in reqs)
            return sizes, sorted(r.kind for r in reqs)
        assert classes(1) == classes(2) == classes(3)

    def test_reference_covers_every_pool_point(self):
        with open(os.path.join(HERE, "reference.json")) as fh:
            ref = json.load(fh)["values"]
        for name in wl.WORKLOADS:
            for seed in range(5):
                for r in wl.build_requests(name, seed, 5, "out"):
                    for key, cell in r.checks:
                        assert cell in ref[key]


class TestTracing:

    def test_spans_and_restore(self):
        from ramansim import cli, lambda_frame, sweeps
        original = lambda_frame.solve_xmax
        tracer = tracing.Tracer()
        tracer.install()
        try:
            assert cli.solve_xmax is not original
            assert sweeps.solve_xmax is cli.solve_xmax
            assert cli.run(["frame", "--angle", "pi", "--chi", "20"]) == 0
        finally:
            tracer.uninstall()
        assert cli.solve_xmax is original and sweeps.solve_xmax is original
        names = [s[0] for s in tracer.spans]
        assert names[0] == "cli.run"
        assert "lambda_frame.solve_xmax" in names
        assert all(s[3] == 0 for s in tracer.spans[1:])
        assert tracer.counters["lambda_frame.integrand_evals"] > 0
        assert tracer.absent == []

    def test_absent_names_reported_not_raised(self, monkeypatch):
        from ramansim import lindblad
        monkeypatch.delattr(lindblad, "propagate_master")
        tracer = tracing.Tracer()
        tracer.install()
        tracer._patch("no_such_module", "f", lambda fn: fn)
        tracer.uninstall()
        assert tracer.absent == ["lindblad.propagate_master", "no_such_module.f"]
        values = tracing.layer_metrics(tracer, [1.0])
        assert values["lindblad.propagate_master.busy_s"] == 0
        assert values["lindblad.propagate_master.us_per_nominal_step"] == 0
        # run.py adds the whole-run numbers; the tracer gives all the rest
        names = {n for n, _, _ in tracing.PER_LAYER}
        assert names - set(values) == {"proc.cpu_util", "check.max_dev",
                                       "check.values", "trace.overhead_frac"}


def test_benchmark_json_lists_every_metric():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [m["name"] for m in spec["end_to_end"]] == [n for n, _ in run.END_TO_END]
    assert [m["name"] for m in spec["per_layer"]] == [n for n, _, _ in tracing.PER_LAYER]
    assert {w["name"] for w in spec["workloads"]} == set(wl.WORKLOADS)
