"""Tests of the benchmark itself: input generation, metric names, span
arithmetic, wrapper installation and failure accounting.

    python3 -m pytest -q perfbench/tests
"""

import json
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import run
import tracer as tracing
import workloads

BENCHMARK = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())


def _snapshot(name: str, seed: int, workdir: Path):
    from anharmonic.cli import main
    workdir.mkdir()
    wl = workloads.build(name, seed, workdir, main)
    ops = [(op.name, [a.replace(str(workdir), "<dir>") for a in op.argv or []])
           for op in wl.warmup + wl.ops]
    files = {p.name: p.read_bytes() for p in sorted(workdir.iterdir())}
    return ops, files


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_inputs_are_a_function_of_the_seed(name, tmp_path):
    first = _snapshot(name, 7, tmp_path / "a")
    assert first == _snapshot(name, 7, tmp_path / "b")
    assert first != _snapshot(name, 8, tmp_path / "c")


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    assert BENCHMARK["command"][:2] == ["python3", "perfbench/run.py"]


def test_every_end_to_end_metric_is_reported_with_its_unit():
    passes = [{"traced": False, "run_s": 2.0,
               "latencies": {f"op{i}": 0.1 * (i + 1) for i in range(20)}}]
    metrics, extra = run.end_to_end(passes, [0.5, 0.4, 0.6])
    declared = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert set(metrics) == set(declared)
    assert all(run.END_TO_END_UNITS[name] == unit for name, unit in declared.items())
    assert metrics["setup_s"] == 0.5
    assert metrics["op_tail_s"] == pytest.approx(1.0)
    assert extra["op_tail_percentile"] == 50.0 and extra["op_tail_samples"] == 20


def _fake_runner(spans_expected=()):
    wl = SimpleNamespace(name="synthetic", expected_spans=spans_expected, ops=[])
    return SimpleNamespace(workload=wl, max_bits=12, failures=[], attempted=4,
                           accuracy={"s1_max_err": 2e-5})


def test_every_per_layer_metric_is_reported_with_its_unit():
    tracer = tracing.Tracer()
    tracer.spans = [["op", 0.0, 1.0, None, 0], ["cli.main", 0.1, 0.9, 0, 0]]
    passes = [{"traced": False, "run_s": 0.9, "latencies": {"a": 0.9}},
              {"traced": True, "run_s": 1.0, "latencies": {"a": 1.0}}]
    metrics = run.per_layer(_fake_runner(("cli.main",)), passes, tracer)
    declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert set(metrics) == set(declared)
    assert all(run.layer_unit(name) == unit for name, unit in declared.items())
    assert metrics["cli.self_s"] == pytest.approx(0.8)
    assert metrics["trace.overhead_s"] == pytest.approx(0.1)


def test_missing_wrapper_calls_fail_the_traced_run():
    tracer = tracing.Tracer()
    tracer.spans = [["op", 0.0, 1.0, None, 0]]
    passes = [{"traced": False, "run_s": 1.0, "latencies": {"a": 1.0}},
              {"traced": True, "run_s": 1.0, "latencies": {"a": 1.0}}]
    with pytest.raises(tracing.TraceError, match="series.mul"):
        run.per_layer(_fake_runner(("series.mul",)), passes, tracer)


def test_self_time_subtracts_nested_children():
    spans = [
        ["op", 0.0, 10.0, None, 0],
        ["a", 1.0, 5.0, 0, 0],
        ["b", 2.0, 3.0, 1, 0],
        ["c", 6.0, 9.0, 0, 0],
    ]
    assert tracing.self_times(spans) == pytest.approx([3.0, 3.0, 1.0, 3.0])
    totals = tracing.span_totals(spans)
    assert totals["a"] == {"calls": 1, "s": 4.0, "self_s": 3.0}


def test_self_time_splits_overlapping_thread_spans():
    # two worker-thread spans under one root: overlapping time is shared, so
    # the self times still add up to the root's duration
    spans = [
        ["op", 0.0, 10.0, None, 0],
        ["d", 1.0, 5.0, 0, 0],
        ["e", 2.0, 6.0, 0, 0],
    ]
    selfs = tracing.self_times(spans)
    assert selfs == pytest.approx([5.0, 2.5, 2.5])
    assert sum(selfs) == pytest.approx(10.0)


def test_tail_keeps_ten_samples_beyond():
    value, pct, n = run.tail([float(i) for i in range(32)])
    assert (value, pct, n) == (21.0, 68.75, 32)


def test_wrappers_cover_every_importing_namespace(tmp_path):
    import anharmonic
    import anharmonic.cli as cli
    from anharmonic import hjformal, series

    originals = (cli.main, cli.solve_hj_formal, series.PolySeries.__mul__)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert cli.solve_hj_formal is hjformal.solve_hj_formal
        assert anharmonic.solve_hj_formal is hjformal.solve_hj_formal
        assert cli.solve_hj_formal is not originals[1]
        tracer.begin_op(0)
        code = cli.main(["expand-ground", "--model", "builtin:quartic",
                         "--order", "3", "--output", str(tmp_path / "o.json")])
        tracer.end_op()
    finally:
        tracer.uninstall()
    assert code == 0
    assert (cli.main, cli.solve_hj_formal, series.PolySeries.__mul__) == originals
    assert [s[0] for s in tracer.spans[:2]] == ["op", "cli.main"]
    by_name = {s[0]: s for s in tracer.spans}
    solve = by_name["hjformal.solve_hj_formal"]
    assert tracer.spans[solve[3]][0] == "cli.main"
    assert tracer.counters["series.mul.terms_out"] > 0
    # spans are only recorded while an operation is open
    count = len(tracer.spans)
    tracer.install()
    try:
        cli.main(["rs", "--kappa", "2", "--order", "3",
                  "--output", str(tmp_path / "r.json")])
    finally:
        tracer.uninstall()
    assert len(tracer.spans) == count


class _FakeCli:
    """Writes a fixed payload, or fails with exit 2 like an engine error."""

    def __init__(self):
        self.payload = "{}"

    def main(self, argv):
        if argv[0] == "fail":
            print('{"error": "PoleOnRay"}', file=sys.stderr)
            return 2
        Path(argv[argv.index("--output") + 1]).write_text(self.payload)
        return 0


def _op(name, check, exact=False, argv=("ok",)):
    return workloads.Op(name, check, argv=list(argv), exact=exact)


def test_failed_checks_and_exit_codes_raise_fail_frac(tmp_path):
    def bad(_path):
        raise workloads.CheckFailed("wrong answer")

    ops = [_op("good", lambda p: {"s0_max_err": 1e-7}),
           _op("bad", bad),
           _op("engine-error", lambda p: {}, argv=("fail",)),
           _op("raises", lambda p: {}, argv=())]
    ops[3].argv, ops[3].call = None, lambda: 1 / 0
    wl = SimpleNamespace(name="synthetic", ops=ops, expected_spans=())
    runner = run.Runner(_FakeCli(), wl, tmp_path)
    runner.run_pass(0)
    assert runner.attempted == 4
    assert [f["op"] for f in runner.failures] == ["bad", "engine-error", "raises"]
    assert "PoleOnRay" in runner.failures[1]["reason"]
    assert runner.accuracy == {"s0_max_err": 1e-7}


def test_exact_outputs_are_digested_and_must_not_change(tmp_path):
    checked = []
    cli = _FakeCli()
    wl = SimpleNamespace(name="synthetic", expected_spans=(),
                         ops=[_op("exact", lambda p: checked.append(p) or {},
                                  exact=True)])
    runner = run.Runner(cli, wl, tmp_path)
    runner.run_pass(0)
    runner.run_pass(1)
    assert len(checked) == 1 and not runner.failures
    cli.payload = "[]"
    runner.run_pass(2)
    assert runner.failures[0]["reason"].endswith("differs between passes")


def test_a_failed_exact_check_fails_every_pass(tmp_path):
    calls = []

    def bad(_path):
        calls.append(1)
        raise workloads.CheckFailed("residual is not zero")

    wl = SimpleNamespace(name="synthetic", expected_spans=(),
                         ops=[_op("exact", bad, exact=True)])
    runner = run.Runner(_FakeCli(), wl, tmp_path)
    for i in range(3):
        runner.run_pass(i)
    assert len(calls) == 1
    assert [f["pass"] for f in runner.failures] == [0, 1, 2]


def test_spans_and_counters_survive_concurrent_threads():
    # the --threads 2 scan records spans from pool threads; more threads
    # than cores and a short switch interval make lost updates likely
    import threading

    tracer = tracing.Tracer()
    wrapped = tracer.wrap("variational.minimize_action",
                          lambda: SimpleNamespace(iterations=1))
    threads, calls = 8, 300
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        tracer.begin_op(0)
        workers = [threading.Thread(target=lambda: [wrapped() for _ in range(calls)])
                   for _ in range(threads)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=60)
        tracer.end_op()
    finally:
        sys.setswitchinterval(old)
    assert not any(w.is_alive() for w in workers)
    assert len(tracer.spans) == 1 + threads * calls
    assert all(s[3] == 0 and s[2] >= s[1] for s in tracer.spans[1:])
    assert tracer.counters["variational.newton_iters"] == threads * calls
    assert sum(tracing.self_times(tracer.spans)) == pytest.approx(
        tracer.spans[0][2] - tracer.spans[0][1])
