#!/usr/bin/env python3
"""Benchmark of the anharmonic package: one workload, one seed, one run.

    python3 perfbench/run.py --workload exact-3d --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Run from the root of a checkout; the package is imported from ``src/``.
Set-up (import, input generation, one untimed warm-up) is timed in this
process and in six fresh interpreters, and ``setup_s`` is their median.
The run then repeats the workload's pass (a fixed list of operations, one at
a time, closed loop) until ``--seconds`` would be exceeded, checks every
operation's output outside its timed span, and prints the metrics by name
and unit, followed by one JSON result line.

With ``--trace 1`` untraced and traced passes alternate: the untraced ones
give the tracing overhead, the traced ones the per-layer metrics, and the
exact-output digests of both must match.  Results, per-operation latencies,
digests and spans are written under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPS = 7
TAIL_BEYOND = 10

sys.path.insert(0, str(HERE))
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

END_TO_END_UNITS = {
    "setup_s": "s", "run_s": "s", "op_p50_s": "s", "op_tail_s": "s",
    "peak_rss_mb": "MB",
}
ACCURACY_UNITS = {
    "s0_max_err": "rel", "s1_max_err": "abs", "resum_max_err": "abs",
    "flow_max_dev": "abs",
}
LAYER_UNITS = {"fail_frac": "frac", "series.max_coeff_bits": "bits",
               "variational.momentum.hit_ratio": "ratio",
               "variational.minimize_per_s1": "count",
               "trace.overhead_s": "s", "trace.overhead_frac": "frac",
               **ACCURACY_UNITS}


def layer_unit(name: str) -> str:
    if name in LAYER_UNITS:
        return LAYER_UNITS[name]
    return "s" if name.endswith(("_s", ".s")) else "count"


class SetupError(RuntimeError):
    pass


def import_package():
    """Import ``anharmonic.cli`` from this checkout's ``src/`` only."""
    if not (SRC / "anharmonic" / "__init__.py").is_file():
        raise SetupError(f"no package source under {SRC}")
    sys.path.insert(0, str(SRC))
    import anharmonic
    import anharmonic.cli as cli
    if Path(anharmonic.__file__).resolve().parent.parent != SRC:
        raise SetupError(f"imported anharmonic from {anharmonic.__file__}, "
                         f"not from {SRC}")
    return cli


class Runner:
    """Executes operations of one workload and accounts for their results."""

    def __init__(self, cli, workload, workdir: Path):
        self.cli = cli
        self.workload = workload
        self.workdir = workdir
        self.digests: dict[str, str] = {}
        self.verdicts: dict[str, dict | Exception] = {}
        self.accuracy: dict[str, float] = {}
        self.max_bits = 0
        self.failures: list[dict] = []
        self.attempted = 0

    def call(self, op, tracer=None, index=0):
        """Run one operation; return (latency, exit code, result, stderr)."""
        out = self.workdir / f"{op.name}.out"
        # Truncating a file whose blocks are already on disk can stall for
        # tens of milliseconds (ext4 with online discard), so every op
        # writes a fresh file.
        out.unlink(missing_ok=True)
        err = io.StringIO()
        start = time.perf_counter()
        if tracer:
            tracer.begin_op(index)
        try:
            with contextlib.redirect_stderr(err):
                if op.argv is not None:
                    # looked up per call, so the traced run hits the wrapper
                    code, result = self.cli.main(op.argv + ["--output", str(out)]), out
                else:
                    code, result = 0, op.call()
        except Exception as exc:  # an op that raises is a failed op
            code, result = None, f"{type(exc).__name__}: {exc}"
        if tracer:
            tracer.end_op()
        latency = time.perf_counter() - start
        return latency, code, result, err.getvalue()

    def check(self, op, code, result, stderr, pass_index: int) -> None:
        self.attempted += 1
        try:
            figures = self._verify(op, code, result, stderr)
        except Exception as exc:  # a check that cannot run fails the op
            self.failures.append({"op": op.name, "pass": pass_index,
                                  "reason": f"{type(exc).__name__}: {exc}"})
            return
        for key, value in figures.items():
            if key == "max_coeff_bits":
                self.max_bits = max(self.max_bits, value)
            else:
                self.accuracy[key] = max(self.accuracy.get(key, 0.0), value)

    def _verify(self, op, code, result, stderr) -> dict:
        if code != 0:
            raise workloads.CheckFailed(
                f"exit {code}: {result if code is None else stderr.strip()[:400]}")
        if not op.exact:
            return op.check(result)
        digest = hashlib.sha256(Path(result).read_bytes()).hexdigest()
        if self.digests.setdefault(op.name, digest) != digest:
            raise workloads.CheckFailed("exact output differs between passes")
        # identical bytes get the verdict of the first check
        if op.name not in self.verdicts:
            try:
                self.verdicts[op.name] = op.check(result)
            except Exception as exc:  # replayed on every pass below
                self.verdicts[op.name] = exc
        verdict = self.verdicts[op.name]
        if isinstance(verdict, Exception):
            raise verdict
        return verdict

    def run_pass(self, pass_index: int, tracer=None) -> dict:
        latencies = {}
        for i, op in enumerate(self.workload.ops):
            latency, code, result, stderr = self.call(op, tracer, i)
            latencies[op.name] = latency
            self.check(op, code, result, stderr, pass_index)
        return {"traced": tracer is not None, "latencies": latencies,
                "run_s": sum(latencies.values())}


def setup(workload: str, seed: int, workdir: Path):
    """Import, input generation and warm-up; returns (runner, seconds)."""
    start = time.perf_counter()
    cli = import_package()
    wl = workloads.build(workload, seed, workdir, cli.main)
    runner = Runner(cli, wl, workdir)
    for op in wl.warmup:
        runner.call(op)
    return runner, time.perf_counter() - start


def setup_in_child(workload: str, seed: int) -> float:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--setup-only",
         "--workload", workload, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=150)
    if proc.returncode != 0:
        raise SetupError(f"set-up in a fresh interpreter failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def tail(values: list[float]) -> tuple[float, float, int]:
    """Highest percentile with TAIL_BEYOND samples beyond it (fewer when
    there are not enough): (value, percentile, samples)."""
    ordered = sorted(values)
    n = len(ordered)
    beyond = min(TAIL_BEYOND, n - 1)
    return ordered[n - 1 - beyond], 100.0 * (n - beyond) / n, n


def run_record(args) -> dict:
    import numpy
    import scipy
    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "machine": platform.machine(), "platform": platform.platform(),
        "cpu": _cpu_model(), "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "blas": _blas(numpy),
        "thread_env": {k: os.environ.get(k) for k in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "ANHARMONIC_THREADS")},
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
    }


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _blas(numpy) -> dict | None:
    try:
        return numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except Exception:  # the layout of this dict is not a stable API
        return None


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                          capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() or None


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "anharmonic").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def measure(runner: Runner, seconds: float, trace: bool):
    """Repeat passes until the next one would end after ``seconds``; with
    ``trace``, alternate untraced and traced passes."""
    tracer = tracing.Tracer() if trace else None
    passes = []
    deadline = time.perf_counter() + seconds
    while True:
        traced = trace and len(passes) % 2 == 1
        if traced:
            tracer.install()
        try:
            before = time.perf_counter()
            passes.append(runner.run_pass(len(passes), tracer if traced else None))
            wall = time.perf_counter() - before
        finally:
            if traced:
                tracer.uninstall()
        if len(passes) >= (2 if trace else 1) and time.perf_counter() + wall > deadline:
            return passes, tracer


def per_op_medians(passes: list[dict]) -> dict[str, float]:
    """Each operation's latency as its median over ``passes``."""
    return {name: statistics.median(p["latencies"][name] for p in passes)
            for name in passes[0]["latencies"]}


def end_to_end(passes: list[dict], setup_samples) -> tuple[dict, dict]:
    per_op = per_op_medians([p for p in passes if not p["traced"]])
    tail_value, tail_pct, tail_n = tail(list(per_op.values()))
    metrics = {
        "setup_s": statistics.median(setup_samples),
        # one pass with each operation at its median over the passes: a
        # burst of contention on the (shared) machine moves one operation
        # of one pass, not the whole pass
        "run_s": sum(per_op.values()),
        "op_p50_s": statistics.median(per_op.values()),
        "op_tail_s": tail_value,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    extra = {"op_tail_percentile": tail_pct, "op_tail_samples": tail_n,
             "per_op_median_s": per_op, "setup_samples_s": list(setup_samples)}
    return metrics, extra


def per_layer(runner: Runner, passes, tracer) -> dict:
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    totals = tracing.span_totals(tracer.spans)
    missing = [name for name in runner.workload.expected_spans
               if totals.get(name, {}).get("calls", 0) == 0]
    if missing:
        raise tracing.TraceError(
            f"wrappers recorded no calls on {runner.workload.name}: {missing}")
    self_sum = sum(t["self_s"] for t in totals.values())
    traced_run = sum(p["run_s"] for p in traced)
    if self_sum > traced_run:
        raise tracing.TraceError(
            f"summed self time {self_sum:.6f} s exceeds the traced run {traced_run:.6f} s")
    metrics = tracing.layer_metrics(tracer.spans, totals, tracer.counters, len(traced))
    plain_run = sum(per_op_medians(plain).values())
    overhead = sum(per_op_medians(traced).values()) - plain_run
    metrics.update({
        "series.max_coeff_bits": runner.max_bits,
        "trace.overhead_s": overhead,
        "trace.overhead_frac": overhead / plain_run,
        "fail_frac": len(runner.failures) / runner.attempted,
    })
    for key in ACCURACY_UNITS:
        metrics[key] = runner.accuracy.get(key, 0.0)
    return metrics


def run(args) -> int:
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    try:
        try:
            runner, own_setup = setup(args.workload, args.seed, workdir)
        except (SetupError, ImportError, RuntimeError) as exc:
            print(f"perfbench: set-up failed: {exc}", file=sys.stderr)
            return 2
        try:
            passes, tracer = measure(runner, args.seconds, bool(args.trace))
            metrics = per_layer(runner, passes, tracer) if args.trace else None
        except tracing.TraceError as exc:
            print(f"perfbench: tracing failed: {exc}", file=sys.stderr)
            return 3
        setup_samples = [own_setup] + [setup_in_child(args.workload, args.seed)
                                       for _ in range(SETUP_REPS - 1)]
        e2e, extra = end_to_end(passes, setup_samples)
        if args.trace:
            units = {name: layer_unit(name) for name in metrics}
        else:
            metrics, units = e2e, END_TO_END_UNITS
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = len(runner.failures)
    result = {
        "correct": failed == 0, "attempted": runner.attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    digest = hashlib.sha256("".join(
        f"{name} {d}\n" for name, d in sorted(runner.digests.items())).encode()).hexdigest()
    record = run_record(args)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    detail = {
        "run": record, "result": result, "end_to_end": e2e, **extra,
        "fail_frac": failed / runner.attempted,
        "accuracy": runner.accuracy, "failures": runner.failures,
        "passes": [{"traced": p["traced"], "run_s": p["run_s"]} for p in passes],
        "ops_per_pass": len(runner.workload.ops),
        "exact_digests": runner.digests, "exact_digest": digest,
    }
    (OUT / f"result-{stem}.json").write_text(json.dumps(detail, indent=1) + "\n")
    if tracer is not None:
        (OUT / f"spans-{stem}.json").write_text(json.dumps(
            {"fields": ["name", "start", "end", "parent", "op"],
             "ops": [op.name for op in runner.workload.ops],
             "spans": tracer.spans}) + "\n")

    print(f"{args.workload} seed={args.seed} trace={args.trace} passes={len(passes)} "
          f"ops/pass={len(runner.workload.ops)} python={record['python']} "
          f"numpy={record['numpy']} scipy={record['scipy']} nproc={record['nproc']} "
          f"commit={record['git_commit']}")
    notes = {"setup_s": f"median of {len(setup_samples)} set-ups",
             "op_tail_s": f"p{extra['op_tail_percentile']:.2f} of "
                          f"{extra['op_tail_samples']} per-op medians"}
    for name, value in e2e.items():
        print(f"  {name:<14} {value:<12.6g} {END_TO_END_UNITS[name]:<5} {notes.get(name, '')}")
    print(f"  {'fail_frac':<14} {failed / runner.attempted:<12.6g} {'frac':<5} "
          f"{failed} of {runner.attempted} ops")
    for name, value in sorted(runner.accuracy.items()):
        print(f"  {name:<14} {value:<12.6g} {ACCURACY_UNITS[name]}")
    for failure in runner.failures[:10]:
        print(f"  FAILED {failure['op']} (pass {failure['pass']}): {failure['reason']}")
    if args.trace:
        for name, value in metrics.items():
            print(f"  {name:<40} {value:<12.6g} {units[name]}")
    print(f"  exact outputs: {len(runner.digests)}, combined sha256 {digest}")
    print(f"  details: {OUT.relative_to(ROOT)}/result-{stem}.json")
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in its own interpreter, one after another."""
    results = {}
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=600)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    # Single-threaded BLAS, unless the caller sets otherwise: on a shared
    # two-CPU host a BLAS call split over two threads stalls whenever one of
    # them is descheduled, which made the eigensolver-bound resum latencies
    # (op_p50_s of quartic-deep) about twice as noisy as the pass time.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    if args.workload == "all":
        return run_all(args)
    if args.setup_only:
        OUT.mkdir(exist_ok=True)
        workdir = Path(tempfile.mkdtemp(prefix="setup-", dir=OUT))
        try:
            _, seconds = setup(args.workload, args.seed, workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        print(json.dumps({"setup_s": seconds}))
        return 0
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
