"""The benchmark tracer's targets exist, get wrapped and come back, and
every span a workload expects records a call.

``perfbench/tracer.py`` wraps package functions and methods by name; its own
tests are not collected here, so a rename inside the package would otherwise
only surface when the traced benchmark runs.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_by_path(monkeypatch, name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def load_tracer(monkeypatch):
    return load_by_path(monkeypatch, "perfbench_tracer", PERFBENCH / "tracer.py")


def resolve(tracer, mod_name, path):
    """The (holder, attribute) a target names: a module function or a raw
    class attribute (``classmethod`` objects included)."""
    mod = importlib.import_module(f"{tracer.PACKAGE}.{mod_name}")
    if "." in path:
        cls_name, meth = path.split(".")
        return getattr(mod, cls_name), meth
    return mod, path


def current(holder, attr):
    return holder.__dict__[attr] if isinstance(holder, type) else getattr(holder, attr)


def test_every_target_resolves_wraps_and_restores(monkeypatch):
    tracer = load_tracer(monkeypatch)
    targets = [resolve(tracer, mod_name, path)
               for mod_name, path, _ in tracer.TARGETS]
    originals = [current(holder, attr) for holder, attr in targets]
    t = tracer.Tracer()
    t.install()
    try:
        for (holder, attr), original in zip(targets, originals):
            assert current(holder, attr) is not original, (holder, attr)
    finally:
        t.uninstall()
    for (holder, attr), original in zip(targets, originals):
        assert current(holder, attr) is original, (holder, attr)


def test_every_expected_span_records_a_call(monkeypatch, tmp_path):
    """Each workload's operations at seed 1, traced in order until every
    span in ``EXPECTED_SPANS`` has recorded a call: a package change that
    drops a wrapped helper from a workload's path fails here, not only in
    the traced benchmark run."""
    from anharmonic import cli

    tracer = load_tracer(monkeypatch)
    workloads = load_by_path(monkeypatch, "perfbench_workloads",
                             PERFBENCH / "workloads.py")
    for name in workloads.WORKLOADS:
        workdir = tmp_path / name
        workdir.mkdir()
        wl = workloads.build(name, 1, workdir, cli.main)
        expected = set(wl.expected_spans)
        t = tracer.Tracer()
        t.install()
        try:
            for i, op in enumerate(wl.ops):
                t.begin_op(i)
                try:
                    if op.argv is None:
                        op.call()
                    else:  # the wrapped main, looked up per call
                        out = str(workdir / f"{op.name}.out")
                        assert cli.main(op.argv + ["--output", out]) == 0, op.name
                finally:
                    t.end_op()
                if expected <= {span[0] for span in t.spans}:
                    break
        finally:
            t.uninstall()
        assert expected - {span[0] for span in t.spans} == set(), name
