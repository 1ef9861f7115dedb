"""The benchmark tracer's targets exist, get wrapped and come back.

``perfbench/tracer.py`` wraps package functions and methods by name; its own
tests are not collected here, so a rename inside the package would otherwise
only surface when the traced benchmark runs.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


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
