"""The benchmark's own reference and call-count checks, in the test suite.

Each workload of ``bench/workloads.py`` is set up and solved once at the
seed of ``bench/reference.json``.  Its ``outputs`` must equal the stored
strings (the benchmark's reference check) and the span counts it pins in
``expected_counts`` must hold for that solve (its traced self-test), so a
change that the benchmark would reject fails here first.  The counts are
taken as in ``test_call_counts``: a counting wrapper rebound on every
``sqglab`` module attribute that refers to the function.

``bench/`` is read, never written: the workloads module is compiled from
its source, so no bytecode cache lands beside it.
"""

import inspect
import json
import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"
REFERENCE = json.loads((BENCH / "reference.json").read_text())


def load_workloads() -> types.ModuleType:
    path = BENCH / "workloads.py"
    mod = types.ModuleType("bench_workloads")
    mod.__file__ = str(path)
    exec(compile(path.read_text(), str(path), "exec"), mod.__dict__)
    return mod


WORKLOADS = load_workloads().WORKLOADS


def count_spans(monkeypatch) -> dict:
    """Count calls of every public function of the package's layer modules,
    by ``layer.function`` span name, under every name the package binds it
    to; returns the dict the counts grow in."""
    wrappers, counts = {}, {}
    for mod_name, mod in list(sys.modules.items()):
        if mod_name.startswith("sqglab.") and mod_name.count(".") == 1:
            for name, fn in vars(mod).items():
                if (inspect.isfunction(fn) and fn.__module__ == mod_name
                        and not name.startswith("_")):
                    span = f"{mod_name[len('sqglab.'):]}.{name}"
                    counts[span] = 0

                    def counting(*args, _span=span, _fn=fn, **kwargs):
                        counts[_span] += 1
                        return _fn(*args, **kwargs)

                    wrappers[id(fn)] = counting
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "sqglab" or mod_name.startswith("sqglab."):
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers:
                    monkeypatch.setattr(mod, attr, wrappers[id(obj)])
    return counts


@pytest.mark.parametrize("name", sorted(REFERENCE["workloads"]))
def test_reference_outputs_and_pinned_counts(name, monkeypatch):
    wl = WORKLOADS[name]
    state = wl.setup(REFERENCE["seed"])
    with monkeypatch.context() as mp:
        counts = count_spans(mp)
        out = wl.solve(state, lambda: None)
    pinned = wl.expected_counts(state, out)
    assert {span: counts[span] for span in pinned} == pinned
    assert wl.outputs(state, out) == REFERENCE["workloads"][name]
    assert all(passed for _, passed, _ in wl.checks(state, out))
