"""The benchmark in perfbench/ traces a solve by wrapping the entry points
that perfbench/spans.py lists in TRACED. A rename must fail here, not in
the benchmark's traced runs."""

import importlib.util
import sys
from pathlib import Path

from gwasgls import distgrid, fileio, kernel, pipeline, transport

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
MODULES = dict(kernel=kernel, fileio=fileio, pipeline=pipeline,
               distgrid=distgrid, transport=transport)


def test_every_traced_entry_point_resolves(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    # dataclasses resolve their module through sys.modules
    monkeypatch.setitem(sys.modules, spec.name, spans)
    spec.loader.exec_module(spans)
    traced = spans.TRACED
    assert set(traced) == set(MODULES)
    missing = []
    for layer, names in traced.items():
        for qual in names:
            owner = MODULES[layer]
            for part in qual.split("."):
                owner = getattr(owner, part, None)
            if not callable(owner):
                missing.append(f"{layer}.{qual}")
    assert missing == []
