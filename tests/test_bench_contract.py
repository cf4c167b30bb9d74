"""The benchmark in perfbench/ traces a solve by wrapping the entry points
that perfbench/spans.py lists in TRACED. A rename must fail here, not in
the benchmark's traced runs."""

from gwasgls import distgrid, fileio, kernel, pipeline, transport

from conftest import load_traced

MODULES = dict(kernel=kernel, fileio=fileio, pipeline=pipeline,
               distgrid=distgrid, transport=transport)


def test_every_traced_entry_point_resolves():
    traced = load_traced()
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
