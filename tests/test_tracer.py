"""The benchmark's tracer (`perfbench/tracer.py`) finds every name it wraps.

The tracer patches module attributes of `weylchar` by name and reads the
hit counts of its lru caches, so deleting or renaming one of them breaks
the benchmark run; this test makes it break the test suite first.
"""

import importlib.util
from pathlib import Path

from weylchar import charcalc, weylgroup

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_uninstalls_and_reads_every_cache():
    tracer = _load_tracer()
    originals = (charcalc.stabilizer, charcalc.character, weylgroup.coset_transversal)
    t = tracer.Tracer()
    t.install()  # AttributeError if a wrapped name is gone
    try:
        assert charcalc.stabilizer is not originals[0]
        summary = t.summary(0.0)
    finally:
        t.uninstall()
    assert (charcalc.stabilizer, charcalc.character, weylgroup.coset_transversal) == originals
    for key, fn in tracer.CACHES.items():
        assert callable(getattr(fn, "cache_info", None)), key
    assert set(summary["caches"]) == set(tracer.CACHES)
