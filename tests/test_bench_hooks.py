"""The benchmark's trace hooks name entry points that exist.

``perfbench/spans.py`` wraps layer entry points by their dotted names.  A
renamed or deleted entry point would otherwise fail only a traced benchmark
run; this check fails in the test suite instead.
"""

import importlib
import os

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench")


def test_every_trace_target_resolves(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)   # spans imports its siblings
    spans = importlib.import_module("spans")
    missing = []
    for targets, _ in spans.TARGETS.values():
        for target in targets:
            owner, attr = spans._resolve(target)
            if attr not in owner.__dict__:
                missing.append(target)
    assert missing == []
