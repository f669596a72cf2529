"""The benchmark's tracer (perfbench/tracing.py) wraps program functions by
name; installing it fails if one of those names is renamed or removed."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from perfbench.tracing import TARGETS, Tracer  # noqa: E402


def test_tracer_installs_and_removes():
    originals = [getattr(owner, attr) for owner, attr, _name, _tag in TARGETS]
    with Tracer().installed():
        pass
    assert [getattr(owner, attr) for owner, attr, _name, _tag in TARGETS] == originals
