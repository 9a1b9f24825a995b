"""The benchmark's outside-in tracer must install and restore cleanly.

``perfbench/spans.py`` wraps every layer's entry points by name
(``cls.__dict__[name]``), so renaming or deleting one of them breaks
``perfbench/run.py --trace 1`` with a ``KeyError``.  This test loads the
tracer by path, installs it, and checks that ``restore()`` puts every
wrapped entry point back.
"""

import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[2] / "perfbench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_install_then_restore_puts_entry_points_back(spans):
    from repro.core.stack import Stack

    originals = {
        name: Stack.__dict__[name]
        for name in ("send", "receive", "send_batch", "receive_batch")
    }
    tracer = spans.Tracer()
    try:
        tracer.install()
        wrapped = len(tracer._undo)
        assert Stack.__dict__["send"] is not originals["send"]
    finally:
        tracer.restore()
    assert wrapped > 0
    assert not tracer._undo
    for name, original in originals.items():
        assert Stack.__dict__[name] is original, name
