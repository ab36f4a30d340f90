"""Every attribute the benchmark tracer wraps must exist.

perfbench/tracer.py wraps module attributes by name, and a name it cannot
find only prints a note, so a renamed function would leave its per-layer
metrics reading 0.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_attribute_resolves():
    tracer = _load_tracer()
    targets = [(module, attr) for _, module, attr, _ in tracer.TARGETS]
    targets += [(module, attr) for _, module, attr in tracer.HOT_TARGETS]
    assert targets
    missing = [
        f"{module}.{attr}" for module, attr in targets
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert missing == []
