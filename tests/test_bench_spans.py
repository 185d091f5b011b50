"""The benchmark's layer spans name functions that exist in the package."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_span_target_resolves():
    # Tracer.install looks each target up this way; a renamed or moved
    # function would otherwise break traced runs only
    for name, (mod_name, attr, member) in load_spans().TARGETS.items():
        assert mod_name == "fracnls" or mod_name.startswith("fracnls."), name
        owner = getattr(importlib.import_module(mod_name), attr, None)
        assert callable(owner), name
        if member is not None:
            assert callable(owner.__dict__.get(member)), name
