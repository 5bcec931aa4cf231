"""``scripts/bench.py`` times stages by wrapping package functions by name."""

import importlib
import importlib.util
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "scripts" / "bench.py"


def test_every_stage_names_a_package_function():
    spec = importlib.util.spec_from_file_location("bench", BENCH)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    missing = [(stage, module, name) for stage, targets in bench.STAGES.items()
               for module, name in targets
               if not callable(getattr(importlib.import_module(f"simpair.{module}"), name, None))]
    assert missing == []
