"""``scripts/kernel_table.py`` reads the similarity kernels through private names."""

import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
KERNEL_TABLE = ROOT / "scripts" / "kernel_table.py"


def test_kernel_table_runs_and_both_kernels_agree(monkeypatch):
    monkeypatch.chdir(ROOT)  # the script puts the relative paths src and perfbench on sys.path
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location("kernel_table", KERNEL_TABLE)
    kernel_table = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(kernel_table)
    assert kernel_table.table(0.02, 1) is True  # False when the kernels give other bytes
