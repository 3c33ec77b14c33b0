"""The benchmark's traced runs still find every hook point they wrap.

bench/traced_cli.py looks up cli, experiments, matrices, solver and bounds
functions by name; a rename or deletion in src/ breaks every traced run,
which only the benchmark would otherwise notice.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("argv, layers", [
    (["fig4"], {"bounds", "experiments", "tables"}),
    (["verify", "-o", "m=16", "-o", "n=32", "-o", "trials=1"],
     {"bounds", "experiments", "tables", "matrices", "solver", "supports"}),
], ids=["fig4", "verify"])
def test_traced_run_records_every_layer(tmp_path, argv, layers):
    result = tmp_path / "r.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "traced_cli.py"), str(result), "--",
         *argv, "--out-dir", str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    data = json.loads(result.read_text())
    assert data["exit"] == 0
    assert layers <= set(data["layers"])
