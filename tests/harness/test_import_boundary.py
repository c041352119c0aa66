"""A plain serial run loads only the simulator and the cached runner.

Package metadata, the paper's sweep drivers and the worker pool (with
``multiprocessing``) load only when used.  Checked in a fresh
interpreter: this pytest process has imported all of them already.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"

#: Modules a plain serial run must never load.
UNUSED = (
    "importlib.metadata",
    "multiprocessing",
    "repro.harness.axissweep",
    "repro.harness.claims",
    "repro.harness.figure3",
    "repro.harness.table3",
    "repro.harness.table4",
    "repro.harness.paperdata",
)

SCRIPT = """
import json, sys
import repro
from repro.harness.runner import ExperimentPlan, ExperimentRunner, ResultCache

plan = ExperimentPlan("X", "gzip", instructions=200, warmup=50)
runner = ExperimentRunner(cache=ResultCache(sys.argv[1]), verbose=False)
report = runner.run_many_report([plan])
print(json.dumps({"executed": report.summary.executed,
                  "loaded": sorted(name for name in json.loads(sys.argv[2])
                                   if name in sys.modules)}))
"""


def test_serial_run_loads_no_driver_pool_or_metadata(tmp_path):
    out = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(tmp_path), json.dumps(UNUSED)],
        capture_output=True, text=True, check=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
    ).stdout
    assert json.loads(out) == {"executed": 1, "loaded": []}
