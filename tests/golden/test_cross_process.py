"""Every corpus pin reproduces in fresh interpreters under two hash seeds.

A simulated number must be a pure function of its plan.
``test_golden.py`` runs each entry once, inside the test process, so
it cannot see an order taken from string hashes (that changes only
with ``PYTHONHASHSEED``), nor a clock read in output that no pin
covers.  Here two child interpreters, started concurrently with
``PYTHONHASHSEED`` 0 and 1, each simulate every corpus entry.  Both
must reproduce every pinned digest, and they must agree on the Chrome
trace of every traced entry.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from golden import load

GOLDEN_DIR = Path(__file__).resolve().parent
SRC_DIR = GOLDEN_DIR.parents[1] / "src"

HASH_SEEDS = ("0", "1")

#: Prints {label: {digest name: sha256}} for every corpus entry; a
#: traced entry adds the digest of its Chrome trace.
CHILD = """
import hashlib, json, sys
sys.path.insert(0, sys.argv[1])
import golden
from repro.telemetry import chrome_trace

digests = {}
for label, spec in golden.load().items():
    measured = golden.simulate(spec)
    digests[label] = dict(measured.digests)
    if measured.events is not None:
        trace = json.dumps(chrome_trace(measured.events), sort_keys=True)
        digests[label]["chrome_trace"] = hashlib.sha256(
            trace.encode()).hexdigest()
print(json.dumps(digests))
"""


def _start(hash_seed):
    env = dict(os.environ, PYTHONHASHSEED=hash_seed,
               PYTHONPATH=os.pathsep.join(
                   filter(None, [str(SRC_DIR),
                                 os.environ.get("PYTHONPATH")])))
    return subprocess.Popen(
        [sys.executable, "-c", CHILD, str(GOLDEN_DIR)], env=env,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)


def test_every_pin_reproduces_under_two_hash_seeds():
    children = [_start(seed) for seed in HASH_SEEDS]
    try:
        outputs = [child.communicate(timeout=600) for child in children]
    finally:
        for child in children:
            child.kill()  # a no-op for a child that has exited
            child.wait()
    runs = []
    for seed, child, (out, err) in zip(HASH_SEEDS, children, outputs,
                                       strict=True):
        assert child.returncode == 0, f"PYTHONHASHSEED={seed}:\n{err}"
        runs.append(json.loads(out))
    pinned = {label: entry["digests"] for label, entry in load().items()}
    first, second = runs
    assert first.keys() == second.keys() == pinned.keys()
    for seed, digests in zip(HASH_SEEDS, runs, strict=True):
        moved = sorted(
            f"{label}: {name}" for label, pins in pinned.items()
            for name, pin in pins.items() if digests[label][name] != pin)
        assert not moved, (f"PYTHONHASHSEED={seed} moved "
                           f"{len(moved)} digest(s): {moved}")
    differ = sorted(label for label in first
                    if first[label] != second[label])
    assert not differ, f"the two hash seeds disagree on {differ}"
    assert any("chrome_trace" in digests for digests in first.values())
