"""The result cache is keyed by the simulator's own source.

``CACHE_VERSION`` is a digest of every ``repro`` module a simulation can
import, so editing any of them re-keys every plan and no stale result
can be served.  Source edits are made in a temporary copy of the
package and observed from a fresh interpreter whose ``PYTHONPATH``
points at the copy.
"""

import json
import multiprocessing
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.metrics import BenchmarkRun
from repro.harness import runner as runner_module
from repro.harness.runner import (
    CACHE_VERSION,
    ExperimentPlan,
    ResultCache,
)

PACKAGE = Path(runner_module.__file__).resolve().parents[1]

PLANS = [
    ExperimentPlan("I", "gzip"),
    ExperimentPlan("X", "art", num_clusters=16, seed=3),
    ExperimentPlan("X", "gzip", instructions=500, warmup=120,
                   fault_spec="ber=0.0001"),
    ExperimentPlan("VII", "mcf", gating_policy="idle:drowsy=64,gate=256"),
    ExperimentPlan("dp@n16:B144+L36:cw1", "gzip", latency_scale=2.0),
]

KEYS_SCRIPT = """\
import json, sys
import repro
from repro.harness.runner import CACHE_VERSION, ExperimentPlan
plans = [ExperimentPlan.from_dict(p) for p in json.loads(sys.argv[1])]
print(json.dumps({"package": repro.__file__, "version": CACHE_VERSION,
                  "keys": [p.cache_key() for p in plans]}))
"""

IMPORTS_SCRIPT = """\
import json, sys, tempfile
from pathlib import Path
from repro.harness.runner import (ExperimentPlan, ExperimentRunner,
                                  ResultCache, simulate_plan)
from repro.telemetry import RingBufferSink, Telemetry
plan = ExperimentPlan("X", "gzip", num_clusters=16, instructions=300,
                      warmup=100, fault_spec="ber=0.0001;kill=L@*@150",
                      gating_policy="idle:drowsy=64,gate=256")
with tempfile.TemporaryDirectory() as cache_dir:
    ExperimentRunner(cache=ResultCache(Path(cache_dir)),
                     verbose=False).run(plan)
simulate_plan(plan, telemetry=Telemetry(sink=RingBufferSink(capacity=None)))
simulate_plan(ExperimentPlan("dp@n16:B144+L36:cw1", "mcf",
                             instructions=300, warmup=100))
print(json.dumps(sorted(
    module.__file__ for name, module in list(sys.modules.items())
    if name.split(".")[0] == "repro" and getattr(module, "__file__", None)
)))
"""


def _run_python(script, pythonpath, *args):
    env = dict(os.environ, PYTHONPATH=str(pythonpath))
    proc = subprocess.run([sys.executable, "-c", script, *args],
                          capture_output=True, text=True, env=env,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.fixture
def package_copy(tmp_path):
    """A pristine copy of the ``repro`` package; returns its src root."""
    shutil.copytree(PACKAGE, tmp_path / "src" / "repro",
                    ignore=shutil.ignore_patterns("__pycache__"))
    return tmp_path / "src"


def _keys_of(src_root):
    result = _run_python(KEYS_SCRIPT, src_root,
                         json.dumps([p.to_dict() for p in PLANS]))
    # Raises unless the interpreter imported the copy.
    Path(result["package"]).resolve().relative_to(src_root.resolve())
    return result


def _append_comment(src_root, rel):
    with open(src_root / "repro" / rel, "a") as handle:
        handle.write("# an edit\n")


def test_simulator_edit_changes_every_key(package_copy):
    pristine = _keys_of(package_copy)
    # A fresh interpreter on identical bytes agrees with this one.
    assert pristine["version"] == CACHE_VERSION
    assert pristine["keys"] == [p.cache_key() for p in PLANS]

    _append_comment(package_copy, "core/processor.py")
    edited = _keys_of(package_copy)
    assert edited["version"] != CACHE_VERSION
    assert all(old != new for old, new in zip(pristine["keys"],
                                              edited["keys"], strict=True))


def test_edits_outside_the_simulator_keep_every_key(package_copy):
    for rel in ("analysis/engine.py", "service/server.py",
                "explore/space.py", "__main__.py"):
        _append_comment(package_copy, rel)
    edited = _keys_of(package_copy)
    assert edited["version"] == CACHE_VERSION
    assert edited["keys"] == [p.cache_key() for p in PLANS]


def test_every_module_a_simulation_imports_is_hashed():
    # A fresh interpreter, so this session's imports do not count.
    files = _run_python(IMPORTS_SCRIPT, PACKAGE.parent)
    assert files
    rels = [Path(f).resolve().relative_to(PACKAGE).as_posix()
            for f in files]
    assert "core/processor.py" in rels
    escaped = [rel for rel in rels
               if rel.split("/", 1)[0] in runner_module._UNKEYED_SOURCES]
    assert escaped == []


def _child_keys(conn):
    from repro._version import source_digest
    conn.send((
        runner_module.CACHE_VERSION,
        source_digest(PACKAGE, exclude=runner_module._UNKEYED_SOURCES)[:16],
        [p.cache_key() for p in PLANS],
    ))
    conn.close()


def test_forked_child_computes_the_parents_version():
    ctx = multiprocessing.get_context("fork")
    receiver, sender = ctx.Pipe(duplex=False)
    child = ctx.Process(target=_child_keys, args=(sender,))
    child.start()
    sender.close()
    inherited, recomputed, keys = receiver.recv()
    child.join(timeout=30)
    assert child.exitcode == 0
    assert inherited == recomputed == CACHE_VERSION
    assert keys == [p.cache_key() for p in PLANS]


def test_entry_without_provenance_is_a_miss(tmp_path):
    cache = ResultCache(tmp_path)
    plan = ExperimentPlan("I", "gzip")
    cache.store(plan, BenchmarkRun(
        benchmark="gzip", instructions=1000, cycles=1200,
        interconnect_dynamic=1.0, interconnect_leakage=2.0,
    ))
    path = cache._path(plan)
    data = json.loads(path.read_text())
    del data["provenance"]
    path.write_text(json.dumps(data))
    assert cache.load(plan) is None
    assert (tmp_path / "quarantine" / path.name).exists()
