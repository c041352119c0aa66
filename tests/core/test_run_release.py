"""A finished run frees itself: ``simulate_benchmark`` leaves no cyclic
garbage.

Each run goes with the collector disabled, so only reference counting
can free its processor; a full collection afterwards must find nothing.
A processor whose cycles survive the run (handler tables, wheel entries
or channel queues holding it) would be found.
"""

import gc

import pytest

from repro.core import simulation
from repro.core.models import model
from repro.core.simulation import AccountingError, simulate_benchmark
from repro.telemetry import RingBufferSink, Telemetry

#: Long enough for the kill at cycle 2000 to take effect.
WINDOW = dict(instructions=3000, warmup=1000)


def collected_after(**kwargs) -> int:
    """Objects a full collection frees after one model X gzip run."""
    gc.collect()
    gc.disable()
    try:
        run = simulate_benchmark(model("X").config, "gzip", **WINDOW,
                                 **kwargs)
        assert run.instructions >= WINDOW["instructions"]
        return gc.collect()
    finally:
        gc.enable()


@pytest.mark.parametrize("kwargs", [
    {},
    {"num_clusters": 16},
    {"fault_spec": "ber=1e-4"},
    {"gating": "idle"},
    {"fault_spec": "ber=1e-5;kill=L@*@2000", "gating": "ewma"},
    {"telemetry": Telemetry(enabled=True, sink=RingBufferSink())},
], ids=["plain4", "plain16", "ber", "idle", "kill-ewma", "traced"])
def test_a_finished_run_leaves_no_cyclic_garbage(kwargs):
    assert collected_after(**kwargs) == 0


def test_the_kill_case_kills_a_plane():
    run = simulate_benchmark(model("X").config, "gzip", **WINDOW,
                             fault_spec="ber=1e-5;kill=L@*@2000",
                             gating="ewma")
    assert dict(run.extra)["planes_killed"] > 0


def test_a_run_that_raises_is_released(monkeypatch):
    def planted(*args):
        raise AccountingError("planted")

    monkeypatch.setattr(simulation, "check_accounting", planted)
    gc.collect()
    gc.disable()
    try:
        with pytest.raises(AccountingError, match="planted"):
            simulate_benchmark(model("X").config, "gzip", **WINDOW)
        assert gc.collect() == 0
    finally:
        gc.enable()
