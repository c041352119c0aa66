"""JobRecord / JobStore: idempotent ids, durable round-trips."""

import json

import pytest

from repro.harness.runner import ExperimentPlan
from repro.service import JOB_SCHEMA_VERSION, JobRecord, JobStore, job_id_for
from repro.service.jobs import DONE, QUEUED, RUNNING


def plan_for(benchmark, model="I", **overrides):
    kwargs = dict(instructions=300, warmup=80)
    kwargs.update(overrides)
    return ExperimentPlan(model, benchmark, **kwargs)


def make_record(*benchmarks, **kwargs):
    plans = tuple(plan_for(b) for b in (benchmarks or ("gzip",)))
    kwargs.setdefault("job_id", job_id_for(plans))
    return JobRecord(plans=plans, **kwargs)


class TestJobIdentity:
    def test_id_is_order_insensitive(self):
        a = (plan_for("gzip"), plan_for("mesa"))
        b = (plan_for("mesa"), plan_for("gzip"))
        assert job_id_for(a) == job_id_for(b)

    def test_id_tracks_plan_content(self):
        assert job_id_for((plan_for("gzip"),)) != \
            job_id_for((plan_for("gzip", seed=7),))


class TestRecordRoundTrip:
    def test_round_trips_through_json(self):
        record = make_record("gzip", "mesa", attempts=1, state=RUNNING)
        clone = JobRecord.from_json(
            json.loads(json.dumps(record.to_json())))
        assert clone == record

    def test_version_mismatch_rejected(self):
        data = make_record().to_json()
        data["schema_version"] = JOB_SCHEMA_VERSION + 1
        with pytest.raises(ValueError, match="schema_version"):
            JobRecord.from_json(data)

    def test_tampered_plans_are_refused(self):
        """A record whose plans no longer hash to its id must not
        resume: silently running different plans under an old job id
        would poison the dedup map."""
        data = make_record("gzip").to_json()
        data["plans"][0]["seed"] = 999
        with pytest.raises(ValueError, match="tampered"):
            JobRecord.from_json(data)

    @pytest.mark.parametrize("mutate", [
        lambda d: d.pop("plans"),
        lambda d: d.update(plans=[]),
        lambda d: d.update(job_id=""),
        lambda d: d.update(report="not-a-dict"),
        lambda d: d.update(state="exploded"),
        # A record at the old schema version (it carried a priority).
        lambda d: d.update(schema_version=JOB_SCHEMA_VERSION - 1,
                           priority=0),
        # A field of the wrong JSON type is refused, never coerced.
        lambda d: d.update(attempts="7"),
        lambda d: d.update(attempts=True),
        lambda d: d.update(attempts=[1]),
        lambda d: d.update(attempts=1.0),
        lambda d: d.update(state=3),
        lambda d: d.update(manifest=None),
        lambda d: d.update(cancel_requested="no"),
        lambda d: d.update(cancel_requested=0),
    ])
    def test_malformed_records_are_refused(self, mutate, tmp_path):
        """Refused by the parser, and so absent from the store: a
        corrupt record never raises out of ``load`` or ``scan``."""
        data = make_record().to_json()
        mutate(data)
        with pytest.raises(ValueError):
            JobRecord.from_json(data)
        store = JobStore(tmp_path / "jobs")
        store.directory.mkdir(parents=True)
        (store.directory / "corrupt.json").write_text(json.dumps(data))
        assert store.load("corrupt") is None
        assert store.scan() == []

    def test_public_json_carries_summary_not_plans(self):
        record = make_record("gzip", state=DONE)
        record.report = {"summary": {"executed": 1}}
        public = record.public_json()
        assert public["summary"] == {"executed": 1}
        assert public["plans"] == 1  # a count, not the plan bodies


class TestJobStore:
    def test_save_load_round_trip(self, tmp_path):
        store = JobStore(tmp_path / "jobs")
        record = make_record("gzip", "mesa", state=QUEUED)
        store.save(record)
        assert store.load(record.job_id) == record

    def test_missing_and_corrupt_load_as_none(self, tmp_path):
        store = JobStore(tmp_path / "jobs")
        assert store.load("nope") is None
        store.directory.mkdir(parents=True)
        (store.directory / "bad.json").write_text("{not json")
        assert store.load("bad") is None

    def test_scan_skips_corrupt_and_sorts(self, tmp_path):
        store = JobStore(tmp_path / "jobs")
        records = [make_record("gzip"), make_record("mesa"),
                   make_record("art", state=DONE)]
        for record in records:
            store.save(record)
        (store.directory / "junk.json").write_text("[]")
        scanned = store.scan()
        assert sorted(r.job_id for r in scanned) == \
            sorted(r.job_id for r in records)

    def test_resumable_excludes_terminal_states(self, tmp_path):
        store = JobStore(tmp_path / "jobs")
        store.save(make_record("gzip", state=QUEUED))
        store.save(make_record("mesa", state=RUNNING))
        store.save(make_record("art", state=DONE))
        states = sorted(r.state for r in store.resumable())
        assert states == [QUEUED, RUNNING]

    def test_validation_at_construction(self):
        with pytest.raises(ValueError):
            JobRecord(job_id="x", plans=())
