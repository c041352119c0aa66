"""Baseline round-trips: from_findings -> save -> load -> partition."""

import json

import pytest

from repro.analysis import Baseline, Finding
from repro.analysis.baseline import BaselineError


def finding(code="SIM301", path="src/repro/core/x.py", line=4,
            message="bare 'except:'"):
    return Finding(code=code, message=message, path=path, line=line,
                   col=0)


class TestRoundTrip:
    def test_save_load_partition_absorbs(self, tmp_path):
        found = [finding(), finding(code="SIM303", line=9,
                                    message="raising KeyError")]
        Baseline.from_findings(found).save(tmp_path / "b.json")
        loaded = Baseline.load(tmp_path / "b.json")
        new, absorbed = loaded.partition(found)
        assert new == []
        assert absorbed == found

    def test_fingerprint_ignores_line_moves(self, tmp_path):
        Baseline.from_findings([finding(line=4)]).save(tmp_path / "b.json")
        loaded = Baseline.load(tmp_path / "b.json")
        new, absorbed = loaded.partition([finding(line=40)])
        assert new == []
        assert len(absorbed) == 1

    def test_surplus_occurrence_is_new(self, tmp_path):
        Baseline.from_findings([finding()]).save(tmp_path / "b.json")
        loaded = Baseline.load(tmp_path / "b.json")
        new, absorbed = loaded.partition([finding(line=4),
                                          finding(line=8)])
        assert len(absorbed) == 1
        assert len(new) == 1

    def test_duplicate_findings_share_a_counted_entry(self, tmp_path):
        pair = [finding(line=4), finding(line=8)]
        baseline = Baseline.from_findings(pair)
        assert len(baseline.entries) == 1
        (entry,) = baseline.entries.values()
        assert entry["count"] == 2
        baseline.save(tmp_path / "b.json")
        new, absorbed = Baseline.load(tmp_path / "b.json").partition(pair)
        assert new == []
        assert len(absorbed) == 2

    def test_new_entries_are_stamped_todo(self):
        baseline = Baseline.from_findings([finding()])
        (entry,) = baseline.entries.values()
        assert entry["note"] == "TODO: justify"

    def test_saved_file_is_sorted_and_human_readable(self, tmp_path):
        found = [finding(path="src/z.py"), finding(path="src/a.py")]
        Baseline.from_findings(found).save(tmp_path / "b.json")
        data = json.loads((tmp_path / "b.json").read_text())
        assert data["version"] == 1
        paths = [e["path"] for e in data["entries"]]
        assert paths == sorted(paths)
        assert all({"fingerprint", "count", "note"} <= set(e)
                   for e in data["entries"])


class TestMalformedBaselines:
    def test_invalid_json(self, tmp_path):
        (tmp_path / "b.json").write_text("{not json")
        with pytest.raises(BaselineError):
            Baseline.load(tmp_path / "b.json")

    def test_wrong_version(self, tmp_path):
        (tmp_path / "b.json").write_text(
            json.dumps({"version": 99, "entries": []})
        )
        with pytest.raises(BaselineError):
            Baseline.load(tmp_path / "b.json")

    def test_malformed_entry(self, tmp_path):
        (tmp_path / "b.json").write_text(
            json.dumps({"version": 1, "entries": [{"count": 1}]})
        )
        with pytest.raises(BaselineError):
            Baseline.load(tmp_path / "b.json")

    def test_missing_file(self, tmp_path):
        with pytest.raises(BaselineError):
            Baseline.load(tmp_path / "missing.json")


class TestBaselineThroughEngine:
    def test_baselined_findings_do_not_fail_the_run(self, lint_tree):
        files = {"src/repro/core/x.py": """\
            def run(step):
                try:
                    step()
                except:
                    return None
            """}
        first = lint_tree(files, select={"SIM301"})
        assert not first.ok
        baseline = Baseline.from_findings(first.findings)
        second = lint_tree(files, select={"SIM301"}, baseline=baseline)
        assert second.ok
        assert second.findings == []
        assert len(second.baselined) == 1
