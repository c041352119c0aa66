"""Incremental cache and parallel engine behavior.

The cache must be invisible except for speed: warm runs return the
same findings as cold runs, edits invalidate exactly the touched
file, and project-level findings (which depend on *every* file)
recompute whenever any input changes.  ``--jobs`` must likewise be a
pure speed knob.
"""

import textwrap

from repro.analysis import lint_paths
from repro.analysis.cache import CACHE_DIR_NAME

CROSS_MODULE_CLEAN = {
    "src/repro/service/store.py": """\
        def save(record):
            return dict(record)
        """,
    "src/repro/service/server.py": """\
        from repro.service.store import save

        async def admit(record):
            return save(record)
        """,
}

SINGLE_FINDING = {
    "src/repro/core/a.py": """\
        import time

        async def throttle(delay):
            time.sleep(delay)
        """,
    "src/repro/core/b.py": """\
        def double(n):
            return n * 2
        """,
}


def build(tmp_path, files):
    (tmp_path / "pyproject.toml").write_text("[project]\nname = 'x'\n")
    tops = []
    for rel, source in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))
        top = tmp_path / rel.split("/")[0]
        if top not in tops:
            tops.append(top)
    return tops


def run(tmp_path, tops, **kwargs):
    return lint_paths(tops, root=tmp_path, **kwargs)


def summary(result):
    return sorted((f.path, f.line, f.code) for f in result.findings)


class TestWarmCache:
    def test_warm_run_matches_cold_and_hits(self, tmp_path):
        tops = build(tmp_path, SINGLE_FINDING)
        cold = run(tmp_path, tops)
        assert cold.cache_misses == 2 and cold.cache_hits == 0
        assert not cold.project_cache_hit
        warm = run(tmp_path, tops)
        assert warm.cache_hits == 2 and warm.cache_misses == 0
        assert warm.project_cache_hit
        assert summary(warm) == summary(cold)
        assert [f.code for f in cold.findings] == ["SIM801"]

    def test_edit_invalidates_only_the_changed_file(self, tmp_path):
        tops = build(tmp_path, SINGLE_FINDING)
        run(tmp_path, tops)
        target = tmp_path / "src/repro/core/b.py"
        target.write_text(target.read_text() + "\n\nX = 1\n")
        warm = run(tmp_path, tops)
        assert warm.cache_hits == 1 and warm.cache_misses == 1
        assert not warm.project_cache_hit

    def test_dependency_edit_recomputes_project_findings(self, tmp_path):
        # server.admit() is fine while store.save() stays in memory;
        # editing *store* must surface a finding in *server*.
        tops = build(tmp_path, CROSS_MODULE_CLEAN)
        clean = run(tmp_path, tops)
        assert clean.findings == []
        store = tmp_path / "src/repro/service/store.py"
        store.write_text(textwrap.dedent("""\
            import os

            def save(record):
                os.replace(record, record + ".bak")
            """))
        warm = run(tmp_path, tops)
        assert [f.code for f in warm.findings] == ["SIM802"]
        assert warm.findings[0].path == "src/repro/service/server.py"
        # The untouched file itself still came from cache.
        assert warm.cache_hits == 1

    def test_cache_is_select_independent(self, tmp_path):
        # All rules run on the cold pass, so a warm pass may narrow or
        # widen --select freely and still read pure cache.
        tops = build(tmp_path, SINGLE_FINDING)
        cold = run(tmp_path, tops, select={"SIM104"})
        assert cold.findings == []
        warm = run(tmp_path, tops, select={"SIM801"})
        assert warm.cache_hits == 2
        assert [f.code for f in warm.findings] == ["SIM801"]

    def test_no_cache_mode_writes_nothing(self, tmp_path):
        tops = build(tmp_path, SINGLE_FINDING)
        result = run(tmp_path, tops, use_cache=False)
        assert [f.code for f in result.findings] == ["SIM801"]
        assert not (tmp_path / CACHE_DIR_NAME).exists()

    def test_corrupt_cache_entry_is_recomputed(self, tmp_path):
        tops = build(tmp_path, SINGLE_FINDING)
        run(tmp_path, tops)
        cache_dir = tmp_path / CACHE_DIR_NAME
        entries = sorted(cache_dir.rglob("*.json"))
        assert entries
        for entry in entries:
            entry.write_text("{not json")
        warm = run(tmp_path, tops)
        assert [f.code for f in warm.findings] == ["SIM801"]
        assert warm.cache_hits == 0

    def test_custom_cache_dir_is_honored(self, tmp_path):
        tops = build(tmp_path, SINGLE_FINDING)
        elsewhere = tmp_path / "cachebox"
        run(tmp_path, tops, cache_dir=elsewhere)
        assert list(elsewhere.rglob("*.json"))
        assert not (tmp_path / CACHE_DIR_NAME).exists()
        warm = run(tmp_path, tops, cache_dir=elsewhere)
        assert warm.cache_hits == 2


class TestParallelJobs:
    def test_parallel_results_match_serial(self, tmp_path):
        files = dict(SINGLE_FINDING)
        files.update(CROSS_MODULE_CLEAN)
        files["src/repro/service/x.py"] = """\
            import time

            def _nap(delay):
                time.sleep(delay)

            async def pause(delay):
                _nap(delay)
            """
        tops = build(tmp_path, files)
        serial = run(tmp_path, tops, jobs=1, use_cache=False)
        parallel = run(tmp_path, tops, jobs=2, use_cache=False)
        assert summary(parallel) == summary(serial)
        assert parallel.jobs == 2
        codes = {f.code for f in serial.findings}
        assert {"SIM801", "SIM802"} <= codes

    def test_parallel_cold_run_populates_cache(self, tmp_path):
        tops = build(tmp_path, SINGLE_FINDING)
        cold = run(tmp_path, tops, jobs=2)
        assert cold.cache_misses == 2
        warm = run(tmp_path, tops, jobs=1)
        assert warm.cache_hits == 2
        assert summary(warm) == summary(cold)


class TestTimings:
    def test_phase_timings_are_recorded(self, tmp_path):
        tops = build(tmp_path, SINGLE_FINDING)
        result = run(tmp_path, tops)
        for phase in ("discover", "phase1", "project", "total"):
            assert phase in result.timings
            assert result.timings[phase] >= 0.0


class TestSuppressionErrorPseudoCode:
    def test_tokenize_failure_reports_sim002(self, tmp_path, monkeypatch):
        import tokenize

        from repro.analysis import context as context_mod

        def boom(readline):
            raise tokenize.TokenError("EOF in multi-line statement",
                                      (1, 0))

        monkeypatch.setattr(context_mod.tokenize, "generate_tokens",
                            boom)
        tops = build(tmp_path, {"src/repro/core/x.py": """\
            def fine():
                return 1
            """})
        result = run(tmp_path, tops, use_cache=False)
        assert [f.code for f in result.findings] == ["SIM002"]
        assert "TokenError" in result.findings[0].message

    def test_sim002_bypasses_select(self, tmp_path, monkeypatch):
        import tokenize

        from repro.analysis import context as context_mod

        monkeypatch.setattr(
            context_mod.tokenize, "generate_tokens",
            lambda readline: (_ for _ in ()).throw(
                tokenize.TokenError("boom", (1, 0))))
        tops = build(tmp_path, {"src/repro/core/x.py": "X = 1\n"})
        result = run(tmp_path, tops, select={"SIM104"},
                     use_cache=False)
        assert [f.code for f in result.findings] == ["SIM002"]
