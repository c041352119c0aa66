"""End-to-end CLI behaviour: exit codes, formats, baseline workflow.

The last class re-enacts the acceptance scenario: a stray bare
``except:`` in core code must fail the gate with the right rule code.
"""

import json
import textwrap

import pytest

from repro.__main__ import main as repro_main
from repro.analysis.simlint import BASELINE_NAME, main as simlint_main

CLEAN = """\
    def double(values):
        return [v * 2 for v in sorted(values)]
    """

DIRTY = """\
    def run(step):
        try:
            step()
        except:
            return None
    """


@pytest.fixture
def cli_tree(tmp_path, monkeypatch):
    """Write a fixture repo, chdir into it, return a runner."""

    def build(files):
        (tmp_path / "pyproject.toml").write_text(
            "[project]\nname = 'fixture'\n"
        )
        for rel, source in files.items():
            path = tmp_path / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(textwrap.dedent(source))
        monkeypatch.chdir(tmp_path)
        return tmp_path

    return build


class TestExitCodes:
    def test_clean_tree_exits_zero(self, cli_tree, capsys):
        cli_tree({"src/repro/core/x.py": CLEAN})
        assert simlint_main(["src"]) == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_findings_exit_one(self, cli_tree, capsys):
        cli_tree({"src/repro/core/x.py": DIRTY})
        assert simlint_main(["src"]) == 1
        out = capsys.readouterr().out
        assert "SIM301" in out
        assert "src/repro/core/x.py:4" in out

    def test_unknown_select_code_exits_two(self, cli_tree, capsys):
        cli_tree({"src/repro/core/x.py": CLEAN})
        assert simlint_main(["--select", "SIM999", "src"]) == 2
        assert "SIM999" in capsys.readouterr().err

    def test_missing_path_exits_two(self, cli_tree, capsys):
        cli_tree({"src/repro/core/x.py": CLEAN})
        assert simlint_main(["nosuchdir"]) == 2
        assert "no such path" in capsys.readouterr().err

    def test_unreadable_baseline_exits_two(self, cli_tree, capsys):
        root = cli_tree({"src/repro/core/x.py": CLEAN})
        (root / BASELINE_NAME).write_text("{broken")
        assert simlint_main(["src"]) == 2
        assert "baseline" in capsys.readouterr().err

    def test_syntax_error_reported_as_sim000(self, cli_tree, capsys):
        cli_tree({"src/repro/core/x.py": "def broken(:\n"})
        assert simlint_main(["src"]) == 1
        assert "SIM000" in capsys.readouterr().out


class TestFormats:
    def test_json_format_is_machine_readable(self, cli_tree, capsys):
        cli_tree({"src/repro/core/x.py": DIRTY})
        assert simlint_main(["--format", "json", "src"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is False
        assert payload["counts"] == {"SIM301": 1}
        (finding,) = payload["findings"]
        assert finding["code"] == "SIM301"
        assert finding["path"] == "src/repro/core/x.py"
        assert finding["line"] == 4

    def test_select_narrows_rules(self, cli_tree, capsys):
        cli_tree({"src/repro/core/x.py": DIRTY})
        assert simlint_main(["--select", "SIM303", "src"]) == 0

    def test_list_rules_names_every_family(self, cli_tree, capsys):
        cli_tree({"src/repro/core/x.py": CLEAN})
        assert simlint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for code in ("SIM104", "SIM107", "SIM301", "SIM401"):
            assert code in out


class TestBaselineWorkflow:
    def test_write_baseline_then_rerun_is_green(self, cli_tree, capsys):
        root = cli_tree({"src/repro/core/x.py": DIRTY})
        assert simlint_main(["src"]) == 1
        assert simlint_main(["--write-baseline", "src"]) == 0
        assert (root / BASELINE_NAME).is_file()
        capsys.readouterr()
        assert simlint_main(["src"]) == 0
        assert "1 baselined" in capsys.readouterr().out

    def test_no_baseline_flag_resurfaces_findings(self, cli_tree):
        cli_tree({"src/repro/core/x.py": DIRTY})
        assert simlint_main(["--write-baseline", "src"]) == 0
        assert simlint_main(["--no-baseline", "src"]) == 1

    def test_new_finding_fails_despite_baseline(self, cli_tree, capsys):
        cli_tree({"src/repro/core/x.py": DIRTY})
        assert simlint_main(["--write-baseline", "src"]) == 0
        with open("src/repro/core/y.py", "w") as fh:
            fh.write(textwrap.dedent(DIRTY))
        capsys.readouterr()
        assert simlint_main(["src"]) == 1
        out = capsys.readouterr().out
        assert "src/repro/core/y.py" in out
        assert "1 baselined" in out


class TestCheckBaseline:
    def test_stale_entry_fails_the_gate(self, cli_tree, capsys):
        cli_tree({"src/repro/core/x.py": DIRTY})
        assert simlint_main(["--write-baseline", "src"]) == 0
        # Fix the finding; its baseline allowance is now stale.
        with open("src/repro/core/x.py", "w") as fh:
            fh.write(textwrap.dedent(CLEAN))
        capsys.readouterr()
        assert simlint_main(["--check-baseline", "src"]) == 1
        err = capsys.readouterr().err
        assert "stale baseline entry" in err
        assert "SIM301" in err
        assert "regenerate with --write-baseline" in err

    def test_fully_used_baseline_passes(self, cli_tree, capsys):
        cli_tree({"src/repro/core/x.py": DIRTY})
        assert simlint_main(["--write-baseline", "src"]) == 0
        capsys.readouterr()
        assert simlint_main(["--check-baseline", "src"]) == 0
        assert "stale" not in capsys.readouterr().err

    def test_requires_a_baseline_file(self, cli_tree, capsys):
        cli_tree({"src/repro/core/x.py": CLEAN})
        assert simlint_main(["--check-baseline", "src"]) == 2
        assert "needs a baseline" in capsys.readouterr().err

    def test_rejects_select(self, cli_tree, capsys):
        cli_tree({"src/repro/core/x.py": DIRTY})
        assert simlint_main(["--write-baseline", "src"]) == 0
        capsys.readouterr()
        assert simlint_main(
            ["--check-baseline", "--select", "SIM301", "src"]) == 2
        assert "drop --select" in capsys.readouterr().err


class TestExplain:
    def test_explain_prints_rationale_and_examples(self, monkeypatch,
                                                   capsys):
        # --explain reads the real repo's fixture corpus, so run it
        # from the actual repo root rather than a fixture tree.
        import pathlib
        repo_root = pathlib.Path(__file__).resolve().parents[2]
        monkeypatch.chdir(repo_root)
        assert simlint_main(["--explain", "SIM301"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("SIM301:")
        assert "example, flagged" in out
        assert "example, clean" in out

    def test_explain_is_case_insensitive(self, monkeypatch, capsys):
        import pathlib
        repo_root = pathlib.Path(__file__).resolve().parents[2]
        monkeypatch.chdir(repo_root)
        assert simlint_main(["--explain", "sim402"]) == 0
        assert "SIM402" in capsys.readouterr().out

    def test_explain_unknown_code_exits_two(self, cli_tree, capsys):
        cli_tree({"src/repro/core/x.py": CLEAN})
        assert simlint_main(["--explain", "SIM999"]) == 2
        assert "SIM999" in capsys.readouterr().err


class TestEngineFlags:
    def test_jobs_zero_exits_two(self, cli_tree, capsys):
        cli_tree({"src/repro/core/x.py": CLEAN})
        assert simlint_main(["--jobs", "0", "src"]) == 2
        assert "--jobs" in capsys.readouterr().err

    def test_jobs_two_matches_serial_verdict(self, cli_tree):
        cli_tree({"src/repro/core/x.py": DIRTY})
        assert simlint_main(["--jobs", "2", "--no-cache", "src"]) == 1

    def test_timings_file_has_phase_breakdown(self, cli_tree):
        root = cli_tree({"src/repro/core/x.py": CLEAN})
        assert simlint_main(
            ["--timings", "timings.json", "src"]) == 0
        payload = json.loads((root / "timings.json").read_text())
        assert payload["files_checked"] == 1
        assert payload["jobs"] == 1
        assert "total" in payload["timings_s"]
        assert "cache_hits" in payload and "cache_misses" in payload

    def test_no_cache_leaves_no_cache_dir(self, cli_tree):
        root = cli_tree({"src/repro/core/x.py": CLEAN})
        assert simlint_main(["--no-cache", "src"]) == 0
        assert not (root / ".simlint-cache").exists()

    def test_cache_dir_flag_relocates_the_cache(self, cli_tree):
        root = cli_tree({"src/repro/core/x.py": CLEAN})
        assert simlint_main(
            ["--cache-dir", "elsewhere", "src"]) == 0
        assert list((root / "elsewhere").rglob("*.json"))
        assert not (root / ".simlint-cache").exists()


class TestReproDispatch:
    def test_repro_lint_subcommand(self, cli_tree, capsys):
        cli_tree({"src/repro/core/x.py": DIRTY})
        assert repro_main(["lint", "src"]) == 1
        assert "SIM301" in capsys.readouterr().out

    def test_repro_lint_forwards_options(self, cli_tree, capsys):
        cli_tree({"src/repro/core/x.py": CLEAN})
        assert repro_main(["lint", "--list-rules"]) == 0
        assert "SIM301" in capsys.readouterr().out


class TestAcceptanceScenarios:
    def test_bare_except_in_core_fails_the_gate(self, cli_tree, capsys):
        # A stray bare except: in src/repro/core/ must exit non-zero
        # with SIM301.
        cli_tree({
            "src/repro/core/instruction.py": """\
                def decode(word):
                    try:
                        return word.opcode
                    except:
                        return None
                """,
        })
        assert simlint_main(["src"]) == 1
        assert "SIM301" in capsys.readouterr().out
