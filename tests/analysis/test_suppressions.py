"""Inline ``# simlint: disable=...`` suppression semantics."""

from repro.analysis import lint_paths
from repro.analysis.context import parse_suppressions


class TestInlineSuppression:
    def test_same_line_suppression(self, lint_tree):
        result = lint_tree({"src/repro/core/x.py": """\
            def collect(item, bucket=[]):  # simlint: disable=SIM402
                return bucket
            """}, select={"SIM402"})
        assert result.findings == []
        assert result.suppressed == 1

    def test_standalone_comment_covers_next_code_line(self, lint_tree):
        result = lint_tree({"src/repro/core/x.py": """\
            # simlint: disable=SIM402
            def collect(item, bucket=[]):
                return bucket
            """}, select={"SIM402"})
        assert result.findings == []
        assert result.suppressed == 1

    def test_family_wildcard(self, lint_tree):
        result = lint_tree({"src/repro/core/x.py": """\
            def run(step):
                try:
                    step()
                except Exception:  # simlint: disable=SIM3xx
                    return None
            """}, select={"SIM302"})
        assert result.findings == []
        assert result.suppressed == 1

    def test_disable_all(self, lint_tree):
        result = lint_tree({"src/repro/core/x.py": """\
            def collect(item, bucket=[]):  # simlint: disable=all
                return bucket
            """})
        assert result.findings == []
        assert result.suppressed >= 1

    def test_non_matching_code_still_reports(self, lint_tree):
        result = lint_tree({"src/repro/core/x.py": """\
            def collect(item, bucket=[]):  # simlint: disable=SIM301
                return bucket
            """}, select={"SIM402"})
        assert [f.code for f in result.findings] == ["SIM402"]
        assert result.suppressed == 0

    def test_suppression_on_other_line_has_no_effect(self, lint_tree):
        result = lint_tree({"src/repro/core/x.py": """\
            def keep(item, bucket=[]):  # simlint: disable=SIM402
                return bucket

            def collect(item, bucket=[]):
                return bucket
            """}, select={"SIM402"})
        assert [f.code for f in result.findings] == ["SIM402"]
        assert result.suppressed == 1

    def test_comma_separated_codes(self, lint_tree):
        result = lint_tree({"src/repro/core/x.py": """\
            # simlint: disable=SIM402, SIM403
            def is_peak(ipc, seen=[]): return ipc == 0.95
            """}, select={"SIM402", "SIM403"})
        assert result.findings == []
        assert result.suppressed == 2


class TestRationaleAfterCodes:
    """A rationale may follow the codes; it never merges into them."""

    def test_rationale_after_the_code_keeps_the_suppression(
            self, lint_tree):
        result = lint_tree({"src/repro/core/x.py": """\
            def run(step):
                try:
                    step()
                except Exception:  # simlint: disable=SIM302 crash boundary
                    return None
            """}, select={"SIM302"})
        assert result.findings == []
        assert result.suppressed == 1

    def test_rationale_after_a_code_list_keeps_every_code(self):
        suppressions, error = parse_suppressions(
            "step()  # simlint: disable=SIM302, SIM301 reason\n")
        assert error is None
        assert suppressions == {1: {"SIM302", "SIM301"}}

    def test_rationale_word_is_never_a_wildcard(self, lint_tree):
        result = lint_tree({"src/repro/core/x.py": """\
            def collect(item, bucket=[]):  # simlint: disable=SIM302 all reviewed
                return bucket
            """}, select={"SIM402"})
        assert [f.code for f in result.findings] == ["SIM402"]
        assert result.suppressed == 0


class TestWildcardScopes:
    """SIM4xx (family) vs SIMxxx (everything) vs all."""

    def test_sim4xx_covers_the_model_hygiene_family(self, lint_tree):
        result = lint_tree({"src/repro/core/x.py": """\
            # simlint: disable=SIM4xx
            def is_peak(ipc, seen=[]): return ipc == 0.95
            """}, select={"SIM402", "SIM403"})
        assert result.findings == []
        assert result.suppressed == 2

    def test_sim8xx_does_not_leak_into_other_families(self, lint_tree):
        result = lint_tree({"src/repro/core/x.py": """\
            def collect(item, bucket=[]):  # simlint: disable=SIM8xx
                return bucket
            """}, select={"SIM402"})
        assert [f.code for f in result.findings] == ["SIM402"]
        assert result.suppressed == 0

    def test_simxxx_covers_every_family(self, lint_tree):
        result = lint_tree({"src/repro/core/x.py": """\
            def collect(item, bucket=[]):  # simlint: disable=SIMxxx
                return bucket

            def run(step):
                try:
                    step()
                except:  # simlint: disable=SIMxxx
                    pass
            """}, select={"SIM301", "SIM402"})
        assert result.findings == []
        assert result.suppressed == 2


class TestMultiLineStatements:
    def test_comment_inside_multiline_expression_covers_next_line(
            self, lint_tree):
        result = lint_tree({"src/repro/core/x.py": """\
            def collect(
                item,
                # simlint: disable=SIM402
                bucket=[],
            ):
                return bucket
            """}, select={"SIM402"})
        assert result.findings == []
        assert result.suppressed == 1

    def test_trailing_comment_on_last_line_misses_the_finding(
            self, lint_tree):
        # The disable rides the closing-paren line; the finding is
        # anchored at the default one line up, so it must still report.
        result = lint_tree({"src/repro/core/x.py": """\
            def collect(
                item,
                bucket=[],
            ):  # simlint: disable=SIM402
                return bucket
            """}, select={"SIM402"})
        assert [f.code for f in result.findings] == ["SIM402"]
        assert result.suppressed == 0


class TestCRLFSources:
    def _write_crlf(self, tmp_path, rel, lines):
        (tmp_path / "pyproject.toml").write_text(
            "[project]\nname = 'fixture'\n")
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", newline="") as fh:
            fh.write("\r\n".join(lines) + "\r\n")
        return [tmp_path / rel.split("/")[0]]

    def test_crlf_disable_comment_still_suppresses(self, tmp_path):
        tops = self._write_crlf(tmp_path, "src/repro/core/x.py", [
            "def collect(item, bucket=[]):  # simlint: disable=SIM402",
            "    return bucket",
        ])
        result = lint_paths(tops, root=tmp_path, select={"SIM402"},
                            use_cache=False)
        assert result.findings == []
        assert result.suppressed == 1

    def test_crlf_source_lints_without_pseudo_codes(self, tmp_path):
        tops = self._write_crlf(tmp_path, "src/repro/core/x.py", [
            "def collect(item, bucket=[]):",
            "    return bucket",
        ])
        result = lint_paths(tops, root=tmp_path, use_cache=False)
        codes = [f.code for f in result.findings]
        assert "SIM000" not in codes and "SIM002" not in codes
        assert "SIM402" in codes
