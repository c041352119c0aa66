"""The one-pass engine: each file is walked once, timings, pseudo codes.

Every rule iterates ``FileContext.nodes``; a rule that walked the tree
again would multiply the cost of a cold lint, so the walk is counted.
"""

import ast
import textwrap

from repro.analysis import lint_paths

SINGLE_FINDING = {
    "src/repro/core/a.py": """\
        def collect(item, bucket=[]):
            return bucket
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


class TestOneWalk:
    def test_each_file_is_walked_exactly_once(self, tmp_path,
                                              monkeypatch):
        files = dict(SINGLE_FINDING)
        # Reaches every rule family, and SIM104's parent map.
        files["src/repro/service/x.py"] = """\
            import asyncio

            def render_report(table):
                for key, value in table.items():
                    print(key, value)
                try:
                    asyncio.create_task(table)
                except:
                    raise KeyError(0.5 == table)
            """
        tops = build(tmp_path, files)
        walked = []
        real_walk = ast.walk

        def counting_walk(node):
            walked.append(node)
            return real_walk(node)

        monkeypatch.setattr(ast, "walk", counting_walk)
        result = run(tmp_path, tops)
        assert {"SIM104", "SIM107", "SIM301", "SIM303", "SIM402",
                "SIM403"} <= {f.code for f in result.findings}
        assert result.files_checked == 3
        assert len(walked) == 3
        assert all(isinstance(tree, ast.Module) for tree in walked)
        assert len({id(tree) for tree in walked}) == 3


class TestTimings:
    def test_phase_timings_are_recorded(self, tmp_path):
        tops = build(tmp_path, SINGLE_FINDING)
        result = run(tmp_path, tops)
        for phase in ("discover", "analyze", "total"):
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
        result = run(tmp_path, tops)
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
        result = run(tmp_path, tops, select={"SIM104"})
        assert [f.code for f in result.findings] == ["SIM002"]
