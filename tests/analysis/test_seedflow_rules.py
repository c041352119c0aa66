"""SIM5xx: seed/RNG provenance across the project call graph."""


class TestSIM501RngProvenance:
    def test_constant_seed_is_flagged(self, lint_tree):
        result = lint_tree({"src/repro/core/x.py": """\
            import random

            def make_stream():
                return random.Random(42)
            """}, select={"SIM501"})
        assert [f.code for f in result.findings] == ["SIM501"]
        assert "constant or plan-independent" in result.findings[0].message

    def test_missing_seed_is_flagged(self, lint_tree):
        result = lint_tree({"src/repro/core/x.py": """\
            import numpy as np

            def make_stream():
                return np.random.default_rng()
            """}, select={"SIM501"})
        assert [f.code for f in result.findings] == ["SIM501"]
        assert "without a seed" in result.findings[0].message

    def test_os_entropy_is_flagged(self, lint_tree):
        result = lint_tree({"src/repro/core/x.py": """\
            import random

            def make_stream():
                return random.SystemRandom()
            """}, select={"SIM501"})
        assert [f.code for f in result.findings] == ["SIM501"]
        assert "OS entropy" in result.findings[0].message

    def test_plan_seed_attribute_is_fine(self, lint_tree):
        result = lint_tree({"src/repro/core/x.py": """\
            import random

            def make_stream(plan):
                return random.Random(plan.seed)
            """}, select={"SIM501"})
        assert result.findings == []

    def test_seed_deriving_call_is_fine(self, lint_tree):
        result = lint_tree({"src/repro/core/x.py": """\
            import random

            def make_stream(plan, attempt):
                return random.Random(backoff_seed(plan, attempt))
            """}, select={"SIM501"})
        assert result.findings == []

    def test_seedish_parameter_name_is_a_contract(self, lint_tree):
        # A parameter *named* seed states its own provenance; the
        # callers that violate it get flagged at their own RNG sites.
        result = lint_tree({"src/repro/core/x.py": """\
            import random

            def make_stream(seed):
                return random.Random(seed)
            """}, select={"SIM501"})
        assert result.findings == []

    def test_cross_module_plan_fed_parameter_is_fine(self, lint_tree):
        result = lint_tree({
            "src/repro/core/streams.py": """\
                import random

                def make_stream(n):
                    return random.Random(n)
                """,
            "src/repro/core/driver.py": """\
                from repro.core.streams import make_stream

                def run(plan):
                    return make_stream(plan.seed)
                """,
        }, select={"SIM501"})
        assert result.findings == []

    def test_cross_module_unfed_parameter_is_flagged(self, lint_tree):
        result = lint_tree({
            "src/repro/core/streams.py": """\
                import random

                def make_stream(n):
                    return random.Random(n)
                """,
            "src/repro/core/driver.py": """\
                from repro.core.streams import make_stream

                def run():
                    return make_stream(1234)
                """,
        }, select={"SIM501"})
        assert [f.code for f in result.findings] == ["SIM501"]
        assert "no src/ call site feeds" in result.findings[0].message
        assert result.findings[0].path == "src/repro/core/streams.py"

    def test_two_hop_parameter_chase(self, lint_tree):
        result = lint_tree({
            "src/repro/core/streams.py": """\
                import random

                def make_stream(n):
                    return random.Random(n)

                def wrapped(m):
                    return make_stream(m)
                """,
            "src/repro/core/driver.py": """\
                from repro.core.streams import wrapped

                def run(plan):
                    return wrapped(plan.seed)
                """,
        }, select={"SIM501"})
        assert result.findings == []

    def test_test_call_sites_are_not_evidence(self, lint_tree):
        # A test passing a literal seed must not count as provenance
        # for simulator code.
        result = lint_tree({
            "src/repro/core/streams.py": """\
                import random

                def make_stream(n):
                    return random.Random(n)
                """,
            "tests/test_streams.py": """\
                from repro.core.streams import make_stream

                def test_stream():
                    assert make_stream(7).random() < 1.0
                """,
        }, select={"SIM501"})
        assert [f.code for f in result.findings] == ["SIM501"]

    def test_rule_is_scoped_to_src(self, lint_tree):
        result = lint_tree({"tests/test_x.py": """\
            import random

            def test_stream():
                assert random.Random(42).random() < 1.0
            """}, select={"SIM501"})
        assert result.findings == []


class TestEwmaRngFreeGuarantee:
    """The gating path is deterministic by construction.

    Both engines must settle identical gate points from the same
    injection history, so the power package may not consult an RNG at
    all: no dithered thresholds, no jittered decay.  SIM501 is the
    fence -- any RNG smuggled into ``src/repro/power/`` is either
    plan-independent (flagged) or plan-seeded (visible in review) --
    and the source-level scan below pins the stronger guarantee that
    today there is no RNG construction whatsoever.
    """

    def test_jittered_ewma_is_flagged(self, lint_tree):
        result = lint_tree({"src/repro/power/x.py": """\
            import random

            def decayed(ewma, idle):
                rng = random.Random(42)
                return ewma * 0.5 ** (idle / 16.0) + rng.random() * 1e-6
            """}, select={"SIM501"})
        assert [f.code for f in result.findings] == ["SIM501"]
        assert "constant or plan-independent" in result.findings[0].message

    def test_unseeded_jitter_is_flagged(self, lint_tree):
        result = lint_tree({"src/repro/power/x.py": """\
            import random

            def dither(threshold):
                rng = random.Random()
                return threshold + rng.random() * 1e-3
            """}, select={"SIM501"})
        assert [f.code for f in result.findings] == ["SIM501"]
        assert "without a seed" in result.findings[0].message

    def test_closed_form_decay_is_clean(self, lint_tree):
        result = lint_tree({"src/repro/power/x.py": """\
            def decayed(ewma, idle):
                return ewma * 0.5 ** (idle / 16.0)
            """}, select={"SIM501"})
        assert result.findings == []

    def test_real_power_package_constructs_no_rng(self):
        import ast
        from pathlib import Path

        package = (Path(__file__).resolve().parents[2]
                   / "src" / "repro" / "power")
        offenders = []
        for path in sorted(package.glob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    names = [a.name for a in node.names]
                elif isinstance(node, ast.ImportFrom):
                    names = [node.module or ""]
                else:
                    continue
                offenders.extend(
                    f"{path.name}:{node.lineno}:{name}"
                    for name in names
                    if name == "random" or name.startswith(("random.",
                                                            "numpy"))
                )
        assert offenders == []

