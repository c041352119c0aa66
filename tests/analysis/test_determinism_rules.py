"""SIM1xx: determinism rules, positive and negative fixtures."""


class TestSIM101GlobalRNG:
    def test_flags_global_random_call(self, lint_tree):
        result = lint_tree({"src/repro/core/x.py": """\
            import random

            def draw():
                return random.random()
            """}, select={"SIM101"})
        assert [f.code for f in result.findings] == ["SIM101"]
        assert "process-global RNG" in result.findings[0].message

    def test_flags_from_import_and_global_seed(self, lint_tree):
        result = lint_tree({"src/repro/core/x.py": """\
            import random
            from random import randint

            def draw():
                random.seed(3)
                return randint(0, 4)
            """}, select={"SIM101"})
        assert [f.code for f in result.findings] == ["SIM101", "SIM101"]

    def test_flags_numpy_global_rng(self, lint_tree):
        result = lint_tree({"src/repro/core/x.py": """\
            import numpy as np

            def draw():
                return np.random.rand(3)
            """}, select={"SIM101"})
        assert [f.code for f in result.findings] == ["SIM101"]
        assert "NumPy" in result.findings[0].message

    def test_seeded_instances_are_fine(self, lint_tree):
        result = lint_tree({"src/repro/core/x.py": """\
            import random
            import numpy as np

            def draw(seed):
                rng = random.Random(seed)
                gen = np.random.default_rng(seed)
                return rng.random() + gen.random()
            """}, select={"SIM101"})
        assert result.findings == []

    def test_fires_in_tests_too(self, lint_tree):
        result = lint_tree({"tests/test_x.py": """\
            import random

            def test_roll():
                assert random.random() < 1.0
            """}, select={"SIM101"})
        assert [f.code for f in result.findings] == ["SIM101"]


class TestSIM102WallClock:
    def test_flags_clock_in_simulator(self, lint_tree):
        result = lint_tree({"src/repro/core/x.py": """\
            import time
            import uuid

            def stamp():
                return time.time(), uuid.uuid4()
            """}, select={"SIM102"})
        assert [f.code for f in result.findings] == ["SIM102", "SIM102"]

    def test_harness_timing_paths_are_exempt(self, lint_tree):
        result = lint_tree({"src/repro/harness/x.py": """\
            import time

            def measure():
                return time.perf_counter()
            """}, select={"SIM102"})
        assert result.findings == []

    def test_tests_are_exempt(self, lint_tree):
        result = lint_tree({"tests/test_x.py": """\
            import time

            def test_quick():
                assert time.time() > 0
            """}, select={"SIM102"})
        assert result.findings == []

    def test_service_timing_paths_are_exempt(self, lint_tree):
        """Backoff schedules, breaker cooldowns and queue drain
        estimates are wall-clock concerns by design: the sweep
        service package sits outside the simulator's purity rule."""
        result = lint_tree({"src/repro/service/x.py": """\
            import time

            def deadline(budget):
                return time.monotonic() + budget
            """}, select={"SIM102"})
        assert result.findings == []

    def test_telemetry_package_is_not_exempt(self, lint_tree):
        """Cycle-stamped tracing must stay wall-clock-free: the telemetry
        package is simulator code, not harness code, under SIM102."""
        result = lint_tree({"src/repro/telemetry/x.py": """\
            import time

            def stamp():
                return time.time()
            """}, select={"SIM102"})
        assert [f.code for f in result.findings] == ["SIM102"]

    def test_harness_profiling_is_exempt(self, lint_tree):
        """The wall-clock profiler lives in the harness for exactly this
        reason."""
        result = lint_tree({"src/repro/harness/profiling.py": """\
            import time

            def now():
                return time.perf_counter()
            """}, select={"SIM102"})
        assert result.findings == []


class TestSIM103SetIteration:
    def test_flags_loop_over_set_call(self, lint_tree):
        result = lint_tree({"src/repro/core/x.py": """\
            def emit(names):
                for name in set(names):
                    print(name)
            """}, select={"SIM103"})
        assert [f.code for f in result.findings] == ["SIM103"]

    def test_flags_loop_over_tracked_set_name(self, lint_tree):
        result = lint_tree({"src/repro/core/x.py": """\
            class Tracker:
                def __init__(self):
                    self.active = set()

                def drain(self):
                    return [key for key in self.active]
            """}, select={"SIM103"})
        assert [f.code for f in result.findings] == ["SIM103"]

    def test_sorted_wrapper_is_fine(self, lint_tree):
        result = lint_tree({"src/repro/core/x.py": """\
            def emit(names):
                for name in sorted(set(names)):
                    print(name)
                return sorted(n for n in set(names))
            """}, select={"SIM103"})
        assert result.findings == []

    def test_order_free_consumers_are_fine(self, lint_tree):
        result = lint_tree({"src/repro/core/x.py": """\
            def check(names, bad):
                seen = set(names)
                return any(n in bad for n in seen), {n for n in seen}
            """}, select={"SIM103"})
        assert result.findings == []


class TestSIM104DictIterationInOutput:
    def test_flags_unsorted_items_in_report(self, lint_tree):
        result = lint_tree({"src/repro/core/x.py": """\
            def utilization_report(counters):
                rows = []
                for key, value in counters.items():
                    rows.append((key, value))
                return rows
            """}, select={"SIM104"})
        assert [f.code for f in result.findings] == ["SIM104"]
        assert "insertion order" in result.findings[0].message

    def test_sorted_items_in_report_is_fine(self, lint_tree):
        result = lint_tree({"src/repro/core/x.py": """\
            def utilization_report(counters):
                return [kv for kv in sorted(counters.items())]
            """}, select={"SIM104"})
        assert result.findings == []

    def test_non_output_functions_are_not_flagged(self, lint_tree):
        result = lint_tree({"src/repro/core/x.py": """\
            def accumulate(counters):
                total = 0
                for key, value in counters.items():
                    total += value
                return total
            """}, select={"SIM104"})
        assert result.findings == []


class TestSIM105IdOrdering:
    def test_flags_id_sort_key(self, lint_tree):
        result = lint_tree({"src/repro/core/x.py": """\
            def order(objs):
                objs.sort(key=id)
                return sorted(objs, key=lambda o: (o.rank, id(o)))
            """}, select={"SIM105"})
        assert [f.code for f in result.findings] == ["SIM105", "SIM105"]

    def test_field_sort_key_is_fine(self, lint_tree):
        result = lint_tree({"src/repro/core/x.py": """\
            def order(objs):
                return sorted(objs, key=lambda o: o.rank)
            """}, select={"SIM105"})
        assert result.findings == []


class TestSIM106NumpyNondeterminism:
    def test_flags_order_sensitive_reductions(self, lint_tree, codes_of):
        result = lint_tree({"src/repro/clusters/fast.py": """\
            import numpy as np

            def score(rows, weights):
                total = np.sum(rows, axis=0)
                return np.dot(total, weights)
            """}, select={"SIM106"})
        assert codes_of(result) == [("SIM106", 4), ("SIM106", 5)]
        assert "backend-chosen order" in result.findings[0].message

    def test_flags_from_import_alias(self, lint_tree):
        result = lint_tree({"src/repro/core/fast.py": """\
            from numpy import einsum as contract

            def energy(a, b):
                return contract("ij,j->i", a, b)
            """}, select={"SIM106"})
        assert [f.code for f in result.findings] == ["SIM106"]

    def test_flags_unstable_sorts(self, lint_tree, codes_of):
        result = lint_tree({"src/repro/interconnect/fast.py": """\
            import numpy as np

            def order(scores):
                ranked = np.argsort(scores)
                tied = scores.argsort()
                return np.sort(scores), ranked, tied
            """}, select={"SIM106"})
        assert codes_of(result) == [("SIM106", 4), ("SIM106", 5),
                                    ("SIM106", 6)]
        assert 'kind="stable"' in result.findings[0].message

    def test_stable_sorts_are_fine(self, lint_tree):
        result = lint_tree({"src/repro/interconnect/fast.py": """\
            import numpy as np

            def order(scores):
                ranked = np.argsort(scores, kind="stable")
                legacy = scores.argsort(kind="mergesort")
                return np.sort(scores, kind="stable"), ranked, legacy
            """}, select={"SIM106"})
        assert result.findings == []

    def test_elementwise_accumulation_is_fine(self, lint_tree):
        # The sanctioned SteeringHeuristic pattern: per-row fused
        # multiply-add via broadcasting, no reduction call.
        result = lint_tree({"src/repro/clusters/fast.py": """\
            import numpy as np

            def score(rows, weights, free, iq):
                scores = np.zeros(len(free))
                for weight, row in zip(weights, rows):
                    scores += weight * row
                scores += 0.5 * (free / iq)
                return scores.tolist()
            """}, select={"SIM106"})
        assert result.findings == []

    def test_harness_and_tests_are_exempt(self, lint_tree):
        files = {
            "src/repro/harness/report.py": """\
                import numpy as np

                def mean_ipc(values):
                    return np.mean(values)
                """,
            "tests/test_scores.py": """\
                import numpy as np

                def test_total():
                    assert np.sum([1.0, 2.0]) == 3.0
                """,
        }
        result = lint_tree(files, select={"SIM106"})
        assert result.findings == []

    def test_plain_argsort_method_without_numpy_import_is_fine(
            self, lint_tree):
        # Without a numpy import the .argsort() heuristic stays quiet
        # (no evidence the receiver is an ndarray).
        result = lint_tree({"src/repro/core/x.py": """\
            def order(frame):
                return frame.argsort()
            """}, select={"SIM106"})
        assert result.findings == []

    def test_inline_suppression_respected(self, lint_tree):
        result = lint_tree({"src/repro/core/x.py": """\
            import numpy as np

            def checksum(arr):
                # Integer-only reduction: order-insensitive by design.
                return np.sum(arr)  # simlint: disable=SIM106
            """}, select={"SIM106"})
        assert result.findings == []
