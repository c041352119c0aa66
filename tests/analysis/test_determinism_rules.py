"""SIM104: dict iteration feeding output, positive and negative fixtures."""


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
