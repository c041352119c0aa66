"""Regenerates Table 1 (simulator parameters) from the live config."""

from conftest import publish

from repro.core.config import ProcessorConfig
from repro.harness.formatting import render_table


def test_table1(benchmark, results_dir):
    def build():
        cfg = ProcessorConfig()
        h = cfg.hierarchy
        return render_table(
            ["Parameter", "Value"],
            [
                ["Fetch queue size", cfg.fetch_queue_size],
                ["Fetch width",
                 f"{cfg.fetch_width} (across up to "
                 f"{cfg.max_fetch_blocks} basic blocks)"],
                ["Branch predictor", "comb. of bimodal and 2-level"],
                ["Bimodal predictor size", "16K"],
                ["Level 1 predictor", "16K entries, history 12"],
                ["Level 2 predictor", "16K entries"],
                ["BTB size", "16K sets, 2-way"],
                ["Branch mispredict penalty",
                 f"at least {cfg.frontend_refill + 2} cycles"],
                ["Issue queue size",
                 f"{cfg.issue_queue_size} per cluster (int and fp, each)"],
                ["Register file size",
                 f"{cfg.regfile_size} per cluster (int and fp, each)"],
                ["Integer ALUs/mult-div", "1/1 per cluster"],
                ["FP ALUs/mult-div", "1/1 per cluster"],
                ["L1 I-cache",
                 f"{cfg.icache_size_kb}KB {cfg.icache_assoc}-way"],
                ["L1 D-cache",
                 f"{h.l1_size_bytes // 1024}KB {h.l1_assoc}-way, "
                 f"{h.l1_latency} cycles, {h.l1_banks}-way "
                 f"word-interleaved"],
                ["L2 unified cache",
                 f"{h.l2_size_bytes // (1024 * 1024)}MB {h.l2_assoc}-way, "
                 f"{h.l2_latency} cycles"],
                ["Memory latency",
                 f"{h.mem_latency} cycles for the first block"],
                ["I and D TLB",
                 f"{h.tlb_entries} entries, "
                 f"{h.page_size // 1024}KB page size"],
                ["ROB size", cfg.rob_size],
            ],
            title="Table 1: Simplescalar-style simulator parameters",
        )

    text = benchmark.pedantic(build, rounds=1, iterations=1)
    publish(results_dir, "table1", text)
    assert "32KB 4-way" in text
    assert "300 cycles" in text
