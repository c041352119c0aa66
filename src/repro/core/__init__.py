"""The paper's evaluation platform: configs, models, processor, metrics."""

from .config import (
    InterconnectConfig,
    ProcessorConfig,
    baseline_interconnect,
    wire_counts,
)
from .instruction import NEVER, DynInstr
from .metrics import (
    DYNAMIC_SHARE,
    LEAKAGE_SHARE,
    BenchmarkRun,
    ModelResult,
    RelativeMetrics,
    relative_metrics,
)
from .models import (
    MODEL_NAMES,
    PAPER_METAL_AREA,
    InterconnectModel,
    all_models,
    model,
)
from .processor import ClusteredProcessor, ProcessorStats
from .simulation import (
    DEFAULT_INSTRUCTIONS,
    DEFAULT_SEED,
    DEFAULT_WARMUP,
    AccountingError,
    build_processor,
    simulate_benchmark,
)

__all__ = [
    "InterconnectConfig",
    "ProcessorConfig",
    "baseline_interconnect",
    "wire_counts",
    "NEVER",
    "DynInstr",
    "DYNAMIC_SHARE",
    "LEAKAGE_SHARE",
    "BenchmarkRun",
    "ModelResult",
    "RelativeMetrics",
    "relative_metrics",
    "MODEL_NAMES",
    "PAPER_METAL_AREA",
    "InterconnectModel",
    "all_models",
    "model",
    "ClusteredProcessor",
    "ProcessorStats",
    "DEFAULT_INSTRUCTIONS",
    "DEFAULT_SEED",
    "DEFAULT_WARMUP",
    "AccountingError",
    "build_processor",
    "simulate_benchmark",
]
