"""Instrumentation and estimators: bias factors, dangling requests,
performance metrics, and report formatting."""

from .ablation import (
    COMPONENTS,
    Cell,
    Component,
    build_matrix,
    cell_run_id,
    extract_metrics,
    importance_report,
    rank_components,
    run_matrix,
)
from .bias import BiasFactors, compute_bias_factors
from .dangling import DanglingProfiler, DanglingStats
from .metrics import TimeBreakdown, message_rate_k, speedup
from .report import format_rate, format_size, format_table

__all__ = [
    "COMPONENTS",
    "Cell",
    "Component",
    "build_matrix",
    "cell_run_id",
    "extract_metrics",
    "importance_report",
    "rank_components",
    "run_matrix",
    "BiasFactors",
    "compute_bias_factors",
    "DanglingProfiler",
    "DanglingStats",
    "TimeBreakdown",
    "message_rate_k",
    "speedup",
    "format_table",
    "format_size",
    "format_rate",
]
