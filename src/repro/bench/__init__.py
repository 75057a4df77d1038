"""Benchmark-harness utilities: memoized experiment driver + reports."""

from .report import format_table, results_dir, write_result
from .runner import (
    AppEvaluation,
    AppFailure,
    FastPathAppRow,
    FastPathComparison,
    SuiteReport,
    clear_cache,
    compare_fastpath,
    evaluate_app,
    evaluate_app_static,
    geomean,
    run_suite,
    write_report_json,
)
from .via_server import ViaServerComparison, compare_via_server

__all__ = [
    "AppEvaluation",
    "AppFailure",
    "FastPathAppRow",
    "FastPathComparison",
    "SuiteReport",
    "ViaServerComparison",
    "clear_cache",
    "compare_fastpath",
    "compare_via_server",
    "evaluate_app",
    "evaluate_app_static",
    "format_table",
    "geomean",
    "results_dir",
    "run_suite",
    "write_report_json",
    "write_result",
]
