"""Benchmark-harness utilities: memoized experiment driver + reports."""

from .report import format_table, results_dir, write_result
from .runner import (
    AppEvaluation,
    AppFailure,
    SuiteReport,
    clear_cache,
    evaluate_app,
    evaluate_app_static,
    geomean,
    run_suite,
    write_report_json,
)

__all__ = [
    "AppEvaluation",
    "AppFailure",
    "SuiteReport",
    "clear_cache",
    "evaluate_app",
    "evaluate_app_static",
    "format_table",
    "geomean",
    "results_dir",
    "run_suite",
    "write_report_json",
    "write_result",
]
