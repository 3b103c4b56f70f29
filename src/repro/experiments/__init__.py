"""Experiment harness: runners, calibration, and ASCII reporting (§5)."""

from .calibration import (
    DEFAULT_K_GRID,
    SCALED_HEURISTICS,
    CalibrationTask,
    calibrate,
    calibrate_all,
    calibration_tasks,
    total_states,
)
from .kernel_profile import (
    PROFILE_SORTS,
    KernelProfile,
    ProfileRow,
    profile_point,
)
from .persist import load_series, save_series, series_from_dict, series_to_dict
from .plots import SERIES_MARKS, ascii_chart
from .quality import MatchQuality, evaluate_matching
from .report import (
    ascii_table,
    averages_table,
    cache_summary_table,
    format_states,
    log_bucket,
    series_table,
    stats_table,
    trace_index_table,
)
from .runner import (
    ExperimentPoint,
    ExperimentSeries,
    average_states,
    run_bamm_averages,
    run_bamm_domain,
    run_matching_series,
    run_semantic_series,
)

__all__ = [
    "DEFAULT_K_GRID",
    "SCALED_HEURISTICS",
    "CalibrationTask",
    "calibrate",
    "calibrate_all",
    "calibration_tasks",
    "total_states",
    "PROFILE_SORTS",
    "KernelProfile",
    "ProfileRow",
    "profile_point",
    "load_series",
    "save_series",
    "series_from_dict",
    "series_to_dict",
    "SERIES_MARKS",
    "ascii_chart",
    "MatchQuality",
    "evaluate_matching",
    "ascii_table",
    "averages_table",
    "cache_summary_table",
    "format_states",
    "log_bucket",
    "series_table",
    "stats_table",
    "trace_index_table",
    "ExperimentPoint",
    "ExperimentSeries",
    "average_states",
    "run_bamm_averages",
    "run_bamm_domain",
    "run_matching_series",
    "run_semantic_series",
]
