"""Experiment harness: runners, calibration, and ASCII reporting (§5)."""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".calibration": (
            "DEFAULT_K_GRID", "SCALED_HEURISTICS", "CalibrationTask",
            "calibrate", "calibration_tasks", "total_states",
        ),
        ".kernel_profile": (
            "PROFILE_SORTS", "KernelProfile", "ProfileRow", "profile_point",
        ),
        ".persist": (
            "load_series", "save_series", "series_from_dict", "series_to_dict",
        ),
        ".plots": ("SERIES_MARKS", "ascii_chart"),
        ".quality": ("MatchQuality", "evaluate_matching"),
        ".report": (
            "ascii_table", "averages_table", "cache_summary_table",
            "format_states", "log_bucket", "series_table", "trace_index_table",
        ),
        ".runner": (
            "ExperimentPoint", "ExperimentSeries", "average_states",
            "run_bamm_domain", "run_matching_series", "run_semantic_series",
        ),
    },
)
