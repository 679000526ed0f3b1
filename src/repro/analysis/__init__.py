"""Analysis helpers: aggregation across runs and table rendering."""

from repro._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".fairness": (
            "jain_index",
            "LatencyFairness",
            "slot_latency_fairness",
            "deadline_miss_rate",
        ),
        ".decomposition": (
            "Decomposition",
            "seasonal_decompose",
            "periodicity_strength",
        ),
        ".aggregate": (
            "RunStatistics",
            "summarize_runs",
            "bootstrap_ci",
            "paired_ratio",
        ),
        ".tables": ("format_table",),
        ".equilibrium": ("estimate_equilibrium_backlog", "mean_cost_at_backlog"),
        ".text_plots": ("sparkline", "line_chart"),
    },
)
