"""Benchmark harness regenerating every table and figure of the paper.

One :func:`~repro.bench.runner.get_context` call builds all datasets
and indexes; the per-figure drivers consume it:

=========  ====================================  =========================
Exp.       Driver                                Bench file
=========  ====================================  =========================
Table 1    :mod:`repro.bench.datasets_table`     bench_table1_datasets.py
Figure 3   :mod:`repro.bench.prints_fig3`        bench_fig3_prints.py
Figure 4   :mod:`repro.bench.entropy_fig4`       bench_fig4_entropy_cdf.py
Figure 5   :mod:`repro.bench.size_time`          bench_fig5_size_time.py
Figure 6   :mod:`repro.bench.size_time`          bench_fig6_overhead.py
Figure 7   :mod:`repro.bench.size_time`          bench_fig7_overhead_entropy.py
Figures    :mod:`repro.bench.queries_fig8_11`    bench_fig8..11_*.py
8-11
=========  ====================================  =========================

The exports below load lazily (PEP 562): importing a submodule such as
:mod:`repro.bench.regression` does not load every figure driver, and
``from repro.bench import get_context`` loads only the module that
defines it.
"""

from __future__ import annotations

import importlib

#: Exported name -> the submodule defining it.
_EXPORTS = {
    **dict.fromkeys(("render_table1", "table1_rows"), "datasets_table"),
    **dict.fromkeys(("entropy_cdf_rows", "render_fig4"), "entropy_fig4"),
    **dict.fromkeys(
        ("FIG3_COLUMNS", "fig3_entropies", "render_fig3"), "prints_fig3"
    ),
    **dict.fromkeys(
        (
            "QueryMeasurement", "fig8_rows", "fig9_rows", "fig10_rows",
            "fig11_rows", "render_fig8", "render_fig9", "render_fig10",
            "render_fig11", "run_query_sweep",
        ),
        "queries_fig8_11",
    ),
    **dict.fromkeys(
        (
            "kernel_study_rows", "query_compressed", "query_expanded",
            "render_kernel_study",
        ),
        "query_kernels",
    ),
    **dict.fromkeys(
        (
            "render_throughput_study", "run_throughput_study",
            "throughput_workload",
        ),
        "throughput",
    ),
    **dict.fromkeys(
        ("METHODS", "BenchContext", "BuiltColumn", "get_context", "time_call"),
        "runner",
    ),
    **dict.fromkeys(
        (
            "fig5_rows", "fig5_summary", "fig6_rows", "fig7_rows",
            "render_fig5", "render_fig6", "render_fig7",
        ),
        "size_time",
    ),
    **dict.fromkeys(
        ("format_bytes", "format_seconds", "format_table"), "tables"
    ),
}
__all__ = list(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))

