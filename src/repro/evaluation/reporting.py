"""Plain-text rendering of the paper's tables and figure series.

The benchmark harness prints the same rows/series the paper reports; these
helpers keep the formatting in one place so every benchmark output looks the
same and EXPERIMENTS.md can be assembled by copy-paste.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence

from repro.attacks.base import AttackSource, ContextCategory
from repro.evaluation.runner import (
    BASELINE1_NAME,
    BASELINE2_NAME,
    CLAP_NAME,
    ExperimentResults,
    ThroughputResult,
    aggregate_by_category,
    aggregate_by_source,
)


def render_table(headers: Sequence[str], rows: Iterable[Sequence[object]]) -> str:
    """Render a simple aligned text table."""
    rows = [[str(cell) for cell in row] for row in rows]
    widths = [len(header) for header in headers]
    for row in rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    def render_row(cells: Sequence[str]) -> str:
        return " | ".join(cell.ljust(widths[index]) for index, cell in enumerate(cells))

    lines = [render_row(list(headers)), "-+-".join("-" * width for width in widths)]
    lines.extend(render_row(row) for row in rows)
    return "\n".join(lines)


def format_metric(value: float) -> str:
    return f"{value:.3f}"


# ---------------------------------------------------------------------------
# Table 1: detection performance per source paper
# ---------------------------------------------------------------------------

def table1_rows(results: ExperimentResults) -> list[list[str]]:
    """Rows of Table 1: mean AUC/EER per source for each detector."""
    rows: list[list[str]] = []
    for name in (CLAP_NAME, BASELINE1_NAME, BASELINE2_NAME):
        if name not in results.detectors:
            continue
        evaluation = results[name]
        aggregates = aggregate_by_source(evaluation)
        row = [name]
        for source in (AttackSource.SYMTCP, AttackSource.LIBERATE, AttackSource.GENEVA):
            stats = aggregates.get(source)
            if stats is None:
                row.extend(["n/a", "n/a"])
            else:
                row.extend([format_metric(stats["auc"]), format_metric(stats["eer"])])
        rows.append(row)
    return rows


def render_table1(results: ExperimentResults) -> str:
    headers = [
        "Approach",
        "AUC [23]",
        "EER [23]",
        "AUC [10]",
        "EER [10]",
        "AUC [4]",
        "EER [4]",
    ]
    return render_table(headers, table1_rows(results))


# ---------------------------------------------------------------------------
# Table 2: inter- vs intra-packet context breakdown
# ---------------------------------------------------------------------------

def table2_rows(
    results: ExperimentResults,
    categories: Mapping[str, ContextCategory] | None = None,
) -> list[list[str]]:
    rows: list[list[str]] = []
    for name in (CLAP_NAME, BASELINE1_NAME):
        if name not in results.detectors:
            continue
        evaluation = results[name]
        aggregates = aggregate_by_category(evaluation, categories)
        row = [name]
        for category in (ContextCategory.INTER_PACKET, ContextCategory.INTRA_PACKET):
            stats = aggregates.get(category)
            if stats is None:
                row.extend(["n/a", "n/a"])
            else:
                row.extend([format_metric(stats["auc"]), format_metric(stats["eer"])])
        rows.append(row)
    return rows


def render_table2(
    results: ExperimentResults,
    categories: Mapping[str, ContextCategory] | None = None,
) -> str:
    headers = ["Approach", "AUC (inter)", "EER (inter)", "AUC (intra)", "EER (intra)"]
    return render_table(headers, table2_rows(results, categories))


# ---------------------------------------------------------------------------
# Table 3: throughput
# ---------------------------------------------------------------------------

def render_table3(throughputs: dict[str, ThroughputResult]) -> str:
    """Throughput table.  ``Packets/Second`` is steady-state; streaming rows
    report their fixed startup separately (``Setup (s)``) plus the
    setup-inclusive rate (``Total Pkt/s``) the pre-split benchmark printed."""
    headers = [
        "Model",
        "Backend",
        "Mode",
        "Workers",
        "Packets/Second",
        "Connections/Second",
        "Setup (s)",
        "Total Pkt/s",
    ]
    rows = [
        [
            name,
            result.backend,
            result.mode,
            (
                f"{result.workers} ({result.worker_mode})"
                if result.mode == "streaming"
                else str(result.workers)
            ),
            f"{result.packets_per_second:,.1f}",
            f"{result.connections_per_second:,.1f}",
            f"{result.setup_seconds:.3f}" if result.mode == "streaming" else "-",
            (
                f"{result.total_packets_per_second:,.1f}"
                if result.mode == "streaming"
                else "-"
            ),
        ]
        for name, result in throughputs.items()
    ]
    return render_table(headers, rows)


# ---------------------------------------------------------------------------
# Per-strategy series (Figures 7-12)
# ---------------------------------------------------------------------------

def per_strategy_detection_rows(
    results: ExperimentResults, source: AttackSource
) -> list[list[str]]:
    """One row per strategy: AUC for CLAP and both baselines (Figures 7-9)."""
    rows: list[list[str]] = []
    clap = results.detectors.get(CLAP_NAME)
    baseline1 = results.detectors.get(BASELINE1_NAME)
    baseline2 = results.detectors.get(BASELINE2_NAME)
    if clap is None:
        return rows
    for name, evaluation in clap.per_strategy.items():
        if evaluation.source is not source:
            continue
        row = [name, format_metric(evaluation.auc)]
        row.append(
            format_metric(baseline1.per_strategy[name].auc) if baseline1 and name in baseline1.per_strategy else "n/a"
        )
        row.append(
            format_metric(baseline2.per_strategy[name].auc) if baseline2 and name in baseline2.per_strategy else "n/a"
        )
        rows.append(row)
    return rows


def render_per_strategy_detection(results: ExperimentResults, source: AttackSource) -> str:
    headers = ["Strategy", "CLAP AUC", "Baseline #1 AUC", "Baseline #2 AUC"]
    return render_table(headers, per_strategy_detection_rows(results, source))


def per_strategy_localization_rows(
    results: ExperimentResults, source: AttackSource
) -> list[list[str]]:
    """One row per strategy: Top-5/3/1 hit rates (Figures 10-12)."""
    rows: list[list[str]] = []
    clap = results.detectors.get(CLAP_NAME)
    if clap is None:
        return rows
    for name, evaluation in clap.per_strategy.items():
        if evaluation.source is not source or evaluation.localization is None:
            continue
        localization = evaluation.localization
        rows.append(
            [
                name,
                format_metric(localization.top5),
                format_metric(localization.top3),
                format_metric(localization.top1),
            ]
        )
    return rows


def render_per_strategy_localization(results: ExperimentResults, source: AttackSource) -> str:
    headers = ["Strategy", "Top-5", "Top-3", "Top-1"]
    return render_table(headers, per_strategy_localization_rows(results, source))


# ---------------------------------------------------------------------------
# Overall summary (abstract-level numbers)
# ---------------------------------------------------------------------------

def overall_summary(results: ExperimentResults) -> dict[str, float]:
    """Headline numbers: overall AUC/EER per detector plus mean localisation."""
    summary: dict[str, float] = {}
    for name, evaluation in results.detectors.items():
        summary[f"{name} mean AUC"] = evaluation.mean_auc()
        summary[f"{name} mean EER"] = evaluation.mean_eer()
    clap = results.detectors.get(CLAP_NAME)
    if clap is not None:
        localizations = [
            r.localization for r in clap.per_strategy.values() if r.localization is not None
        ]
        if localizations:
            summary["CLAP mean Top-5"] = float(sum(l.top5 for l in localizations) / len(localizations))
            summary["CLAP mean Top-3"] = float(sum(l.top3 for l in localizations) / len(localizations))
            summary["CLAP mean Top-1"] = float(sum(l.top1 for l in localizations) / len(localizations))
    return summary
