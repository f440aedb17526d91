"""The traced run: the CLI's pipeline, one public call at a time, in spans.

Spans are recorded from here, around each call into a layer, and kept in
memory until the run ends. A span's self time is its duration minus the
time its child spans cover. The traced run renders the same bytes as the
untraced CLI run; the benchmark checks that.
"""

from __future__ import annotations

import json
import resource
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path
from time import perf_counter

from blockmine import (
    AnalysisResult,
    AnomalyReport,
    MiningConfig,
    build_script_model,
    compute_stats,
    eliminate_epsilon,
    enumerate_scripts,
    find_violations,
    load_dataset,
    mine_closed_patterns,
    parameter_sweep,
    props,
    rank_anomalies,
    report_to_json,
    sweep_to_csv,
)
from blockmine.cli import build_parser

from workloads import DATASET, Workload

# The CLI's default sweep grid of confidences, 0.1 to 0.9.
SWEEP_CONFIDENCES = [Fraction(i, 10) for i in range(1, 10)]


class Tracer:
    """In-memory spans: name, start, end, parent span index, run id."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append({"run": self.run_id, "id": index, "name": name, "parent": parent})
        self._open.append(index)
        self.spans[index]["start"] = perf_counter()
        try:
            yield
        finally:
            self.spans[index]["end"] = perf_counter()
            self._open.pop()

    def _self_time(self, span: dict) -> float:
        """Duration minus the children's (spans nest strictly, so children
        never overlap one another)."""
        children = (c["end"] - c["start"] for c in self.spans if c["parent"] == span["id"])
        return span["end"] - span["start"] - sum(children)

    def self_times(self) -> dict[str, float]:
        """Self time summed per span name."""
        totals: dict[str, float] = {}
        for span in self.spans:
            totals[span["name"]] = totals.get(span["name"], 0.0) + self._self_time(span)
        return totals

    def write(self, path: Path) -> None:
        """One JSON line per span, with its self time."""
        with path.open("w", encoding="utf-8") as f:
            for span in self.spans:
                f.write(json.dumps({**span, "self_s": self._self_time(span)}) + "\n")


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def traced_run(workload: Workload, out: str, run_id: str) -> tuple[dict, Tracer]:
    """Run the workload's pipeline under spans; write its output to `out`.

    Returns the per-layer counts (span times are read from the tracer).
    Must be called from the directory that holds the classroom.
    """
    args = build_parser().parse_args(workload.cli_argv(out))
    default = MiningConfig()
    tracer = Tracer(run_id)
    span = tracer.span
    n: dict[str, float] = {}
    with span("cli"):
        with span("ingest.load"):
            projects = load_dataset(DATASET)
        n["ingest.rss_mb"] = _rss_mb()
        with span("ingest.enumerate"):
            scripts = [(s, p) for p in projects for s in enumerate_scripts(p)]
        with span("model.build"):
            built = [build_script_model(s, p) for s, p in scripts]
        with span("model.epsilon"):
            models = [eliminate_epsilon(m) for m in built]
        with span("properties.props"):
            sets = [props(m) for m in models]
        n["properties.rss_mb"] = _rss_mb()

        if workload.is_sweep:
            supports = [int(s) for s in args.supports.split(",")]
            config = MiningConfig(
                min_support=min(supports),
                max_deviation_level=args.max_deviation,
                min_confidence=min(SWEEP_CONFIDENCES),
            )
        else:
            config = MiningConfig(
                min_support=args.min_support or default.min_support,
                min_confidence=Fraction(args.min_confidence or default.min_confidence),
            )
        # A sweep mines inside parameter_sweep; these two spans time the
        # same work at its lowest support on their own.
        with span("mining.mine"):
            patterns = mine_closed_patterns(sets, config.min_support)
        n["mining.rss_mb"] = _rss_mb()
        with span("anomalies.violations"):
            violations = find_violations(patterns, sets, config)
        if workload.is_sweep:
            with span("anomalies.sweep"):
                cells = parameter_sweep(sets, supports, SWEEP_CONFIDENCES, config)
            n["anomalies.anomalies"] = max(c.anomalies for c in cells)
            n["anomalies.sweep_cells"] = len(cells)
            n["anomalies.rss_mb"] = _rss_mb()
            with span("report.render"):
                text = sweep_to_csv(cells)
        else:
            with span("anomalies.rank"):
                anomalies = rank_anomalies(violations, config)
            n["anomalies.anomalies"] = len(anomalies)
            n["anomalies.sweep_cells"] = 0
            n["anomalies.rss_mb"] = _rss_mb()
            with span("report.stats"):
                stats = compute_stats(projects, sets, patterns, violations, anomalies)
            with span("report.render"):
                result = AnalysisResult(sets, patterns, violations, anomalies, stats)
                report = AnomalyReport(dataset=args.dataset, config=config, result=result)
                text = report_to_json(report, top=10 if args.top is None else args.top)
        Path(out).write_text(text, encoding="utf-8")

    archives = [p for p in Path(DATASET).iterdir() if p.suffix == ".sb3"]
    checked = sum(1 for p in patterns if p.size >= config.min_pattern_size)
    n.update({
        "ingest.projects": len(projects),
        "ingest.skipped": len(archives) - len(projects),
        "ingest.blocks": sum(p.block_count() for p in projects),
        "ingest.scripts": len(scripts),
        "model.transitions": sum(len(m.transitions) for m in models),
        "model.epsilon_changed_ratio": sum(
            (b.entry, b.exits, b.transitions) != (m.entry, m.exits, m.transitions)
            for b, m in zip(built, models)
        ) / len(models),
        "properties.pairs": sum(len(s.properties) for s in sets),
        "properties.items": len({p for s in sets for p in s.properties}),
        "properties.distinct_sets": len({s.properties for s in sets}),
        "properties.distinct_ratio": len({s.properties for s in sets}) / len(sets),
        "mining.patterns": len(patterns),
        "mining.patterns_checked": checked,
        "anomalies.pairs_checked": checked * len(sets),
        "anomalies.violations": len(violations),
        "anomalies.deviation_classes": len({(id(v.pattern), v.deviation) for v in violations}),
        "report.bytes": len(text.encode("utf-8")),
    })
    n["anomalies.violation_yield"] = n["anomalies.violations"] / max(n["anomalies.pairs_checked"], 1)
    n["anomalies.anomaly_yield"] = n["anomalies.anomalies"] / max(n["anomalies.violations"], 1)
    return n, tracer
