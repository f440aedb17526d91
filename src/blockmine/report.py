"""Dataset analysis orchestration and report rendering.

The analysis pipeline is: load projects, extract one model per script,
compute property sets, mine closed patterns, score violations, rank
anomalies. Every renderer here is a pure function of the analysis result,
with canonical ordering and stable number formatting, so a report is
byte-identical across runs of the same dataset and configuration.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, replace
from decimal import Decimal
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Sequence, TypeVar

from . import __version__
from .anomalies import Anomaly, DeviationClasses, SweepCell, Violation
from .blocks import table_version
from .ingest import ProjectScripts, RawProject, ScriptSource, Shape, project_scripts
from .mining import MiningConfig, Pattern, mine_vocabulary
from .model import ScriptModel, build_shape_model, model_to_document, model_to_dot
from .properties import (
    PropertySet,
    Vocabulary,
    properties_to_dot,
    property_to_document,
    props,
    sorted_properties,
)


T = TypeVar("T")


# A project as the analysis takes it: loaded, or as the summary
# ingest.iter_project_scripts yields.
Project = RawProject | ProjectScripts


def _summaries(projects: Iterable[Project]) -> Iterator[ProjectScripts]:
    for project in projects:
        yield project if isinstance(project, ProjectScripts) else project_scripts(project)


def _per_shape(
    projects: Iterable[Project], derive: Callable[[Shape], T]
) -> Iterator[tuple[ScriptSource, T]]:
    """(script, derive(shape)) for every script, in dataset order, with
    derive called once per distinct script shape."""
    known: dict[Shape, T] = {}
    for project in _summaries(projects):
        for script, shape in project.scripts:
            value = known.get(shape)
            if value is None:
                value = known[shape] = derive(shape)
            yield script, value


def extract_models(projects: Iterable[Project]) -> list[ScriptModel]:
    """One model per script, in dataset order, in one pass over `projects`
    (RawProjects, or the ProjectScripts of ingest.iter_project_scripts).

    Each distinct script shape (the block structure a model is built from)
    is modelled once, and the scripts of one shape get copies of that
    model carrying their own source. The builder wires join points
    directly, so its models are already epsilon-free.
    """
    return [
        replace(model, source=script)
        for script, model in _per_shape(projects, build_shape_model)
    ]


def extract_property_sets(projects: Iterable[Project]) -> list[PropertySet]:
    """One property set per script, in dataset order, in one pass over
    `projects` (RawProjects, or ProjectScripts).

    Each distinct script shape is modelled once, and its properties are
    taken once: the scripts of one shape share one frozenset of
    properties. Each model is freed as soon as its properties are taken.
    """
    return [
        PropertySet(script, properties)
        for script, properties in _per_shape(
            projects, lambda shape: props(build_shape_model(shape)).properties
        )
    ]


@dataclass(frozen=True)
class DatasetStats:
    """Headline numbers for one analyzed dataset."""

    solutions: int
    models: int
    patterns: int
    violations: int
    anomalies: int
    mean_blocks: float
    mean_scripts: float
    mean_sprites: float


@dataclass(frozen=True)
class AnalysisResult:
    """Everything one pass over a dataset produces.

    `violations` and `anomalies` are read-only sequences: their lengths
    are counted, and their items are built when read.
    """

    property_sets: list[PropertySet]
    patterns: list[Pattern]
    violations: Sequence[Violation]
    anomalies: Sequence[Anomaly]
    stats: DatasetStats


class _Census:
    """Projects, real blocks and sprites, counted as projects pass by."""

    def __init__(self) -> None:
        self.projects = self.blocks = self.sprites = 0

    def count(self, projects: Iterable[Project]) -> Iterator[ProjectScripts]:
        for summary in _summaries(projects):
            self.projects += 1
            self.blocks += summary.blocks
            self.sprites += summary.sprites
            yield summary

    def stats(
        self,
        property_sets: Sequence[PropertySet],
        patterns: Sequence[Pattern],
        violations: Sequence[Violation],
        anomalies: Sequence[Anomaly],
    ) -> DatasetStats:
        n = self.projects
        return DatasetStats(
            solutions=n,
            models=len(property_sets),
            patterns=len(patterns),
            violations=len(violations),
            anomalies=len(anomalies),
            mean_blocks=self.blocks / n if n else 0.0,
            mean_scripts=len(property_sets) / n if n else 0.0,
            mean_sprites=self.sprites / n if n else 0.0,
        )


def compute_stats(
    projects: Iterable[Project],
    property_sets: Sequence[PropertySet],
    patterns: Sequence[Pattern],
    violations: Sequence[Violation],
    anomalies: Sequence[Anomaly],
) -> DatasetStats:
    census = _Census()
    for _ in census.count(projects):
        pass
    return census.stats(property_sets, patterns, violations, anomalies)


def analyze_dataset(projects: Iterable[Project], config: MiningConfig) -> AnalysisResult:
    """Run the whole pipeline in one pass over `projects`.

    `projects` may be any iterable of RawProjects or ProjectScripts, such
    as `iter_dataset`'s or `iter_project_scripts`'s generator: the stats
    are counted in the same pass that takes each script's shape, and no
    project is kept after that, so a streamed classroom is never held in
    memory as a whole.
    """
    census = _Census()
    property_sets = extract_property_sets(census.count(projects))
    vocab = Vocabulary.of(property_sets)
    patterns = mine_vocabulary(vocab, config.min_support)
    classes = DeviationClasses(patterns, vocab, config)
    violations = classes.violations()
    anomalies = classes.anomalies(config.min_confidence)
    stats = census.stats(property_sets, patterns, violations, anomalies)
    return AnalysisResult(
        property_sets=property_sets,
        patterns=patterns,
        violations=violations,
        anomalies=anomalies,
        stats=stats,
    )


def format_confidence(value: Fraction) -> str:
    """Exact rational rendered with four decimal places."""
    return str(
        (Decimal(value.numerator) / Decimal(value.denominator)).quantize(Decimal("0.0001"))
    )


def _round2(value: float) -> float:
    return round(value, 2)


def stats_to_document(stats: DatasetStats) -> dict:
    return {
        "schema_version": 1,
        "kind": "dataset-stats",
        "solutions": stats.solutions,
        "models": stats.models,
        "patterns": stats.patterns,
        "violations": stats.violations,
        "anomalies": stats.anomalies,
        "mean_blocks": _round2(stats.mean_blocks),
        "mean_scripts": _round2(stats.mean_scripts),
        "mean_sprites": _round2(stats.mean_sprites),
    }


def stats_to_text(stats: DatasetStats) -> str:
    lines = [
        f"solutions:      {stats.solutions}",
        f"script models:  {stats.models}",
        f"patterns:       {stats.patterns}",
        f"violations:     {stats.violations}",
        f"anomalies:      {stats.anomalies}",
        f"mean blocks:    {_round2(stats.mean_blocks):.2f}",
        f"mean scripts:   {_round2(stats.mean_scripts):.2f}",
        f"mean sprites:   {_round2(stats.mean_sprites):.2f}",
    ]
    return "\n".join(lines) + "\n"


def _config_document(config: MiningConfig) -> dict:
    return {
        "min_support": config.min_support,
        "min_pattern_size": config.min_pattern_size,
        "max_deviation_level": config.max_deviation_level,
        "min_confidence": str(config.min_confidence),
    }


def _script_document(script: ScriptSource) -> dict:
    return {
        "project": script.project_id,
        "actor": script.actor_name,
        "script_index": script.script_index,
    }


def _pattern_document(pattern: Pattern) -> dict:
    return {
        "support": pattern.support,
        "size": pattern.size,
        "supporter_count": len(pattern.supporters),
        "properties": [property_to_document(p) for p in sorted_properties(pattern.properties)],
    }


def _anomaly_document(anomaly: Anomaly) -> dict:
    return {
        "rank": anomaly.rank,
        "confidence": format_confidence(anomaly.confidence),
        "confidence_exact": str(anomaly.confidence),
        "same_deviation_count": anomaly.same_deviation_count,
        "script": _script_document(anomaly.script),
        "pattern": {"support": anomaly.pattern.support, "size": anomaly.pattern.size},
        "deviation": [property_to_document(p) for p in sorted_properties(anomaly.deviation)],
        "satisfied": [
            property_to_document(p) for p in sorted_properties(anomaly.violation.satisfied)
        ],
    }


@dataclass(frozen=True)
class AnomalyReport:
    """A finished analysis plus the context needed to render it."""

    dataset: str
    config: MiningConfig
    result: AnalysisResult


def report_to_document(report: AnomalyReport, top: int | None = None) -> dict:
    anomalies = report.result.anomalies
    if top is not None:
        anomalies = anomalies[: max(top, 0)]
    return {
        "schema_version": 1,
        "kind": "anomaly-report",
        "generator": {
            "name": "blockmine",
            "version": __version__,
            "opcode_table": table_version(),
        },
        "dataset": report.dataset,
        "config": _config_document(report.config),
        "stats": stats_to_document(report.result.stats),
        "patterns": [_pattern_document(p) for p in report.result.patterns],
        "anomalies": [_anomaly_document(a) for a in anomalies],
    }


def document_to_json(doc: dict) -> str:
    """Canonical JSON text: sorted keys, fixed separators, trailing newline."""
    return json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=True) + "\n"


def report_to_json(report: AnomalyReport, top: int | None = None) -> str:
    return document_to_json(report_to_document(report, top=top))


def report_to_text(report: AnomalyReport, top: int | None = None) -> str:
    result = report.result
    stats = result.stats
    config = report.config
    lines = [
        f"dataset: {report.dataset}",
        (
            f"config: min_support={config.min_support}"
            f" min_confidence={format_confidence(config.min_confidence)}"
            f" min_pattern_size={config.min_pattern_size}"
            f" max_deviation_level={config.max_deviation_level}"
        ),
        (
            f"{stats.solutions} solutions, {stats.models} script models,"
            f" {stats.patterns} patterns, {stats.violations} violations,"
            f" {stats.anomalies} anomalies"
        ),
    ]
    anomalies = result.anomalies
    shown = anomalies if top is None else anomalies[: max(top, 0)]
    if not anomalies:
        lines.append("")
        lines.append("no anomalies at this configuration")
    elif not shown:
        lines.append("")
        lines.append(f"{len(anomalies)} anomalies (hidden by top=0)")
    for anomaly in shown:
        lines.append("")
        lines.append(
            f"#{anomaly.rank}  confidence {format_confidence(anomaly.confidence)}"
            f" ({anomaly.confidence})"
        )
        lines.append(f"    script:  {anomaly.script.ident}")
        lines.append(
            f"    pattern: {anomaly.pattern.size} properties,"
            f" support {anomaly.pattern.support}"
        )
        lines.append(f"    missing ({len(anomaly.deviation)}):")
        for prop in sorted_properties(anomaly.deviation):
            lines.append(f"      {prop.display}")
        lines.append(f"    satisfied ({len(anomaly.violation.satisfied)}):")
        for prop in sorted_properties(anomaly.violation.satisfied):
            lines.append(f"      {prop.display}")
    return "\n".join(lines) + "\n"


def _safe_name(text: str) -> str:
    return re.sub(r"[^A-Za-z0-9.-]+", "_", text).strip("_")


def anomaly_dot_documents(
    anomalies: Sequence[Anomaly], top: int | None = None
) -> list[tuple[str, str]]:
    """(filename, DOT text) per anomaly: pattern digraph, deviation in red."""
    shown = anomalies if top is None else anomalies[: max(top, 0)]
    documents = []
    for anomaly in shown:
        name = f"anomaly_{anomaly.rank:04d}_{_safe_name(anomaly.script.ident)}.dot"
        dot = properties_to_dot(
            anomaly.pattern.properties,
            missing=anomaly.deviation,
            title=f"anomaly {anomaly.rank}: {anomaly.script.ident}",
        )
        documents.append((name, dot))
    return documents


def model_artifacts(
    models: Iterable[ScriptModel], fmt: str = "dot"
) -> list[tuple[str, str]]:
    """(filename, text) per model, for extract-models output."""
    artifacts = []
    used: set[str] = set()
    for model in models:
        ident = model.source.ident if model.source else "model"
        base = _safe_name(ident)
        name = base
        counter = 2
        while name in used:
            name = f"{base}_{counter}"
            counter += 1
        used.add(name)
        if fmt == "dot":
            artifacts.append((name + ".dot", model_to_dot(model)))
        elif fmt == "structured-text":
            artifacts.append((name + ".json", document_to_json(model_to_document(model))))
        else:
            raise ValueError(f"unknown model format: {fmt!r}")
    return artifacts


def sweep_to_csv(cells: Sequence[SweepCell]) -> str:
    lines = ["min_support,min_confidence,anomalies"]
    for cell in cells:
        lines.append(
            f"{cell.min_support},{format_confidence(cell.min_confidence)},{cell.anomalies}"
        )
    return "\n".join(lines) + "\n"


def sweep_to_document(cells: Sequence[SweepCell]) -> dict:
    return {
        "schema_version": 1,
        "kind": "parameter-sweep",
        "cells": [
            {
                "min_support": cell.min_support,
                "min_confidence": format_confidence(cell.min_confidence),
                "anomalies": cell.anomalies,
            }
            for cell in cells
        ],
    }
