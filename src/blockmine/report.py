"""Dataset analysis orchestration and report rendering.

The analysis pipeline is: load projects, extract one model per distinct
script shape, compute property sets, mine closed patterns, score
violations, rank anomalies. Every renderer here is a pure function of the
analysis result, with canonical ordering and stable number formatting, so
a report is byte-identical across runs of the same dataset and
configuration.

A report document builds each distinct property's document once and gives
every occurrence its own copy. JSON text is
`json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=True)` and a
newline, written on every Python version by one writer, `_write_json`,
that can start at any depth of a document.

An anomaly report is also written as a stream of text pieces, one per
top-level section and one per pattern or anomaly, so that no document list
and no whole-report string is held (`_json_chunks`, `_text_chunks`; the
command line writes these). Each piece of the JSON stream is written at
its own depth. `report_to_json` and `report_to_text` are the join of the
same pieces.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from decimal import Decimal
from fractions import Fraction
from functools import cache
from json.encoder import encode_basestring_ascii
from math import inf
from typing import Callable, Iterable, Iterator, Sequence, TypeVar

from . import __version__
from .anomalies import Anomaly, DeviationClasses, SweepCell, Violation
from .blocks import table_version
from .ingest import ProjectScripts, RawProject, ScriptSource, Shape, project_scripts
from .mining import MiningConfig, Pattern, mine_vocabulary
from .model import ScriptModel, _script_document, build_shape_model, model_to_document, model_to_dot
from .properties import (
    PropertySet,
    TemporalProperty,
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
    derive = cache(derive)
    for project in _summaries(projects):
        for script, shape in project.scripts:
            yield script, derive(shape)


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


def stats_to_document(stats: DatasetStats) -> dict:
    return {
        "schema_version": 1,
        "kind": "dataset-stats",
        "solutions": stats.solutions,
        "models": stats.models,
        "patterns": stats.patterns,
        "violations": stats.violations,
        "anomalies": stats.anomalies,
        "mean_blocks": round(stats.mean_blocks, 2),
        "mean_scripts": round(stats.mean_scripts, 2),
        "mean_sprites": round(stats.mean_sprites, 2),
    }


def stats_to_text(stats: DatasetStats) -> str:
    lines = [
        f"solutions:      {stats.solutions}",
        f"script models:  {stats.models}",
        f"patterns:       {stats.patterns}",
        f"violations:     {stats.violations}",
        f"anomalies:      {stats.anomalies}",
        f"mean blocks:    {round(stats.mean_blocks, 2):.2f}",
        f"mean scripts:   {round(stats.mean_scripts, 2):.2f}",
        f"mean sprites:   {round(stats.mean_sprites, 2):.2f}",
    ]
    return "\n".join(lines) + "\n"


def _config_document(config: MiningConfig) -> dict:
    return {
        "min_support": config.min_support,
        "min_pattern_size": config.min_pattern_size,
        "max_deviation_level": config.max_deviation_level,
        "min_confidence": str(config.min_confidence),
    }


def _pattern_document(pattern: Pattern, listed: Callable[..., list[dict]]) -> dict:
    return {
        "support": pattern.support,
        "size": pattern.size,
        "supporter_count": len(pattern.supporters),
        "properties": listed(pattern.properties),
    }


def _anomaly_document(anomaly: Anomaly, listed: Callable[..., list[dict]]) -> dict:
    return {
        "rank": anomaly.rank,
        "confidence": format_confidence(anomaly.confidence),
        "confidence_exact": str(anomaly.confidence),
        "same_deviation_count": anomaly.same_deviation_count,
        "script": _script_document(anomaly.script),
        "pattern": {"support": anomaly.pattern.support, "size": anomaly.pattern.size},
        "deviation": listed(anomaly.deviation),
        "satisfied": listed(anomaly.violation.satisfied),
    }


@dataclass(frozen=True)
class AnomalyReport:
    """A finished analysis plus the context needed to render it."""

    dataset: str
    config: MiningConfig
    result: AnalysisResult


def _report_sections(report: AnomalyReport, top: int | None) -> dict[str, object]:
    """The top-level sections of an anomaly report. `patterns` and
    `anomalies` are iterators that build each item's document as it is
    read; the other sections are values."""
    anomalies = report.result.anomalies
    if top is not None:
        anomalies = anomalies[: max(top, 0)]
    # Built once per report; every occurrence gets its own copy.
    document = cache(property_to_document)

    def listed(properties: Iterable[TemporalProperty]) -> list[dict]:
        return [document(p).copy() for p in sorted_properties(properties)]

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
        "patterns": (_pattern_document(p, listed) for p in report.result.patterns),
        "anomalies": (_anomaly_document(a, listed) for a in anomalies),
    }


def report_to_document(report: AnomalyReport, top: int | None = None) -> dict:
    return {
        key: list(value) if isinstance(value, Iterator) else value
        for key, value in _report_sections(report, top).items()
    }


def _json_float(value: float) -> str:
    if value != value:
        return "NaN"
    if value == inf:
        return "Infinity"
    if value == -inf:
        return "-Infinity"
    return float.__repr__(value)


def _json_key(key: object) -> str:
    if isinstance(key, str):
        return key
    if isinstance(key, float):
        return _json_float(key)
    if key is True:
        return "true"
    if key is False:
        return "false"
    if key is None:
        return "null"
    if isinstance(key, int):
        return int.__repr__(key)
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")


def _write_json(o: object, depth: int, append: Callable[[str], object]) -> None:
    """Append `o` as `json.dumps(o, sort_keys=True, indent=2,
    ensure_ascii=True)` writes it nested `depth` levels deep: each of its
    line breaks is followed by `2 * depth` more spaces.

    Strings go through the C `encode_basestring_ascii`; `json.dumps` falls
    back to its pure-Python encoder for `indent` before Python 3.13.
    """
    if isinstance(o, str):
        append(encode_basestring_ascii(o))
    elif o is None:
        append("null")
    elif o is True:
        append("true")
    elif o is False:
        append("false")
    elif isinstance(o, int):
        append(int.__repr__(o))
    elif isinstance(o, float):
        append(_json_float(o))
    elif isinstance(o, (list, tuple, dict)):
        if not o:
            append("{}" if isinstance(o, dict) else "[]")
            return
        close = "\n" + "  " * depth
        separator = close + "  "
        comma = "," + separator
        depth += 1
        if isinstance(o, dict):
            append("{")
            for key, item in sorted(o.items()):
                append(separator)
                separator = comma
                append(encode_basestring_ascii(_json_key(key)))
                append(": ")
                _write_json(item, depth, append)
            append(close + "}")
        else:
            append("[")
            for item in o:
                append(separator)
                separator = comma
                _write_json(item, depth, append)
            append(close + "]")
    else:
        raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")


def document_to_json(doc: dict) -> str:
    """Canonical JSON text: `json.dumps(doc, sort_keys=True, indent=2,
    ensure_ascii=True)` and a newline, byte for byte."""
    out: list[str] = []
    _write_json(doc, 0, out.append)
    out.append("\n")
    return "".join(out)


def _json_chunks(report: AnomalyReport, top: int | None) -> Iterator[str]:
    """`document_to_json(report_to_document(report, top))` in pieces: one
    per top-level key, one per scalar section (written at depth 1), one per
    pattern or anomaly (written at depth 2 after its list separator), one
    closing per list and the document's closing."""
    sections = _report_sections(report, top)
    out: list[str] = []
    append = out.append
    separator = "{\n  "
    for key in sorted(sections):
        value = sections[key]
        yield f"{separator}{encode_basestring_ascii(key)}: "
        separator = ",\n  "
        if isinstance(value, Iterator):
            item_separator = "[\n    "
            for item in value:
                append(item_separator)
                item_separator = ",\n    "
                _write_json(item, 2, append)
                yield "".join(out)
                out.clear()
            yield "[]" if item_separator == "[\n    " else "\n  ]"
        else:
            _write_json(value, 1, append)
            yield "".join(out)
            out.clear()
    yield "\n}\n"


def _text_chunks(report: AnomalyReport, top: int | None) -> Iterator[str]:
    """The text report in pieces: the header, then one per shown anomaly."""
    result = report.result
    stats = result.stats
    config = report.config
    yield (
        f"dataset: {report.dataset}\n"
        f"config: min_support={config.min_support}"
        f" min_confidence={format_confidence(config.min_confidence)}"
        f" min_pattern_size={config.min_pattern_size}"
        f" max_deviation_level={config.max_deviation_level}\n"
        f"{stats.solutions} solutions, {stats.models} script models,"
        f" {stats.patterns} patterns, {stats.violations} violations,"
        f" {stats.anomalies} anomalies\n"
    )
    anomalies = result.anomalies
    shown = anomalies if top is None else anomalies[: max(top, 0)]
    if not anomalies:
        yield "\nno anomalies at this configuration\n"
    elif not shown:
        yield f"\n{len(anomalies)} anomalies (hidden by top=0)\n"
    for anomaly in shown:
        lines = [
            "",
            f"#{anomaly.rank}  confidence {format_confidence(anomaly.confidence)}"
            f" ({anomaly.confidence})",
            f"    script:  {anomaly.script.ident}",
            f"    pattern: {anomaly.pattern.size} properties,"
            f" support {anomaly.pattern.support}",
            f"    missing ({len(anomaly.deviation)}):",
            *(f"      {prop.display}" for prop in sorted_properties(anomaly.deviation)),
            f"    satisfied ({len(anomaly.violation.satisfied)}):",
            *(f"      {prop.display}" for prop in sorted_properties(anomaly.violation.satisfied)),
        ]
        yield "\n".join(lines) + "\n"


def report_to_json(report: AnomalyReport, top: int | None = None) -> str:
    return "".join(_json_chunks(report, top))


def report_to_text(report: AnomalyReport, top: int | None = None) -> str:
    return "".join(_text_chunks(report, top))


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
