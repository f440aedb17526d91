"""Violation detection, confidence scoring, and anomaly ranking.

A script violates a pattern when it contains part of the pattern but not
all of it. The missing part is the deviation; scripts sharing the exact
same deviation from the same pattern form one deviation class, and the
confidence of the finding is support / (support + class size). Scripts
with no overlap at all - typically near-empty projects - are deliberately
not counted as violators: there is nothing half-followed to point at.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import InvalidConfig
from .ingest import ScriptSource
from .mining import MiningConfig, Pattern, mine_closed_patterns, _as_fraction
from .properties import PropertySet, TemporalProperty


@dataclass(frozen=True)
class Violation:
    """One script missing part of one pattern."""

    script: ScriptSource
    pattern: Pattern
    deviation: frozenset[TemporalProperty]
    satisfied: frozenset[TemporalProperty]


@dataclass(frozen=True)
class Anomaly:
    """A violation that passed the confidence filter, with its rank."""

    violation: Violation
    confidence: Fraction
    same_deviation_count: int
    rank: int

    @property
    def script(self) -> ScriptSource:
        return self.violation.script

    @property
    def pattern(self) -> Pattern:
        return self.violation.pattern

    @property
    def deviation(self) -> frozenset[TemporalProperty]:
        return self.violation.deviation

    @property
    def satisfied(self) -> frozenset[TemporalProperty]:
        return self.violation.satisfied


def find_violations(
    patterns: Sequence[Pattern],
    property_sets: Sequence[PropertySet],
    config: MiningConfig,
) -> list[Violation]:
    """All (pattern, script) pairs where the script misses part of the pattern.

    A pattern is only checked when it has at least min_pattern_size
    properties; a deviation is only reported when it has between 1 and
    max_deviation_level properties and the script satisfies at least one
    property of the pattern.
    """
    violations: list[Violation] = []
    for pattern in patterns:
        if pattern.size < config.min_pattern_size:
            continue
        for ps in property_sets:
            deviation = pattern.properties - ps.properties
            if not deviation or len(deviation) > config.max_deviation_level:
                continue
            satisfied = pattern.properties & ps.properties
            if not satisfied:
                continue
            assert ps.source is not None
            violations.append(
                Violation(
                    script=ps.source,
                    pattern=pattern,
                    deviation=frozenset(deviation),
                    satisfied=frozenset(satisfied),
                )
            )
    return violations


def _deviation_counts(
    violations: Iterable[Violation],
) -> dict[tuple[Pattern, frozenset[TemporalProperty]], int]:
    """Size of each deviation class.

    Scripts with a set-equal deviation share the same satisfied set and the
    same deviation size, so the per-class filters in find_violations keep
    or drop whole classes; counting inside the violation list therefore
    equals counting over the dataset.
    """
    counts: dict[tuple[Pattern, frozenset[TemporalProperty]], int] = {}
    for v in violations:
        key = (v.pattern, v.deviation)
        counts[key] = counts.get(key, 0) + 1
    return counts


def _anomaly_order(anomaly: Anomaly) -> tuple:
    return (
        -anomaly.confidence,
        -anomaly.pattern.support,
        len(anomaly.deviation),
        anomaly.script.ident,
        anomaly.pattern.sort_key(),
        tuple(sorted(anomaly.deviation)),
    )


def rank_anomalies(violations: Sequence[Violation], config: MiningConfig) -> list[Anomaly]:
    """Score violations, keep the confident ones, and rank them 1..n.

    Order: confidence descending, pattern support descending, deviation
    size ascending, script identifier ascending.
    """
    counts = _deviation_counts(violations)
    scored = []
    for violation in violations:
        v = counts[(violation.pattern, violation.deviation)]
        c = Fraction(violation.pattern.support, violation.pattern.support + v)
        if c >= config.min_confidence:
            scored.append(
                Anomaly(violation=violation, confidence=c, same_deviation_count=v, rank=0)
            )
    scored.sort(key=_anomaly_order)
    return [replace(a, rank=i + 1) for i, a in enumerate(scored)]


def detect_anomalies(
    property_sets: Sequence[PropertySet], config: MiningConfig
) -> list[Anomaly]:
    """Full detection pass: mine, violate, score, filter, rank."""
    patterns = mine_closed_patterns(property_sets, config.min_support)
    violations = find_violations(patterns, property_sets, config)
    return rank_anomalies(violations, config)


@dataclass(frozen=True)
class SweepCell:
    """Anomaly count for one (min_support, min_confidence) grid point."""

    min_support: int
    min_confidence: Fraction
    anomalies: int


def parameter_sweep(
    property_sets: Sequence[PropertySet],
    support_values: Sequence[int],
    confidence_values: Sequence[Fraction | float | str],
    fixed: MiningConfig = MiningConfig(),
) -> list[SweepCell]:
    """Anomaly counts over a support x confidence grid.

    Mining happens once at the smallest support value: whether an itemset
    is closed does not depend on the support threshold, and a violation's
    confidence does not either, so every other cell is a filter over the
    same scored violations. Fixed pattern-size and deviation-level limits
    come from `fixed`.
    """
    if not support_values or not confidence_values:
        raise InvalidConfig("sweep needs at least one support and one confidence value")
    supports = list(support_values)
    for s in supports:
        if isinstance(s, bool) or not isinstance(s, int) or s < 1:
            raise InvalidConfig(f"support values must be positive integers, got {s!r}")
    confidences = [_as_fraction(c) for c in confidence_values]
    for c in confidences:
        if not 0 < c <= 1:
            raise InvalidConfig(f"confidence values must lie in (0, 1], got {c}")

    base = mine_closed_patterns(property_sets, min(supports))
    violations = find_violations(base, property_sets, fixed)
    counts = _deviation_counts(violations)
    scored = [
        (
            v.pattern.support,
            Fraction(v.pattern.support, v.pattern.support + counts[(v.pattern, v.deviation)]),
        )
        for v in violations
    ]

    cells = []
    for s in supports:
        for c in confidences:
            count = sum(1 for supp, conf in scored if supp >= s and conf >= c)
            cells.append(SweepCell(min_support=s, min_confidence=c, anomalies=count))
    return cells
