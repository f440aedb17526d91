"""Violation detection, confidence scoring, and anomaly ranking.

A script violates a pattern when it contains part of the pattern but not
all of it. The missing part is the deviation; scripts sharing the exact
same deviation from the same pattern form one deviation class, and the
confidence of the finding is support / (support + class size). Scripts
with no overlap at all - typically near-empty projects - are deliberately
not counted as violators: there is nothing half-followed to point at.

Scripts with one property set deviate alike, so violations are counted per
deviation class over the distinct property sets, in the integer form of
`properties.Vocabulary`; a Violation or Anomaly object is built only when
something reads it.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, groupby
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Sequence

from .errors import InvalidConfig
from .ingest import ScriptSource
from .mining import MiningConfig, Pattern, as_confidence, mine_vocabulary
from .properties import PropertySet, TemporalProperty, Vocabulary, bits


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


@dataclass(frozen=True, eq=False)
class _DeviationClass:
    """The scripts whose deviation from one pattern is one property set."""

    pattern: int  # index into the checked patterns
    deviation: int  # property mask
    units: tuple[int, ...]  # script groups: distinct property sets, or violations
    weight: int  # number of scripts


class _LazySequence(Sequence):
    """A read-only sequence stored as consecutive blocks of known sizes.

    `build(block, start)` makes a block's items, `start` being the index of
    its first; it runs when an item of the block is read. The last block
    built is kept, so iterating or slicing builds each block once.
    """

    def __init__(self, sizes: Iterable[int], build: Callable[[int, int], list]) -> None:
        self._starts = list(accumulate(sizes, initial=0))
        self._build = build
        self._cached: tuple[int, list] = (-1, [])

    def __len__(self) -> int:
        return self._starts[-1]

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(len(self))[index]]
        position = range(len(self))[index]  # IndexError when out of range
        block = bisect_right(self._starts, position) - 1
        if self._cached[0] != block:
            self._cached = (block, self._build(block, self._starts[block]))
        return self._cached[1][position - self._starts[block]]

    def __iter__(self) -> Iterator:
        for block, start in enumerate(self._starts[:-1]):
            yield from self._build(block, start)

    def __repr__(self) -> str:
        return f"<sequence of {len(self)}>"


class DeviationClasses:
    """The violations of the checked patterns, counted per deviation class.

    A pattern is only checked when it has at least min_pattern_size
    properties; a script violates it when it misses between 1 and
    max_deviation_level of its properties and satisfies at least one.
    Each pattern is compared with the distinct property sets only.
    """

    def __init__(self, patterns: Sequence[Pattern], vocab: Vocabulary, config: MiningConfig):
        self.vocab = vocab
        self.patterns = [p for p in patterns if p.size >= config.min_pattern_size]
        self.pattern_masks = [vocab.mask(p.properties) for p in self.patterns]
        self.classes: list[_DeviationClass] = []
        for j, p in enumerate(self.pattern_masks):
            by_deviation: dict[int, list[int]] = {}
            for k, s in enumerate(vocab.masks):
                deviation = p & ~s
                if deviation and p & s and deviation.bit_count() <= config.max_deviation_level:
                    by_deviation.setdefault(deviation, []).append(k)
            for deviation, units in by_deviation.items():
                weight = sum(len(vocab.groups[k]) for k in units)
                self.classes.append(_DeviationClass(j, deviation, tuple(units), weight))

    def violations(self) -> Sequence[Violation]:
        """Pattern by pattern, and in dataset order within a pattern."""
        by_pattern: list[list[_DeviationClass]] = [[] for _ in self.patterns]
        for c in self.classes:
            by_pattern[c.pattern].append(c)
        groups = self.vocab.groups

        def build(j: int, start: int) -> list[Violation]:
            members = [
                (position, c) for c in by_pattern[j] for k in c.units for position in groups[k]
            ]
            return self._build_violations(sorted(members, key=itemgetter(0)))

        return _LazySequence((sum(c.weight for c in cs) for cs in by_pattern), build)

    def anomalies(self, min_confidence: Fraction) -> Sequence[Anomaly]:
        """The violations whose confidence reaches min_confidence, ranked."""
        ranked = _confident_groups(self.classes, [p.support for p in self.patterns], min_confidence)

        def build(g: int, start: int) -> list[Anomaly]:
            order = _group_order(
                ranked[g], self._pattern_ranks, self.vocab.groups, self._ident_ranks
            )
            violations = self._build_violations((position, c) for position, c, _ in order)
            return [
                Anomaly(violation, confidence, c.weight, start + i + 1)
                for i, (violation, (_, c, confidence)) in enumerate(zip(violations, order))
            ]

        return _LazySequence((sum(c.weight for c, _ in group) for group in ranked), build)

    @cached_property
    def _pattern_ranks(self) -> list[int]:
        return _dense_ranks([p.sort_key() for p in self.patterns])

    @cached_property
    def _ident_ranks(self) -> list[int]:
        return _dense_ranks([s.ident for s in self.vocab.scripts])

    def _build_violations(
        self, members: Iterable[tuple[int, _DeviationClass]]
    ) -> list[Violation]:
        """One Violation per (script position, class); a class's property
        sets are decoded once."""
        decoded: dict[_DeviationClass, tuple[Pattern, frozenset, frozenset]] = {}
        built = []
        for position, c in members:
            if c not in decoded:
                satisfied = self.pattern_masks[c.pattern] & ~c.deviation
                decoded[c] = (
                    self.patterns[c.pattern],
                    self.vocab.properties(c.deviation),
                    self.vocab.properties(satisfied),
                )
            pattern, deviation, satisfied = decoded[c]
            script = self.vocab.scripts[position]
            assert script is not None
            built.append(Violation(script, pattern, deviation, satisfied))
        return built


def _dense_ranks(keys: Sequence) -> list[int]:
    """Each key's index among the distinct keys, sorted."""
    rank = {key: r for r, key in enumerate(sorted(set(keys)))}
    return [rank[key] for key in keys]


def _confident_groups(
    classes: Sequence[_DeviationClass], supports: Sequence[int], min_confidence: Fraction
) -> list[list[tuple[_DeviationClass, Fraction]]]:
    """The classes whose confidence support / (support + weight) reaches
    min_confidence, grouped by (confidence, support, deviation size) and
    ordered by confidence descending, support descending, size ascending.

    A confidence is computed once per (support, weight) pair; one support
    with two weights gives two confidences, so ranking the pairs ranks
    (confidence, support)."""
    confidence = {
        (s, w): Fraction(s, s + w) for s, w in {(supports[c.pattern], c.weight) for c in classes}
    }
    rank = {
        pair: r
        for r, pair in enumerate(sorted(confidence, key=lambda p: (-confidence[p], -p[0])))
    }
    keyed = []
    for c in classes:
        pair = (supports[c.pattern], c.weight)
        if confidence[pair] >= min_confidence:
            keyed.append(((rank[pair], c.deviation.bit_count()), c, confidence[pair]))
    keyed.sort(key=itemgetter(0))
    return [
        [(c, confidence) for _, c, confidence in group]
        for _, group in groupby(keyed, key=itemgetter(0))
    ]


def _group_order(
    group: Sequence[tuple[_DeviationClass, Fraction]],
    pattern_ranks: Sequence[int],
    units: Sequence[Sequence[int]],
    ident_ranks: Sequence[int],
) -> list[tuple[int, _DeviationClass, Fraction]]:
    """The anomalies of one group as (script position, class, confidence).

    Inside a group only the script identifier, the pattern's sort key, the
    deviation in property order and, last, the script's position tell
    anomalies apart; they are packed into one integer per anomaly.
    """
    order = _dense_ranks([(pattern_ranks[c.pattern], tuple(bits(c.deviation))) for c, _ in group])
    n_order, n_positions = len(set(order)), len(ident_ranks)
    keyed = [
        ((ident_ranks[position] * n_order + o) * n_positions + position, position, c, confidence)
        for (c, confidence), o in zip(group, order)
        for k in c.units
        for position in units[k]
    ]
    keyed.sort(key=itemgetter(0))
    return [(position, c, confidence) for _, position, c, confidence in keyed]


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
    vocab = Vocabulary.of(property_sets, extra=(q for p in patterns for q in p.properties))
    return list(DeviationClasses(patterns, vocab, config).violations())


def rank_anomalies(violations: Sequence[Violation], config: MiningConfig) -> list[Anomaly]:
    """Score violations, keep the confident ones, and rank them 1..n.

    Order: confidence descending, pattern support descending, deviation
    size ascending, script identifier ascending, then pattern and
    deviation in property order.
    """
    patterns: dict[Pattern, int] = {}
    members: dict[tuple[int, frozenset[TemporalProperty]], list[int]] = {}
    for i, v in enumerate(violations):
        j = patterns.setdefault(v.pattern, len(patterns))
        members.setdefault((j, v.deviation), []).append(i)
    deviations = Vocabulary.of([], extra=(p for _, d in members for p in d))
    classes = [
        _DeviationClass(j, deviations.mask(d), tuple(units), len(units))
        for (j, d), units in members.items()
    ]
    groups = _confident_groups(classes, [p.support for p in patterns], config.min_confidence)
    pattern_ranks = _dense_ranks([p.sort_key() for p in patterns])
    ident_ranks = _dense_ranks([v.script.ident for v in violations])
    singles = [(i,) for i in range(len(violations))]  # each violation its own unit
    ranked: list[Anomaly] = []
    for group in groups:
        for position, c, confidence in _group_order(group, pattern_ranks, singles, ident_ranks):
            ranked.append(Anomaly(violations[position], confidence, c.weight, len(ranked) + 1))
    return ranked


def detect_anomalies(
    property_sets: Sequence[PropertySet], config: MiningConfig
) -> list[Anomaly]:
    """Full detection pass: mine, violate, score, filter, rank."""
    vocab = Vocabulary.of(property_sets)
    patterns = mine_vocabulary(vocab, config.min_support)
    return list(DeviationClasses(patterns, vocab, config).anomalies(config.min_confidence))


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
    confidences = [as_confidence(c, "confidence value") for c in confidence_values]

    vocab = Vocabulary.of(property_sets)
    base = DeviationClasses(mine_vocabulary(vocab, min(supports)), vocab, fixed)
    scored = []
    for c in base.classes:
        support = base.patterns[c.pattern].support
        scored.append((support, Fraction(support, support + c.weight), c.weight))

    cells = []
    for s in supports:
        for c in confidences:
            count = sum(weight for supp, conf, weight in scored if supp >= s and conf >= c)
            cells.append(SweepCell(min_support=s, min_confidence=c, anomalies=count))
    return cells
