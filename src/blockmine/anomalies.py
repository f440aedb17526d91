"""Violation detection, confidence scoring, and anomaly ranking.

A script violates a pattern when it contains part of the pattern but not
all of it. The missing part is the deviation; scripts sharing the exact
same deviation from the same pattern form one deviation class, and the
confidence of the finding is support / (support + class size). Scripts
with no overlap at all - typically near-empty projects - are deliberately
not counted as violators: there is nothing half-followed to point at.

Scripts with one property set deviate alike, so violations are counted per
deviation class over the distinct property sets, in the integer form of
`properties.Vocabulary`. A class is three numbers, so memory grows with the
classes, not with the violating scripts; its scripts are found, and a
Violation or Anomaly object built, only when something reads them. A
pattern's classes are one run of the class list, read alone for its
violations. Confident classes are filed under their group key in one pass;
a group is one (support, weight) pair, so one weight. A group's anomalies
are ordered when it is read, by a key built from that group alone, so
reading the top anomalies touches only the patterns and scripts they name.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cmp_to_key, lru_cache
from itertools import accumulate, pairwise
from operator import itemgetter
from typing import Callable, Collection, Iterable, Iterator, NamedTuple, Sequence

from .errors import InvalidConfig
from .ingest import ScriptSource
from .mining import MiningConfig, Pattern, as_confidence, as_count, mine_vocabulary
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


class _DeviationClass(NamedTuple):
    """How many scripts deviate from one pattern by one property set.

    A pattern has one class per deviation, so the three numbers identify
    a class and it can key a dict by value.
    """

    pattern: int  # index into the checked patterns
    deviation: int  # property mask
    weight: int  # number of scripts


class _LazySequence(Sequence):
    """A read-only sequence stored as consecutive blocks of known sizes.

    `build(block, start)` makes a block's items, `start` being the index of
    its first; it runs when an item of the block is read. The last block
    built is kept, so iterating or slicing builds each block once.
    """

    def __init__(self, sizes: Iterable[int], build: Callable[[int, int], list]) -> None:
        self._starts = starts = list(accumulate(sizes, initial=0))
        self._build = build
        self._block = lru_cache(maxsize=1)(lambda block: build(block, starts[block]))

    def __len__(self) -> int:
        return self._starts[-1]

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(len(self))[index]]
        position = range(len(self))[index]  # IndexError when out of range
        block = bisect_right(self._starts, position) - 1
        return self._block(block)[position - self._starts[block]]

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
    Each pattern is compared with the distinct property sets only; a
    class's sets are found again from `Vocabulary.item_tids` when read.
    The classes come pattern by pattern: those of checked pattern j are
    `classes[runs[j]:runs[j + 1]]`.
    """

    def __init__(self, patterns: Sequence[Pattern], vocab: Vocabulary, config: MiningConfig):
        self.vocab = vocab
        self.patterns = [p for p in patterns if p.size >= config.min_pattern_size]
        self.pattern_masks = [vocab.mask(p.properties) for p in self.patterns]
        self.classes: list[_DeviationClass] = []
        self.runs = [0]
        for j, p in enumerate(self.pattern_masks):
            by_deviation: dict[int, int] = {}
            for s, weight in zip(vocab.masks, vocab.weights):
                deviation = p & ~s
                if deviation and p & s and deviation.bit_count() <= config.max_deviation_level:
                    by_deviation[deviation] = by_deviation.get(deviation, 0) + weight
            self.classes.extend(_DeviationClass(j, d, w) for d, w in by_deviation.items())
            self.runs.append(len(self.classes))

    def violations(self) -> Sequence[Violation]:
        """Pattern by pattern, and in dataset order within a pattern."""
        classes, runs = self.classes, self.runs

        def build(j: int, start: int) -> list[Violation]:
            return self._build_violations(self._members(classes[runs[j] : runs[j + 1]]))

        weights = (sum(c.weight for c in classes[a:b]) for a, b in pairwise(runs))
        return _LazySequence(weights, build)

    def anomalies(self, min_confidence: Fraction) -> Sequence[Anomaly]:
        """The violations whose confidence reaches min_confidence, ranked.
        Classes are filed under their group key in one pass; a group is one
        weight, so its size is read from one class."""
        ranked = _confident_groups(self.classes, [p.support for p in self.patterns], min_confidence)

        def build(g: int, start: int) -> list[Anomaly]:
            confidence, group = ranked[g]
            order = _group_order(group, self._members(group), self.patterns, self.vocab.scripts)
            violations = self._build_violations(order)
            return [
                Anomaly(violation, confidence, c.weight, start + i + 1)
                for i, (violation, (_, c)) in enumerate(zip(violations, order))
            ]

        return _LazySequence((len(group) * group[0].weight for _, group in ranked), build)

    def _members(self, classes: Iterable[_DeviationClass]) -> list[tuple[int, _DeviationClass]]:
        """(script position, class) for every script of `classes`, by
        position. A class's sets hold the items of its pattern outside its
        deviation, and none inside."""
        item_tids, groups = self.vocab.item_tids, self.vocab.groups
        every = (1 << len(groups)) - 1
        members = []
        for c in classes:
            tids = every
            for i in bits(self.pattern_masks[c.pattern]):
                tids &= ~item_tids[i] if c.deviation >> i & 1 else item_tids[i]
            members.extend((position, c) for k in bits(tids) for position in groups[k])
        members.sort(key=itemgetter(0))
        return members

    def _build_violations(self, members: Iterable[tuple[int, _DeviationClass]]) -> list[Violation]:
        """One Violation per (script position, class); a class's property
        sets are decoded once."""
        properties, scripts = self.vocab.properties, self.vocab.scripts

        @cache
        def decoded(c: _DeviationClass) -> tuple[Pattern, frozenset, frozenset]:
            satisfied = self.pattern_masks[c.pattern] & ~c.deviation
            return self.patterns[c.pattern], properties(c.deviation), properties(satisfied)

        return [Violation(scripts[position], *decoded(c)) for position, c in members]


def _passes(min_confidence: Fraction) -> Callable[[int, int], bool]:
    """Whether support s and weight w give a confidence s / (s + w) of at
    least min_confidence, tested without building a Fraction."""
    num, den = min_confidence.numerator, min_confidence.denominator
    return lambda s, w: s * den >= num * (s + w)


def _by_confidence(a: tuple[int, int], b: tuple[int, int]) -> int:
    """Compare (support, weight) pairs by confidence s / (s + w) descending,
    then support descending, in integers: s1 / (s1 + w1) > s2 / (s2 + w2)
    exactly when s1 * w2 > s2 * w1."""
    (s1, w1), (s2, w2) = a, b
    return s2 * w1 - s1 * w2 or s2 - s1


def _confident_groups(
    classes: Collection[_DeviationClass], supports: Sequence[int], min_confidence: Fraction
) -> list[tuple[Fraction, list[_DeviationClass]]]:
    """The classes whose confidence support / (support + weight) reaches
    min_confidence, grouped by (confidence, support, deviation size) and
    ordered by confidence descending, support descending, size ascending.

    The threshold is tested once per (support, weight) pair and the pairs
    are ordered by cross-multiplying, all in integers; one support with two
    weights gives two confidences, so ranking the pairs ranks (confidence,
    support), and a Fraction is built once per passing pair. Each passing
    class is filed under its (rank, size) key in one pass, in class order;
    only the keys are sorted. A group is one pair, so one weight."""
    passes = _passes(min_confidence)
    ordered = sorted(
        (pair for pair in {(supports[c.pattern], c.weight) for c in classes} if passes(*pair)),
        key=cmp_to_key(_by_confidence),
    )
    rank = {pair: r for r, pair in enumerate(ordered)}
    groups: dict[tuple[int, int], list[_DeviationClass]] = {}
    for c in classes:
        r = rank.get((supports[c.pattern], c.weight))
        if r is not None:
            groups.setdefault((r, c.deviation.bit_count()), []).append(c)
    confidences = [Fraction(s, s + w) for s, w in ordered]
    return [(confidences[r], groups[r, n]) for r, n in sorted(groups)]


def _group_order(
    group: Sequence[_DeviationClass],
    members: Iterable[tuple[int, _DeviationClass]],
    patterns: Sequence[Pattern],
    scripts: Sequence[ScriptSource],
) -> list[tuple[int, _DeviationClass]]:
    """The (position, class) `members` of one group's classes in rank order.

    Inside a group only the script identifier, the pattern's sort key, the
    deviation in property order and, last, the position (an index into
    `scripts`) tell anomalies apart. The key is built from the group's own
    classes and members, so ordering a group reads only their patterns and
    scripts.
    """
    order = {c: (patterns[c.pattern].sort_key(), tuple(bits(c.deviation))) for c in group}
    return sorted(members, key=lambda m: (scripts[m[0]].ident, order[m[1]], m[0]))


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
    deviation in property order. Every violation must name its script,
    and no two the same script and pattern: a script is counted once.
    """
    scripts = Vocabulary.named(v.script for v in violations)
    patterns: dict[Pattern, int] = {}
    members: dict[tuple[int, frozenset[TemporalProperty]], list[int]] = {}
    seen: set[tuple[ScriptSource, int]] = set()
    for i, v in enumerate(violations):
        j = patterns.setdefault(v.pattern, len(patterns))
        members.setdefault((j, v.deviation), []).append(i)
        seen.add((v.script, j))
        if len(seen) == i:  # the pair was seen before
            raise ValueError(f"two violations of one pattern have the script {v.script!r}")
    deviations = Vocabulary.of([], extra=(p for _, d in members for p in d))
    indices = {  # each class's violations, by index
        _DeviationClass(j, deviations.mask(d), len(found)): found
        for (j, d), found in members.items()
    }
    by_index = list(patterns)
    groups = _confident_groups(indices, [p.support for p in by_index], config.min_confidence)
    ranked: list[Anomaly] = []
    for confidence, group in groups:
        pairs = [(i, c) for c in group for i in indices[c]]
        for i, c in _group_order(group, pairs, by_index, scripts):
            ranked.append(Anomaly(violations[i], confidence, c.weight, len(ranked) + 1))
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
    supports = [as_count(s, "support value") for s in support_values]
    confidences = [as_confidence(c, "confidence value") for c in confidence_values]

    vocab = Vocabulary.of(property_sets)
    base = DeviationClasses(mine_vocabulary(vocab, min(supports)), vocab, fixed)
    # Classes with one (support, weight) pair pass or fail together.
    scripts: dict[tuple[int, int], int] = {}
    for c in base.classes:
        pair = (base.patterns[c.pattern].support, c.weight)
        scripts[pair] = scripts.get(pair, 0) + c.weight

    tests = [(c, _passes(c)) for c in confidences]
    cells = []
    for s in supports:
        for c, passes in tests:
            count = sum(n for (supp, w), n in scripts.items() if supp >= s and passes(supp, w))
            cells.append(SweepCell(min_support=s, min_confidence=c, anomalies=count))
    return cells
