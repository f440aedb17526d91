"""Closed frequent pattern mining over script property sets.

Each script is a transaction whose items are its temporal properties. A
pattern is frequent when at least `min_support` scripts contain all of its
properties, and closed when no strict superset has the same support.
Mining only closed patterns loses nothing - every frequent pattern's
support is that of its closure - while keeping reports free of redundant
subsets.
"""

from __future__ import annotations

from collections.abc import Iterator, Set as AbstractSet
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from typing import Iterable, Sequence

from .errors import InvalidConfig
from .ingest import ScriptSource
from .properties import PropertySet, TemporalProperty, Vocabulary, bits


def as_confidence(value: object, name: str) -> Fraction:
    """`value` as an exact confidence: a number in (0, 1], not a bool.

    Floats go through their decimal text, so that 0.9 means nine tenths,
    not the nearest binary double. Raises InvalidConfig naming `name`.
    """
    # bool is a subclass of int, but True is not the confidence 1.
    if isinstance(value, bool):
        raise InvalidConfig(f"{name} is not a number: {value!r}")
    try:
        confidence = Fraction(str(value)) if isinstance(value, float) else Fraction(value)
    except (ValueError, ZeroDivisionError, TypeError) as exc:
        raise InvalidConfig(f"{name} is not a number: {value!r}") from exc
    if not 0 < confidence <= 1:
        raise InvalidConfig(f"{name} must lie in (0, 1], got {confidence}")
    return confidence


@dataclass(frozen=True)
class MiningConfig:
    """Detection parameters; defaults follow the standard classroom setting."""

    min_support: int = 20
    min_pattern_size: int = 2
    max_deviation_level: int = 10000
    min_confidence: Fraction = Fraction(9, 10)

    def __post_init__(self) -> None:
        for name in ("min_support", "min_pattern_size", "max_deviation_level"):
            value = getattr(self, name)
            # bool is a subclass of int, but True is not a count.
            if isinstance(value, bool) or not isinstance(value, int) or value < 1:
                raise InvalidConfig(f"{name} must be a positive integer, got {value!r}")
        confidence = as_confidence(self.min_confidence, "min_confidence")
        object.__setattr__(self, "min_confidence", confidence)


# Default parameters for a full-size course, and the documented preset for
# small courses with few solutions per task. Presets are only ever applied
# when asked for; nothing adapts thresholds behind the user's back.
STANDARD_CONFIG = MiningConfig()
SMALL_CLASS_CONFIG = MiningConfig(min_support=10, min_confidence=Fraction(7, 10))
PRESETS = {"standard": STANDARD_CONFIG, "small-class": SMALL_CLASS_CONFIG}


class Supporters(AbstractSet):
    """The scripts of the distinct property sets in a tid mask, as a
    read-only set.

    The members are looked up only when the set is iterated, searched or
    hashed, and then kept. Its length is the mask's weight when every
    script of the vocabulary is a different one, so taking it builds
    nothing. It compares and hashes like the frozenset of its members.
    """

    def __init__(self, vocab: Vocabulary, tidmask: int, weight: int) -> None:
        self._vocab = vocab
        self._tidmask = tidmask
        self._weight = weight
        self._members: frozenset[ScriptSource] | None = None
        self._hash: int | None = None

    def members(self) -> frozenset[ScriptSource]:
        if self._members is None:
            scripts, groups = self._vocab.scripts, self._vocab.groups
            self._members = frozenset(
                scripts[position] for t in bits(self._tidmask) for position in groups[t]
            )
        return self._members

    def __len__(self) -> int:
        return self._weight if self._vocab.distinct_scripts else len(self.members())

    def __iter__(self) -> Iterator[ScriptSource]:
        return iter(self.members())

    def __contains__(self, script: object) -> bool:
        return script in self.members()

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = AbstractSet._hash(self)  # frozenset's algorithm
        return self._hash

    def __repr__(self) -> str:
        return f"Supporters({set(self.members())!r})"


@dataclass(frozen=True)
class Pattern:
    """A closed frequent set of temporal properties.

    `supporters` holds the scripts that contain the pattern: a frozenset
    when built by hand, a lazy Supporters set when mined.
    """

    properties: frozenset[TemporalProperty]
    support: int
    supporters: AbstractSet[ScriptSource]

    @property
    def size(self) -> int:
        return len(self.properties)

    def sort_key(self) -> tuple:
        return (
            -self.support,
            -len(self.properties),
            tuple(sorted(self.properties)),
        )


def support(properties: Iterable[TemporalProperty], property_sets: Sequence[PropertySet]) -> int:
    """Number of scripts whose property set contains all given properties."""
    wanted = frozenset(properties)
    return sum(1 for ps in property_sets if wanted <= ps.properties)


def mine_closed_patterns(
    property_sets: Sequence[PropertySet], min_support: int
) -> list[Pattern]:
    """Mine exactly the closed patterns with support >= min_support.

    The empty pattern is never reported. Deterministic output order:
    support descending, then size descending, then property order.
    """
    if not property_sets:
        raise ValueError("property_sets must be nonempty")
    return mine_vocabulary(Vocabulary.of(property_sets), min_support)


def mine_vocabulary(vocab: Vocabulary, min_support: int) -> list[Pattern]:
    """`mine_closed_patterns` over property sets already in integer form.

    Closed itemsets are intersections of transactions, so mining runs over
    the distinct property sets, each weighted by its number of scripts.
    It uses closure extension over transaction-id bitmasks: a candidate
    built by adding item i to a closed set is kept only when its closure
    adds no item ordered before i, which visits every closed frequent
    itemset exactly once without storing candidates.
    """
    if min_support < 1:
        raise InvalidConfig(f"min_support must be >= 1, got {min_support}")
    n = len(vocab.scripts)
    if None in vocab.scripts:
        raise ValueError("every PropertySet needs a source to identify supporters")
    if min_support > n:
        return []

    masks = vocab.masks
    weights = [len(g) for g in vocab.groups]
    item_tids = [0] * len(vocab.items)
    for t, mask in enumerate(masks):
        for i in bits(mask):
            item_tids[i] |= 1 << t

    # Items often share a tid mask, so extensions repeat: remember both.
    @cache
    def weight_of(tidmask: int) -> int:
        return sum(weights[t] for t in bits(tidmask))

    @cache
    def closure(tidmask: int) -> int:
        """Items shared by every transaction in a nonempty tid mask."""
        intent = -1
        for t in bits(tidmask):
            intent &= masks[t]
        return intent

    all_tids = (1 << len(masks)) - 1
    root = closure(all_tids)
    found: list[tuple[int, int, int]] = [(root, all_tids, n)] if root else []

    # Depth-first over prefix-preserving closure extensions.
    stack: list[tuple[int, int, int]] = [(root, all_tids, -1)]
    while stack:
        intent, tidmask, core = stack.pop()
        # Only items some transaction in the tid mask carries can extend it.
        present = 0
        for t in bits(tidmask):
            present |= masks[t]
        candidates = present & ~intent & ~((1 << (core + 1)) - 1)
        while candidates:
            i = candidates.bit_length() - 1
            candidates ^= 1 << i
            extended = item_tids[i] & tidmask
            weight = weight_of(extended)
            if weight < min_support:
                continue
            new_intent = closure(extended)
            if new_intent & ~intent & ((1 << i) - 1):
                continue  # closure reaches back before i: seen on another branch
            found.append((new_intent, extended, weight))
            stack.append((new_intent, extended, i))

    # Bit order is property order, so this is Pattern.sort_key's order.
    found.sort(key=lambda f: (-f[2], -f[0].bit_count(), tuple(bits(f[0]))))
    return [
        Pattern(
            properties=vocab.properties(intent),
            support=weight,
            supporters=Supporters(vocab, tidmask, weight),
        )
        for intent, tidmask, weight in found
    ]
