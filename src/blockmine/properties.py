"""Temporal block-pair properties of a script model.

A property "a before b" holds when some transition labeled a lands on a
location from which some transition labeled b departs, under the reflexive
transitive reachability of the model. The pair is ordered but not strict:
a block inside a loop can precede itself.

`Vocabulary` puts a dataset's property sets in integer form once, for
mining, violation finding and ranking to share.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import count
from typing import Iterable, Iterator, NamedTuple, Sequence

from .blocks import BlockLabel
from .ingest import ScriptSource
from .model import ScriptModel, dot_quote, reach_from


class TemporalProperty(NamedTuple):
    """An ordered pair: `first` can be followed by `second`.

    An immutable tuple of two labels, so it hashes, compares and sorts by
    (first, second) in C.
    """

    first: BlockLabel
    second: BlockLabel

    @property
    def display(self) -> str:
        return f"{self.first.display} ≺ {self.second.display}"

    def __str__(self) -> str:
        return self.display


@dataclass(frozen=True)
class PropertySet:
    """The temporal properties of one script, with provenance."""

    source: ScriptSource | None
    properties: frozenset[TemporalProperty]


def bits(mask: int) -> Iterator[int]:
    """Indices of the set bits of a nonnegative mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True)
class Vocabulary:
    """Property sets in integer form, one entry per distinct set.

    Bit i of a mask stands for `items[i]`, and `index[p]` is the bit of p;
    the items are sorted, so comparing two masks' ascending bit indices
    compares the sorted properties. Distinct sets keep the order of their
    first script; `groups[k]` holds the dataset positions of the scripts
    whose property set is `masks[k]`, ascending, and `weights[k]` is their
    number. `item_tids[i]` has bit k set when `masks[k]` holds item i.
    `Vocabulary.of` builds all fields in one pass; the last three follow
    from the rest, and take no part in comparing, hashing or showing it.
    """

    items: tuple[TemporalProperty, ...]
    masks: tuple[int, ...]
    groups: tuple[tuple[int, ...], ...]
    scripts: tuple[ScriptSource, ...]
    index: dict[TemporalProperty, int] = field(compare=False, repr=False)
    weights: tuple[int, ...] = field(compare=False, repr=False)
    item_tids: tuple[int, ...] = field(compare=False, repr=False)

    @staticmethod
    def named(scripts: Iterable[ScriptSource | None]) -> tuple[ScriptSource, ...]:
        """`scripts` as a tuple, or ValueError if one is missing: an anomaly
        is reported by the script that shows it."""
        named = tuple(scripts)
        for script in named:
            if script is None:
                raise ValueError("every PropertySet needs a source to identify supporters")
        return named

    @classmethod
    def of(
        cls, property_sets: Sequence[PropertySet], extra: Iterable[TemporalProperty] = ()
    ) -> Vocabulary:
        """Group `property_sets` by their properties; `extra` properties get
        bits too, though no set carries them. Every set must have a source,
        and no two the same one: a script is counted once."""
        scripts = cls.named(ps.source for ps in property_sets)
        if len(set(scripts)) < len(scripts):
            repeated = next(s for s, n in Counter(scripts).items() if n > 1)
            raise ValueError(f"two property sets have the source {repeated!r}")
        by_set: dict[frozenset[TemporalProperty], list[int]] = {}
        for position, ps in enumerate(property_sets):
            by_set.setdefault(ps.properties, []).append(position)
        items = tuple(sorted(set(extra).union(*by_set)))
        index = {p: i for i, p in enumerate(items)}
        masks, tids = [], [0] * len(items)
        for k, properties in enumerate(by_set):
            positions = [index[p] for p in properties]
            masks.append(sum(1 << i for i in positions))
            for i in positions:
                tids[i] |= 1 << k
        return cls(
            items=items,
            masks=tuple(masks),
            groups=tuple(tuple(g) for g in by_set.values()),
            scripts=scripts,
            index=index,
            weights=tuple(map(len, by_set.values())),
            item_tids=tuple(tids),
        )

    def mask(self, properties: Iterable[TemporalProperty]) -> int:
        return sum(1 << self.index[p] for p in set(properties))

    def properties(self, mask: int) -> frozenset[TemporalProperty]:
        return frozenset(self.items[i] for i in bits(mask))


def reachability(model: ScriptModel) -> dict[int, frozenset[int]]:
    """Map each location to the locations it can reach, itself included.

    Labels are ignored, so epsilon transitions count as steps; on an
    epsilon-free model this is plain control-flow reachability.
    """
    adjacency: dict[int, set[int]] = {}
    for src, _, dst in model.transitions:
        adjacency.setdefault(src, set()).add(dst)
    return {loc: reach_from(loc, adjacency) for loc in model.locations}


def props(model: ScriptModel) -> PropertySet:
    """All temporal properties of a model.

    For every pair of labeled transitions (la -a-> lb) and (lc -b-> ld)
    with lc reachable from lb, the property "a before b" holds. A model
    with fewer than two command transitions can only yield properties if a
    transition loops on itself, which straight-line scripts never do, so a
    one-block script has no properties at all.
    """
    reach = reachability(model)
    labeled = [(src, label, dst) for src, label, dst in model.transitions if label is not None]
    by_source: dict[int, set[BlockLabel]] = {}
    for src, label, _ in labeled:
        by_source.setdefault(src, set()).add(label)

    found: set[TemporalProperty] = set()
    for _, first, landing in labeled:
        for reachable in reach[landing]:
            for second in by_source.get(reachable, ()):
                found.add(TemporalProperty(first, second))
    return PropertySet(source=model.source, properties=frozenset(found))


def sorted_properties(properties: Iterable[TemporalProperty]) -> list[TemporalProperty]:
    return sorted(properties)


def format_properties(properties: Iterable[TemporalProperty]) -> str:
    """One property per line, canonically ordered."""
    return "\n".join(p.display for p in sorted_properties(properties))


def _node_ids(labels: Sequence[BlockLabel]) -> dict[BlockLabel, str]:
    """A DOT node id per label: `b_` and the label key, each character
    other than a letter or digit made `_`. Labels whose ids would collide,
    such as `call 'jump up'` and `call 'jump_up'`, each get a suffix `_1`,
    `_2`, ... in the order given, skipping any id already in use."""
    by_id: dict[str, list[BlockLabel]] = {}
    for label in labels:
        safe = "".join(c if c.isalnum() else "_" for c in label.key())
        by_id.setdefault(f"b_{safe}", []).append(label)
    ids, taken = {}, set(by_id)
    for base, group in by_id.items():
        if len(group) == 1:
            ids[group[0]] = base
            continue
        suffixed = (f"{base}_{n}" for n in count(1))
        for label in group:
            ids[label] = next(i for i in suffixed if i not in taken)
            taken.add(ids[label])
    return ids


def properties_to_dot(
    properties: Iterable[TemporalProperty],
    missing: Iterable[TemporalProperty] = (),
    title: str = "temporal properties",
) -> str:
    """Property digraph in DOT: one node per block, one edge per property.

    Properties listed in `missing` (a subset of `properties`) are drawn red
    and dotted; a block that only occurs in missing properties gets a red
    node as well. Used both for plain property sets and for violation
    reports where the missing part is the deviation.
    """
    props_list = sorted_properties(properties)
    missing_set = frozenset(missing)
    present_labels: set[BlockLabel] = set()
    all_labels: set[BlockLabel] = set()
    for p in props_list:
        all_labels.update((p.first, p.second))
        if p not in missing_set:
            present_labels.update((p.first, p.second))

    labels = sorted(all_labels)
    node_id = _node_ids(labels)
    lines = [f"digraph {dot_quote(title)} {{"]
    lines.append("  rankdir=LR;")
    lines.append('  node [shape=box, style=rounded, fontname="Helvetica"];')
    for label in labels:
        attrs = f"label={dot_quote(label.display)}"
        if label not in present_labels:
            attrs += ', color="red", fontcolor="red", style="rounded,dotted"'
        lines.append(f"  {node_id[label]} [{attrs}];")
    for p in props_list:
        attrs = ""
        if p in missing_set:
            attrs = ' [color="red", style=dotted]'
        lines.append(f"  {node_id[p.first]} -> {node_id[p.second]}{attrs};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def property_to_document(prop: TemporalProperty) -> dict:
    """JSON-ready rendering of one property."""
    return {
        "first": prop.first.key(),
        "second": prop.second.key(),
        "text": prop.display,
    }
