"""Independent reference implementations the optimized code is tested against.

These are deliberately naive: exhaustive enumeration instead of pruning,
determinization instead of structural comparison. They are slow but easy
to audit, which is the point.
"""

from __future__ import annotations

import io
import json
import lzma
import math
import random
import zipfile
import zlib
from dataclasses import replace
from fractions import Fraction
from functools import cache
from itertools import combinations, islice
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from blockmine import (
    Actor,
    Anomaly,
    AnomalyReport,
    BlockLabel,
    MiningConfig,
    Pattern,
    PropertySet,
    RawProject,
    ScriptModel,
    ScriptSource,
    TemporalProperty,
    Violation,
    build_script_model,
    enumerate_scripts,
    format_confidence,
    props,
    sorted_properties,
)
from blockmine import ingest
from blockmine.blocks import PROCEDURE_OPCODES, BlockKind, classify_opcode
from blockmine.errors import ArchiveUnreadable, MalformedProject
from blockmine.ingest import MAX_NESTING, RawBlock
from blockmine.mining import Supporters, as_count
from blockmine.properties import Vocabulary, bits


def brute_force_closed(
    transactions: list[frozenset], min_support: int
) -> set[tuple[frozenset, int]]:
    """All nonempty closed itemsets with their supports, by enumerating the
    intersection of every nonempty subset of transactions.

    An itemset is closed exactly when it equals the intersection of the
    transactions that contain it, so the closed itemsets with support >= 1
    are precisely the nonempty-subset intersections.
    """
    intersections: set[frozenset] = set()
    for r in range(1, len(transactions) + 1):
        for combo in combinations(range(len(transactions)), r):
            inter = frozenset.intersection(*(transactions[i] for i in combo))
            if inter:
                intersections.add(inter)
    result = set()
    for itemset in intersections:
        supp = sum(1 for t in transactions if itemset <= t)
        if supp >= min_support:
            result.add((itemset, supp))
    return result


def per_script_property_sets(projects: Sequence[RawProject]) -> list[PropertySet]:
    """One model and one props call per script, nothing shared."""
    return [props(model) for model in per_script_models(projects)]


def per_script_models(projects: Sequence[RawProject]) -> list[ScriptModel]:
    """One build_script_model call per script, nothing shared."""
    return [
        build_script_model(script, project)
        for project in projects
        for script in enumerate_scripts(project)
    ]


# The stack walks as they were before one shape walk served load, script
# enumeration and model keys: three walkers, each with its own guard.


def naive_script_fault(actor: Actor, root_id: str) -> str | None:
    """Why the stack at root_id cannot be modelled (a block reached twice,
    or substacks nested deeper than MAX_NESTING), or None."""
    seen: set[str] = set()
    pending: list[tuple[str, int]] = [(root_id, 0)]
    while pending:
        block_id, depth = pending.pop()
        if depth > MAX_NESTING:
            return f"nests substacks deeper than {MAX_NESTING} levels"
        while block_id is not None:
            if block_id in seen:
                return f"reaches block {block_id!r} twice"
            seen.add(block_id)
            block = actor.blocks[block_id]
            pending.extend((sub, depth + 1) for sub in block.substacks if sub is not None)
            block_id = block.next
    return None


# The loader as it was before each archive was opened once and each block
# built once: the archive's end record is read by is_zipfile and again by
# ZipFile, and every block is built, then copied when a reference is
# cleared or a procedure name is filled in.

_ZIP_ERRORS = (zipfile.BadZipFile, OSError, EOFError, ValueError, RuntimeError,
               zlib.error, lzma.LZMAError)


def _project_document(data: bytes, path: Path) -> dict:
    if zipfile.is_zipfile(io.BytesIO(data)):
        try:
            with zipfile.ZipFile(io.BytesIO(data)) as zf, zf.open("project.json") as member:
                text = member.read(ingest.MAX_PROJECT_BYTES + 1)
        except KeyError:
            raise MalformedProject(f"{path.name}: archive has no project.json") from None
        except _ZIP_ERRORS as exc:
            raise ArchiveUnreadable(f"{path.name}: broken zip archive: {exc}") from exc
        if len(text) > ingest.MAX_PROJECT_BYTES:
            raise MalformedProject(
                f"{path.name}: project.json inflates past {ingest.MAX_PROJECT_BYTES} bytes"
            )
        not_json = MalformedProject(f"{path.name}: project.json is not valid JSON")
    else:
        text = data
        not_json = ArchiveUnreadable(f"{path.name}: neither a zip archive nor JSON text")
    try:
        doc = json.loads(text)
    except ValueError:
        raise not_json from None
    except RecursionError:
        raise MalformedProject(f"{path.name}: project document nests too deeply") from None
    if not isinstance(doc, dict) or not isinstance(doc.get("targets"), list):
        raise MalformedProject(f"{path.name}: no targets array in project document")
    return doc


def _parse_inputs(raw_inputs: object) -> tuple[tuple[str | None, ...], tuple[str, ...]]:
    sub1: str | None = None
    sub2: str | None = None
    has_sub1 = False
    has_sub2 = False
    children: list[str] = []
    if isinstance(raw_inputs, dict):
        for name in sorted(raw_inputs):
            value = raw_inputs[name]
            if not isinstance(value, list) or len(value) < 2:
                continue
            refs = [v for v in value[1:] if isinstance(v, str)]
            if name == "SUBSTACK":
                has_sub1 = True
                sub1 = refs[0] if refs else None
            elif name == "SUBSTACK2":
                has_sub2 = True
                sub2 = refs[0] if refs else None
            else:
                children.extend(refs)
    if has_sub2:
        substacks: tuple[str | None, ...] = (sub1, sub2)
    elif has_sub1:
        substacks = (sub1,)
    else:
        substacks = ()
    return substacks, tuple(children)


def _coordinate(raw: dict, axis: str, owner: str, block_id: object, warnings: list[str]) -> float:
    value = raw.get(axis, 0) or 0
    try:
        coord = float(value)
    except (TypeError, ValueError, OverflowError):
        coord = math.nan
    if math.isfinite(coord):
        return coord
    warnings.append(
        f"{owner}: block {block_id!r} {axis} coordinate {value!r} is not a number, read as 0"
    )
    return 0.0


def _parse_target(target: dict, warnings: list[str]) -> Actor:
    """The actor of a target, with no script roots: naive_load_project
    finds them."""
    name = str(target.get("name", ""))
    is_stage = bool(target.get("isStage", False))
    raw_blocks = target.get("blocks")
    parsed: dict[str, RawBlock] = {}
    if isinstance(raw_blocks, dict):
        for block_id, raw in raw_blocks.items():
            if not isinstance(raw, dict):
                warnings.append(f"{name}: dropped non-block entry {block_id!r}")
                continue
            opcode = raw.get("opcode")
            if not isinstance(opcode, str) or not opcode:
                warnings.append(f"{name}: dropped block {block_id!r} without opcode")
                continue
            substacks, children = _parse_inputs(raw.get("inputs"))
            mutation = raw.get("mutation")
            proccode = ""
            if isinstance(mutation, dict) and isinstance(mutation.get("proccode"), str):
                proccode = mutation["proccode"]
            parsed[str(block_id)] = RawBlock(
                id=str(block_id),
                opcode=opcode,
                next=raw.get("next") if isinstance(raw.get("next"), str) else None,
                parent=raw.get("parent") if isinstance(raw.get("parent"), str) else None,
                substacks=substacks,
                reporter_children=children,
                is_top_level=bool(raw.get("topLevel", False)),
                is_shadow=bool(raw.get("shadow", False)),
                proccode=proccode,
                x=_coordinate(raw, "x", name, block_id, warnings),
                y=_coordinate(raw, "y", name, block_id, warnings),
            )

    ids = set(parsed)
    resolved: dict[str, RawBlock] = {}
    for block_id, block in parsed.items():
        changes: dict[str, object] = {}
        if block.next is not None and block.next not in ids:
            warnings.append(f"{name}: block {block_id!r} next -> missing {block.next!r}")
            changes["next"] = None
        if block.parent is not None and block.parent not in ids:
            warnings.append(f"{name}: block {block_id!r} parent -> missing {block.parent!r}")
            changes["parent"] = None
        if any(s is not None and s not in ids for s in block.substacks):
            warnings.append(f"{name}: block {block_id!r} has a missing substack")
            changes["substacks"] = tuple(
                s if s is None or s in ids else None for s in block.substacks
            )
        if any(c not in ids for c in block.reporter_children):
            warnings.append(f"{name}: block {block_id!r} references a missing input block")
            changes["reporter_children"] = tuple(
                c for c in block.reporter_children if c in ids
            )
        resolved[block_id] = block._replace(**changes) if changes else block

    for block_id, block in list(resolved.items()):
        if block.opcode == "procedures_definition" and not block.proccode:
            for child in block.reporter_children:
                proto = resolved.get(child)
                if proto is not None and proto.proccode:
                    resolved[block_id] = block._replace(proccode=proto.proccode)
                    break

    return Actor(name=name, is_stage=is_stage, blocks=resolved, script_roots=())


def naive_load_project(path: Path) -> RawProject:
    """load_project with the loader above, roots sorted over every block
    before the top-level ones are picked, each duplicate actor name given
    the first free `#k` by a linear search, and each stack checked by
    naive_script_fault."""
    doc = _project_document(path.read_bytes(), path)
    warnings: list[str] = []
    actors: list[Actor] = []
    for target in doc["targets"]:
        if not isinstance(target, dict):
            warnings.append("dropped non-object target entry")
            continue
        actor = _parse_target(target, warnings)
        roots = tuple(
            b.id
            for b in sorted(actor.blocks.values(), key=lambda b: (b.y, b.x, b.id))
            if b.is_top_level and not b.is_shadow
        )
        actors.append(replace(actor, script_roots=roots))
    originals = [actor.name for actor in actors]
    for i, actor in enumerate(actors):
        if actor.name in [a.name for a in actors[:i]]:
            k = 2
            while f"{actor.name}#{k}" in originals + [a.name for a in actors[:i]]:
                k += 1
            new_name = f"{actor.name}#{k}"
            warnings.append(f"duplicate actor name {actor.name!r} renamed {new_name!r}")
            actors[i] = replace(actor, name=new_name)
    for actor in actors:
        for root_id in actor.script_roots:
            fault = naive_script_fault(actor, root_id)
            if fault is not None:
                raise MalformedProject(f"{path.name}: {actor.name}: script {root_id!r} {fault}")
    stages = sum(1 for a in actors if a.is_stage)
    if stages != 1:
        warnings.append(f"expected exactly one stage target, found {stages}")
    return RawProject(project_id=path.stem, actors=tuple(actors), warnings=tuple(warnings))


def _naive_stack_blocks(actor: Actor, root_id: str) -> Iterator[RawBlock]:
    """All blocks of a stack, next-chains and substacks, each once."""
    seen: set[str] = set()

    def walk(block_id: str | None) -> Iterator[RawBlock]:
        while block_id is not None and block_id not in seen:
            seen.add(block_id)
            block = actor.blocks.get(block_id)
            if block is None:
                return
            yield block
            for sub in block.substacks:
                if sub is not None:
                    yield from walk(sub)
            block_id = block.next

    return walk(root_id)


def naive_enumerate_scripts(project: RawProject) -> list[ScriptSource]:
    """One script per top-level stack holding a block that is not a
    reporter (unknown opcodes count as commands)."""
    sources: list[ScriptSource] = []
    for actor in project.actors:
        index = 0
        for root_id in actor.script_roots:
            if all(
                classify_opcode(b.opcode) is BlockKind.REPORTER
                for b in _naive_stack_blocks(actor, root_id)
            ):
                continue
            sources.append(ScriptSource(project.project_id, actor.name, index, root_id))
            index += 1
    return sources


def _naive_chain(actor: Actor, root_id: str) -> list[RawBlock]:
    """The next-chain from a block, with no substack descent."""
    chain: list[RawBlock] = []
    seen: set[str] = set()
    block_id: str | None = root_id
    while block_id is not None and block_id not in seen:
        seen.add(block_id)
        block = actor.blocks.get(block_id)
        if block is None:
            break
        chain.append(block)
        block_id = block.next
    return chain


def naive_script_shape(script: ScriptSource, project: RawProject) -> tuple:
    """A script's command chains in breadth-first order, each block as
    (opcode, detail, substack chain numbers); reporters and their
    substacks are left out."""
    actor = project.actor(script.actor_name)
    roots: list[str] = [script.root_block]
    chains: list[tuple] = []
    for root_id in roots:
        blocks = []
        for block in _naive_chain(actor, root_id):
            if classify_opcode(block.opcode) is BlockKind.REPORTER:
                continue
            slots: list[int | None] = []
            for sub in block.substacks:
                if sub is None:
                    slots.append(None)
                else:
                    slots.append(len(roots))
                    roots.append(sub)
            detail = block.proccode if block.opcode in PROCEDURE_OPCODES else ""
            blocks.append((block.opcode, detail, tuple(slots)))
        chains.append(tuple(blocks))
    return tuple(chains)


def confidence(violation: Violation, all_violations: Sequence[Violation]) -> Fraction:
    """Exact confidence s / (s + v) of one violation, by a linear scan.

    s is the pattern's support; v counts the scripts (including this one)
    whose deviation from the same pattern is set-equal to this deviation.
    """
    v = sum(
        1
        for other in all_violations
        if other.pattern == violation.pattern and other.deviation == violation.deviation
    )
    if v == 0:
        raise ValueError("violation does not occur in all_violations")
    s = violation.pattern.support
    return Fraction(s, s + v)


def naive_patterns(property_sets: Sequence[PropertySet], min_support: int) -> list[Pattern]:
    """The closed patterns with support >= min_support, in Pattern.sort_key
    order: brute_force_closed over the distinct property sets (duplicates
    add no intersection), with supports and supporters counted over all."""
    distinct = list({ps.properties for ps in property_sets})
    patterns = []
    for itemset, _ in brute_force_closed(distinct, 1):
        holders = [ps.source for ps in property_sets if itemset <= ps.properties]
        if len(holders) >= min_support:
            patterns.append(Pattern(itemset, len(holders), frozenset(holders)))
    return sorted(patterns, key=Pattern.sort_key)


def present_pass_mine(vocab: Vocabulary, min_support: int) -> list[Pattern]:
    """`mining.mine_vocabulary` as it was before candidates were handed
    down: every search node ORs the property masks of all its transactions
    to find the items that can extend it, and tests every one of them.
    Unlike brute_force_closed it scales to classrooms of open-ended tasks,
    so it serves as the reference for the miner there."""
    as_count(min_support, "min_support")
    n = len(vocab.scripts)
    if min_support > n:
        return []

    masks, item_tids = vocab.masks, vocab.item_tids
    weights = [len(g) for g in vocab.groups]

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

    leaders: dict[int, int] = {}
    for i, tids in enumerate(item_tids):
        leaders.setdefault(tids, i)
    leader_mask = sum(1 << i for i in leaders.values())

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
        candidates = present & leader_mask & ~intent & ~((1 << (core + 1)) - 1)
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


def naive_find_violations(
    patterns: Sequence[Pattern], property_sets: Sequence[PropertySet], config: MiningConfig
) -> list[Violation]:
    """One Violation object per (pattern, script) pair, by a double loop."""
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


def naive_rank_anomalies(violations: Sequence[Violation], config: MiningConfig) -> list[Anomaly]:
    """Score every violation object, filter, and sort them all on one tuple
    key: confidence descending, support descending, deviation size, script
    identifier, pattern sort key, sorted deviation; ties keep input order."""
    counts: dict[tuple[Pattern, frozenset[TemporalProperty]], int] = {}
    for v in violations:
        key = (v.pattern, v.deviation)
        counts[key] = counts.get(key, 0) + 1
    scored = []
    for violation in violations:
        v = counts[(violation.pattern, violation.deviation)]
        c = Fraction(violation.pattern.support, violation.pattern.support + v)
        if c >= config.min_confidence:
            scored.append(
                Anomaly(violation=violation, confidence=c, same_deviation_count=v, rank=0)
            )
    scored.sort(
        key=lambda a: (
            -a.confidence,
            -a.pattern.support,
            len(a.deviation),
            a.script.ident,
            a.pattern.sort_key(),
            tuple(sorted(a.deviation)),
        )
    )
    return [replace(a, rank=i + 1) for i, a in enumerate(scored)]


def fraction_confident_groups(classes: Sequence, supports: Sequence[int], min_confidence: Fraction):
    """(confidence, classes) groups as anomalies._confident_groups makes
    them, with one Fraction per class: keep the classes whose confidence
    reaches min_confidence, sort them stably by confidence descending,
    support descending, deviation size ascending, and group equal keys."""
    keyed = []
    for c in classes:
        s = supports[c.pattern]
        confidence = Fraction(s, s + c.weight)
        if confidence >= min_confidence:
            keyed.append(((-confidence, -s, bin(c.deviation).count("1")), c))
    keyed.sort(key=lambda kc: kc[0])
    groups: list[tuple[Fraction, list]] = []
    previous = None
    for key, c in keyed:
        if key != previous:
            groups.append((-key[0], []))
            previous = key
        groups[-1][1].append(c)
    return groups


def naive_sweep(
    property_sets: Sequence[PropertySet],
    supports: Sequence[int],
    confidences: Sequence[Fraction],
    fixed: MiningConfig,
) -> list[tuple[int, Fraction, int]]:
    """(support, confidence, anomaly count) per grid cell, each cell a full
    independent naive run."""
    cells = []
    for s in supports:
        patterns = naive_patterns(property_sets, s)
        for c in confidences:
            config = replace(fixed, min_support=s, min_confidence=c)
            violations = naive_find_violations(patterns, property_sets, config)
            cells.append((s, c, len(naive_rank_anomalies(violations, config))))
    return cells


def random_mining_instance(
    rng: random.Random, max_transactions: int = 12, universe_size: int = 8
):
    """A random transaction list over a small property universe, plus a
    random support threshold (sometimes larger than the list)."""
    universe = [
        TemporalProperty(BlockLabel(f"op_{chr(97 + i)}"), BlockLabel(f"op_{chr(97 + j)}"))
        for i in range(universe_size)
        for j in range(universe_size)
    ][:universe_size]
    n = rng.randint(1, max_transactions)
    transactions = []
    for _ in range(n):
        size = rng.randint(0, universe_size)
        transactions.append(frozenset(rng.sample(universe, size)))
    min_support = rng.randint(1, n + 1)
    return transactions, min_support


def random_bundled_instance(rng: random.Random, max_transactions: int = 12):
    """Like random_mining_instance, but items come in bundles of 2-4 that
    always occur together, so most items share their column of
    transactions with another; now and then a transaction also carries
    one loose item."""
    labels = [BlockLabel(f"op_{chr(97 + i)}") for i in range(6)]
    universe = [TemporalProperty(a, b) for a in labels for b in labels]
    rng.shuffle(universe)
    loose, rest = universe[:4], iter(universe[4:])
    bundles = [frozenset(islice(rest, rng.randint(2, 4))) for _ in range(rng.randint(2, 5))]
    n = rng.randint(1, max_transactions)
    transactions = []
    for _ in range(n):
        items = frozenset().union(*rng.sample(bundles, rng.randint(0, len(bundles))))
        if rng.random() < 0.3:
            items |= {rng.choice(loose)}
        transactions.append(items)
    min_support = rng.randint(1, n + 1)
    return transactions, min_support


def dummy_sources(n: int) -> list[ScriptSource]:
    return [
        ScriptSource(
            project_id=f"project_{i:03d}",
            actor_name="Sprite",
            script_index=0,
            root_block="b1",
        )
        for i in range(n)
    ]


def random_epsilon_model(rng: random.Random, max_locations: int = 12) -> ScriptModel:
    """A random model with epsilon moves, fully reachable from the entry.

    Reachability is guaranteed by a random spanning tree; extra edges
    (labeled or epsilon) are sprinkled on top.
    """
    n = rng.randint(2, max_locations)
    labels: list[BlockLabel | None] = [
        BlockLabel("op_a"), BlockLabel("op_b"), BlockLabel("op_c"), BlockLabel("op_d"),
        None, None,
    ]
    transitions: set[tuple[int, BlockLabel | None, int]] = set()
    for i in range(1, n):
        transitions.add((rng.randrange(i), rng.choice(labels), i))
    for _ in range(rng.randint(0, n)):
        transitions.add((rng.randrange(n), rng.choice(labels), rng.randrange(n)))
    n_exits = rng.randint(0, min(2, n))
    exits = frozenset(rng.sample(range(n), n_exits))
    return ScriptModel(
        entry=0, exits=exits, transitions=frozenset(transitions), source=None
    )


def _label_order(label: BlockLabel | None) -> tuple:
    # Epsilon first, then labels by (opcode, detail).
    if label is None:
        return (0, "", "")
    return (1, label.opcode, label.detail)


def naive_canonical(
    entry: int,
    exits: Iterable[int],
    transitions: Iterable[tuple[int, BlockLabel | None, int]],
    source: ScriptSource | None,
) -> ScriptModel:
    """The model renumbered 0..n-1 breadth-first from `entry`, each
    location's successors sorted on their own by (label, target)."""
    transitions = tuple(transitions)
    adjacency: dict[int, list[tuple[tuple, int]]] = {}
    for src, label, dst in transitions:
        adjacency.setdefault(src, []).append(((_label_order(label), dst), dst))
    order: dict[int, int] = {entry: 0}
    queue = [entry]
    for node in queue:
        for _, dst in sorted(adjacency.get(node, [])):
            if dst not in order:
                order[dst] = len(order)
                queue.append(dst)
    return ScriptModel(
        entry=order[entry],
        exits=frozenset(order[x] for x in exits),
        transitions=frozenset((order[s], label, order[d]) for s, label, d in transitions),
        source=source,
    )


def label_path_language(model: ScriptModel, depth: int) -> frozenset[tuple]:
    """All label sequences of length <= depth readable from the entry,
    treating epsilon moves as free. Computed by determinizing on the fly."""
    eps_next: dict[int, set[int]] = {}
    for src, label, dst in model.transitions:
        if label is None:
            eps_next.setdefault(src, set()).add(dst)

    def closure(locations: set[int]) -> frozenset[int]:
        seen = set(locations)
        frontier = list(locations)
        while frontier:
            node = frontier.pop()
            for nxt in eps_next.get(node, ()):
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        return frozenset(seen)

    language: set[tuple] = {()}
    frontier_sets: dict[tuple, frozenset[int]] = {(): closure({model.entry})}
    for _ in range(depth):
        next_frontier: dict[tuple, set[int]] = {}
        for word, locations in frontier_sets.items():
            by_label: dict[BlockLabel, set[int]] = {}
            for src, label, dst in model.transitions:
                if label is not None and src in locations:
                    by_label.setdefault(label, set()).add(dst)
            for label, dsts in by_label.items():
                extended = word + (label,)
                language.add(extended)
                next_frontier.setdefault(extended, set()).update(closure(dsts))
        frontier_sets = {w: frozenset(s) for w, s in next_frontier.items()}
    return frozenset(language)


def zipfile_archive(payload: bytes) -> bytes:
    """The corpus writer's archive as zipfile writes it: `payload` as one
    deflated project.json entry with a fixed timestamp and mode 0644."""
    buffer = io.BytesIO()
    with zipfile.ZipFile(buffer, "w", zipfile.ZIP_DEFLATED) as zf:
        info = zipfile.ZipInfo("project.json", date_time=(1980, 1, 1, 0, 0, 0))
        info.compress_type = zipfile.ZIP_DEFLATED
        info.external_attr = 0o644 << 16
        zf.writestr(info, payload)
    return buffer.getvalue()


def report_to_text(report: AnomalyReport, top: int | None = None) -> str:
    """The text report as one list of lines, joined at the end."""
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
