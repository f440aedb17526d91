"""Script models: finite automata over the command blocks of one script.

A model is a set of control locations with labeled transitions between
them; executing a block moves control across the transition carrying that
block's label. Branching blocks contribute one transition per possible
successor, loops point back to their head, and reporter blocks never
appear at all. Unlabeled (epsilon) transitions are permitted as an
intermediate device - eliminate_epsilon removes them - but the builder
wires join points directly and models only reachable code, so
eliminate_epsilon is the identity on freshly built models.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import count
from typing import Iterable, Mapping

from .blocks import BlockKind, BlockLabel, classify_opcode
from .ingest import RawProject, ScriptSource, Shape, ShapeBlock

# (source location, block label or None for epsilon, target location)
Transition = tuple[int, BlockLabel | None, int]


def transition_order(t: Transition) -> tuple:
    # Epsilon sorts first so deterministic walks see it before real labels.
    src, label, dst = t
    return (src, label is not None, label or (), dst)


@dataclass(frozen=True)
class ScriptModel:
    """Automaton of one script: entry location, exits, labeled transitions."""

    entry: int
    exits: frozenset[int]
    transitions: frozenset[Transition]
    source: ScriptSource | None = None

    @property
    def locations(self) -> frozenset[int]:
        locs = {self.entry} | set(self.exits)
        for src, _, dst in self.transitions:
            locs.add(src)
            locs.add(dst)
        return frozenset(locs)

    @property
    def is_epsilon_free(self) -> bool:
        return all(l is not None for _, l, _ in self.transitions)

    def sorted_transitions(self) -> list[Transition]:
        return sorted(self.transitions, key=transition_order)


def build_script_model(script: ScriptSource, project: RawProject) -> ScriptModel:
    """Build the control-flow model of one script from its shape.

    Hats, plain commands, and caps each contribute a single transition; an
    if-then forks into the branch body and a skip edge that both rejoin the
    same continuation; loops fork into body and fall-through, the body
    rejoining the location before the loop (a forever rejoins its own head
    and has no fall-through, so anything stacked after it is unreachable
    and not modeled; the same holds after an if-else whose branches both
    end in a cap or forever). Reporters are never emitted. The final
    location of the stack joins the exits; caps mark their target as an
    exit and end the stack.
    """
    return build_shape_model(project.actor(script.actor_name).shapes[script.root_block], script)


def build_shape_model(shape: Shape, source: ScriptSource | None = None) -> ScriptModel:
    """The model of every script whose stack_shape is `shape`, attributed
    to `source`."""
    alloc = count(1).__next__  # a fresh location

    def join(cell: list[int]) -> int:
        """A join's location; the cell stays empty until first targeted."""
        if not cell:
            cell.append(alloc())
        return cell[0]

    transitions: set[Transition] = set()
    exits: set[int] = set()
    entry = 0

    def body_of(slots: tuple[int | None, ...], index: int) -> tuple[ShapeBlock, ...]:
        chain = slots[index] if index < len(slots) else None
        return () if chain is None else shape[chain]

    def walk(chain: tuple[ShapeBlock, ...], cur: int, cont: list[int]) -> None:
        for i, (opcode, detail, slots) in enumerate(chain):
            kind = classify_opcode(opcode)
            if kind is BlockKind.UNKNOWN:
                kind = BlockKind.COMMAND
            label = BlockLabel(opcode, detail)
            last = i == len(chain) - 1
            nxt = cont if last else []

            if kind is BlockKind.CAP:
                stop = alloc()
                transitions.add((cur, label, stop))
                exits.add(stop)
                return

            if kind is BlockKind.FOREVER:
                head = alloc()
                transitions.add((cur, label, head))
                body = body_of(slots, 0)
                if body:
                    walk(body, head, [head])
                return  # no fall-through: code stacked below never runs

            if kind in (BlockKind.HAT, BlockKind.COMMAND):
                transitions.add((cur, label, join(nxt)))
            elif kind is BlockKind.IF_THEN:
                transitions.add((cur, label, join(nxt)))  # skip edge
                body = body_of(slots, 0)
                if body:
                    body_entry = alloc()
                    transitions.add((cur, label, body_entry))
                    walk(body, body_entry, nxt)
            elif kind is BlockKind.IF_ELSE:
                for branch in (0, 1):
                    body = body_of(slots, branch)
                    if body:
                        body_entry = alloc()
                        transitions.add((cur, label, body_entry))
                        walk(body, body_entry, nxt)
                    else:
                        transitions.add((cur, label, join(nxt)))
            elif kind in (BlockKind.LOOP_BOUNDED, BlockKind.LOOP_UNTIL):
                transitions.add((cur, label, join(nxt)))  # fall-through edge
                body = body_of(slots, 0)
                if body:
                    body_entry = alloc()
                    transitions.add((cur, label, body_entry))
                    walk(body, body_entry, [cur])
                else:
                    transitions.add((cur, label, cur))
            if not nxt:
                return  # every branch ended in a cap or forever
            cur = join(nxt)

    chain = shape[0]
    if not chain:
        # A script with no command blocks: the entry itself is the exit.
        return ScriptModel(entry, frozenset({entry}), frozenset(), source=source)

    end: list[int] = []
    walk(chain, entry, end)
    exits.update(end)
    return _canonical(entry, exits, transitions, source)


def _canonical(
    entry: int,
    exits: Iterable[int],
    transitions: Iterable[Transition],
    source: ScriptSource | None,
) -> ScriptModel:
    """Renumber locations 0..n-1 breadth-first, each location's successors
    in transition order; every location must be reachable from `entry`."""
    transitions = sorted(transitions, key=transition_order)
    successors: dict[int, list[int]] = {}
    for src, _, dst in transitions:
        successors.setdefault(src, []).append(dst)

    order: dict[int, int] = {entry: 0}
    queue = [entry]
    for node in queue:  # queue grows as locations are numbered
        for dst in successors.get(node, ()):
            if dst not in order:
                order[dst] = len(order)
                queue.append(dst)

    return ScriptModel(
        entry=order[entry],
        exits=frozenset(order[x] for x in exits),
        transitions=frozenset(
            (order[s], label, order[d]) for s, label, d in transitions
        ),
        source=source,
    )


def reach_from(start: int, successors: Mapping[int, Iterable[int]]) -> frozenset[int]:
    """`start` and every location reachable from it along `successors`."""
    seen = {start}
    frontier = [start]
    while frontier:
        for nxt in successors.get(frontier.pop(), ()):
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return frozenset(seen)


def eliminate_epsilon(model: ScriptModel) -> ScriptModel:
    """Standard epsilon elimination.

    Every labeled transition reachable through epsilon moves is re-sourced
    at the location that can slide into its source; a location whose
    epsilon closure meets the exits becomes an exit; epsilon transitions
    are dropped and locations unreachable from the entry are pruned.
    Idempotent, and the identity (up to renumbering) on epsilon-free input.
    """
    eps: dict[int, set[int]] = {}
    labeled_by_source: dict[int, list[Transition]] = {}
    for t in model.transitions:
        if t[1] is None:
            eps.setdefault(t[0], set()).add(t[2])
        else:
            labeled_by_source.setdefault(t[0], []).append(t)
    closures = {loc: reach_from(loc, eps) for loc in model.locations}

    new_transitions: set[Transition] = set()
    for loc in model.locations:
        for mid in closures[loc]:
            for _, label, dst in labeled_by_source.get(mid, ()):
                new_transitions.add((loc, label, dst))
    new_exits = {loc for loc in model.locations if closures[loc] & model.exits}

    # Prune anything the entry can no longer reach.
    adjacency: dict[int, set[int]] = {}
    for src, _, dst in new_transitions:
        adjacency.setdefault(src, set()).add(dst)
    reachable = reach_from(model.entry, adjacency)

    return _canonical(
        model.entry,
        (x for x in new_exits if x in reachable),
        ((s, l, d) for s, l, d in new_transitions if s in reachable and d in reachable),
        model.source,
    )


def abstract_labels(model: ScriptModel, drop: Iterable[str]) -> ScriptModel:
    """Hide the blocks with the given opcodes from a model.

    Matching transitions become epsilon moves and are then eliminated, so
    the result is again epsilon-free.
    """
    dropped = set(drop)
    rewritten = frozenset(
        (src, None if (label is not None and label.opcode in dropped) else label, dst)
        for src, label, dst in model.transitions
    )
    return eliminate_epsilon(replace(model, transitions=rewritten))


def model_to_dot(model: ScriptModel, title: str | None = None) -> str:
    """Render a model in Graphviz DOT: circles for locations, double circles
    for exits, an unlabeled arrow into the entry."""
    name = title or (model.source.ident if model.source else "script model")
    lines = [f"digraph {dot_quote(name)} {{"]
    lines.append("  rankdir=TB;")
    lines.append('  node [shape=circle, fontname="Helvetica"];')
    lines.append('  __start [shape=none, label="", width=0, height=0];')
    for loc in sorted(model.locations):
        shape = "doublecircle" if loc in model.exits else "circle"
        lines.append(f"  l{loc} [shape={shape}, label={dot_quote(f'l{loc}')}];")
    lines.append(f"  __start -> l{model.entry};")
    for src, label, dst in model.sorted_transitions():
        text = "ε" if label is None else label.display
        lines.append(f"  l{src} -> l{dst} [label={dot_quote(text)}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def dot_quote(text: str) -> str:
    """A DOT string literal."""
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _script_document(script: ScriptSource) -> dict:
    return {
        "project": script.project_id,
        "actor": script.actor_name,
        "script_index": script.script_index,
    }


def model_to_document(model: ScriptModel) -> dict:
    """Structured dump of a model (JSON-ready, schema versioned)."""
    doc: dict = {
        "schema_version": 1,
        "kind": "script-model",
        "entry": model.entry,
        "exits": sorted(model.exits),
        "locations": sorted(model.locations),
        "transitions": [
            {
                "from": src,
                "label": label.key() if label is not None else None,
                "name": label.display if label is not None else "ε",
                "to": dst,
            }
            for src, label, dst in model.sorted_transitions()
        ],
    }
    if model.source is not None:
        doc["source"] = _script_document(model.source)
    return doc
