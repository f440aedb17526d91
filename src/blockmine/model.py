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
from typing import Callable, Iterable, Mapping

from .blocks import BlockKind, BlockLabel, classify_opcode
from .ingest import RawProject, ScriptSource, Shape, ShapeBlock

# (source location, block label or None for epsilon, target location)
Transition = tuple[int, BlockLabel | None, int]


def _label_order(label: BlockLabel | None) -> tuple:
    # Epsilon sorts first so deterministic walks see it before real labels.
    if label is None:
        return (0, "", "")
    return (1, label.opcode, label.detail)


def transition_order(t: Transition) -> tuple:
    src, label, dst = t
    return (src, _label_order(label), dst)


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


class _Continuation:
    """A join location materialized only when some transition targets it."""

    def __init__(self, alloc: Callable[[], int]):
        self._alloc = alloc
        self._value: int | None = None

    @staticmethod
    def fixed(location: int) -> "_Continuation":
        cont = _Continuation(lambda: location)
        cont._value = location
        return cont

    @property
    def materialized(self) -> bool:
        return self._value is not None

    def get(self) -> int:
        if self._value is None:
            self._value = self._alloc()
        return self._value


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
    counter = [0]

    def alloc() -> int:
        counter[0] += 1
        return counter[0]

    transitions: set[Transition] = set()
    exits: set[int] = set()
    entry = 0

    def body_of(slots: tuple[int | None, ...], index: int) -> tuple[ShapeBlock, ...]:
        chain = slots[index] if index < len(slots) else None
        return () if chain is None else shape[chain]

    def walk(chain: tuple[ShapeBlock, ...], cur: int, cont: _Continuation) -> None:
        for i, (opcode, detail, slots) in enumerate(chain):
            kind = classify_opcode(opcode)
            if kind is BlockKind.UNKNOWN:
                kind = BlockKind.COMMAND
            label = BlockLabel(opcode, detail)
            last = i == len(chain) - 1
            nxt = cont if last else _Continuation(alloc)

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
                    walk(body, head, _Continuation.fixed(head))
                return  # no fall-through: code stacked below never runs

            if kind in (BlockKind.HAT, BlockKind.COMMAND):
                transitions.add((cur, label, nxt.get()))
            elif kind is BlockKind.IF_THEN:
                transitions.add((cur, label, nxt.get()))  # skip edge
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
                        transitions.add((cur, label, nxt.get()))
            elif kind in (BlockKind.LOOP_BOUNDED, BlockKind.LOOP_UNTIL):
                transitions.add((cur, label, nxt.get()))  # fall-through edge
                body = body_of(slots, 0)
                if body:
                    body_entry = alloc()
                    transitions.add((cur, label, body_entry))
                    walk(body, body_entry, _Continuation.fixed(cur))
                else:
                    transitions.add((cur, label, cur))
            if not nxt.materialized:
                return  # every branch ended in a cap or forever
            cur = nxt.get()

    chain = shape[0]
    if not chain:
        # A script with no command blocks: the entry itself is the exit.
        return ScriptModel(entry, frozenset({entry}), frozenset(), source=source)

    end = _Continuation(alloc)
    walk(chain, entry, end)
    if end.materialized:
        exits.add(end.get())
    return _canonical(entry, exits, transitions, source)


def _canonical(
    entry: int,
    exits: Iterable[int],
    transitions: Iterable[Transition],
    source: ScriptSource | None,
) -> ScriptModel:
    """Renumber locations 0..n-1 in deterministic breadth-first order."""
    exits = tuple(exits)
    transitions = tuple(transitions)
    adjacency: dict[int, list[tuple[tuple, int]]] = {}
    locations: set[int] = {entry} | set(exits)
    for src, label, dst in transitions:
        adjacency.setdefault(src, []).append(((_label_order(label), dst), dst))
        locations.add(src)
        locations.add(dst)

    order: dict[int, int] = {entry: 0}
    queue = [entry]
    while queue:
        node = queue.pop(0)
        for _, dst in sorted(adjacency.get(node, [])):
            if dst not in order:
                order[dst] = len(order)
                queue.append(dst)
    for loc in sorted(locations):
        if loc not in order:
            order[loc] = len(order)

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


DropSpec = Callable[[BlockLabel], bool] | Iterable[BlockLabel | str]


def _drop_predicate(drop: DropSpec) -> Callable[[BlockLabel], bool]:
    if callable(drop):
        return drop
    wanted = set(drop)

    def predicate(label: BlockLabel) -> bool:
        return label in wanted or label.opcode in wanted

    return predicate


def abstract_labels(model: ScriptModel, drop: DropSpec) -> ScriptModel:
    """Hide the given labels from a model.

    Matching transitions become epsilon moves and are then eliminated, so
    the result is again epsilon-free. `drop` is a predicate on BlockLabel
    or a collection of labels/opcode strings.
    """
    predicate = _drop_predicate(drop)
    rewritten = frozenset(
        (src, None if (label is not None and predicate(label)) else label, dst)
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
        doc["source"] = {
            "project": model.source.project_id,
            "actor": model.source.actor_name,
            "script_index": model.source.script_index,
        }
    return doc
