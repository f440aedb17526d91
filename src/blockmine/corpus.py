"""Synthetic corpus generation: reference solutions plus seeded mutations.

Lets a course author (or a test) start from one reference project and
produce a loadable classroom: n verbatim clones plus one mutant archive
per mutation. Everything is deterministic - same reference, mutations,
and seeds give byte-identical archives.
"""

from __future__ import annotations

import io
import json
import random
import zipfile
from dataclasses import dataclass
from enum import Enum, unique
from pathlib import Path
from typing import Mapping, Sequence

from .blocks import is_menu_opcode
from .errors import InvalidConfig, OutputUnwritable
from .ingest import Actor, RawBlock, RawProject, _parse_target, canvas_roots

# Fixed zip metadata so archive bytes do not depend on the clock.
_ZIP_EPOCH = (1980, 1, 1, 0, 0, 0)

BlockSpec = str | tuple | list | dict
ScriptSpec = Sequence[BlockSpec]


def _read_spec(spec: BlockSpec, parts: tuple[str, ...]) -> dict:
    """A block or reporter spec as a dict: an opcode string, a sequence of
    the opcode and then the nested `parts` in order, or a dict. The opcode
    must be a nonempty string."""
    if isinstance(spec, str):
        norm = {"opcode": spec}
    elif isinstance(spec, (tuple, list)):
        if len(spec) > 1 + len(parts):
            raise InvalidConfig(f"block spec has too many parts: {spec!r}")
        norm = dict(zip(("opcode", *parts), spec))
    elif isinstance(spec, dict):
        norm = dict(spec)
    else:
        raise InvalidConfig(f"unsupported block spec: {spec!r}")
    if not isinstance(norm.get("opcode"), str) or not norm["opcode"]:
        raise InvalidConfig(f"block spec needs a nonempty opcode: {spec!r}")
    return norm


def _reporter_specs(norm: dict) -> list[BlockSpec]:
    """Child reporter specs of a normalized block, in deterministic order.

    Accepts either a mapping {input name: spec} (names are dropped; slots
    are written positionally) or a plain sequence of specs.
    """
    raw = norm.get("reporters", ())
    if isinstance(raw, dict):
        return [raw[name] for name in sorted(raw)]
    if isinstance(raw, (tuple, list)):
        return list(raw)
    raise InvalidConfig(f"reporters must be a mapping or sequence: {raw!r}")


class _Assembler:
    """Accumulates RawBlocks for one actor while handing out fresh ids."""

    def __init__(self) -> None:
        self.counter = 0
        self.blocks: dict[str, RawBlock] = {}

    def new_id(self) -> str:
        self.counter += 1
        return f"b{self.counter}"

    def add_reporter(self, spec: BlockSpec, parent: str) -> str:
        norm = _read_spec(spec, ("reporters",))
        block_id = self.new_id()
        children = tuple(
            self.add_reporter(child, block_id) for child in _reporter_specs(norm)
        )
        self.blocks[block_id] = RawBlock(
            id=block_id,
            opcode=norm["opcode"],
            parent=parent,
            reporter_children=children,
            is_shadow=bool(norm.get("shadow", is_menu_opcode(norm["opcode"]))),
            proccode=str(norm.get("proccode", "")),
        )
        return block_id

    def add_chain(
        self, specs: ScriptSpec, parent: str | None, *, top: bool = False, x: float = 0.0, y: float = 0.0
    ) -> str | None:
        if isinstance(specs, str):
            # Iterating a bare string would turn each character into a block.
            raise InvalidConfig(f"a script is a sequence of block specs, got the string {specs!r}")
        norms = [_read_spec(s, ("body", "else_body")) for s in specs]
        if not norms:
            return None
        ids = [self.new_id() for _ in norms]
        for i, norm in enumerate(norms):
            block_id = ids[i]
            children = tuple(
                self.add_reporter(child, block_id) for child in _reporter_specs(norm)
            )
            substacks: tuple[str | None, ...] = ()
            if "else_body" in norm:
                substacks = (
                    self.add_chain(norm.get("body", ()), block_id),
                    self.add_chain(norm["else_body"], block_id),
                )
            elif "body" in norm:
                body = self.add_chain(norm["body"], block_id)
                substacks = (body,) if body is not None else ()
            first = i == 0
            self.blocks[block_id] = RawBlock(
                id=block_id,
                opcode=norm["opcode"],
                next=ids[i + 1] if i + 1 < len(ids) else None,
                parent=parent if first else ids[i - 1],
                substacks=substacks,
                reporter_children=children,
                is_top_level=top and first,
                is_shadow=bool(norm.get("shadow", False)),
                proccode=str(norm.get("proccode", "")),
                x=x if top and first else 0.0,
                y=y if top and first else 0.0,
            )
        return ids[0]


def build_actor(name: str, scripts: Sequence[ScriptSpec], *, is_stage: bool = False) -> Actor:
    """Assemble an actor from script specs, as the loader reads it back.

    A script spec is a list of block specs: a plain opcode string, an
    (opcode, body) or (opcode, body, else_body) sequence for control
    blocks, or a dict with opcode / body / else_body / reporters /
    proccode / shadow keys for anything fancier. The assembled blocks go
    through the loader's reading of a target, so the actor is the one its
    archive loads as: a definition takes its prototype's name, and a
    shadow block starts no script.
    """
    assembler = _Assembler()
    for i, script in enumerate(scripts):
        assembler.add_chain(script, None, top=True, y=float(i * 200))
    return _parse_target(_target_document(Actor(name, is_stage, assembler.blocks, ())), [])


def build_project(
    project_id: str,
    sprites: Sequence[tuple[str, Sequence[ScriptSpec]]],
    stage_scripts: Sequence[ScriptSpec] = (),
) -> RawProject:
    """Assemble a whole project: one stage plus the given sprites."""
    actors = [build_actor("Stage", stage_scripts, is_stage=True)]
    actors.extend(build_actor(name, scripts) for name, scripts in sprites)
    return RawProject(project_id=project_id, actors=tuple(actors))


def _block_to_json(block: RawBlock, blocks: Mapping[str, RawBlock]) -> dict:
    inputs: dict[str, list] = {}
    for i, sub in enumerate(block.substacks):
        inputs["SUBSTACK" if i == 0 else "SUBSTACK2"] = [2, sub]
    # The loader reads value inputs in name order: pad the numbers so that
    # order is their position (ARG0..ARG9 unpadded, then ARG00..ARG10...).
    width = len(str(len(block.reporter_children) - 1))
    for i, child_id in enumerate(block.reporter_children):
        child = blocks.get(child_id)
        state = 1 if (child is not None and child.is_shadow) else 2
        inputs[f"ARG{i:0{width}d}"] = [state, child_id]
    doc: dict = {
        "opcode": block.opcode,
        "next": block.next,
        "parent": block.parent,
        "inputs": inputs,
        "fields": {},
        "shadow": block.is_shadow,
        "topLevel": block.is_top_level,
    }
    if block.is_top_level:
        doc["x"] = block.x
        doc["y"] = block.y
    if block.proccode:
        doc["mutation"] = {
            "tagName": "mutation",
            "children": [],
            "proccode": block.proccode,
            "argumentids": "[]",
            "warp": "false",
        }
    return doc


def _target_document(actor: Actor) -> dict:
    return {
        "isStage": actor.is_stage,
        "name": actor.name,
        "variables": {},
        "lists": {},
        "broadcasts": {},
        "blocks": {
            block_id: _block_to_json(block, actor.blocks)
            for block_id, block in sorted(actor.blocks.items())
        },
        "comments": {},
        "currentCostume": 0,
        "costumes": [],
        "sounds": [],
        "volume": 100,
    }


def project_to_document(project: RawProject) -> dict:
    """Render a project back to the project.json structure.

    Lossless with respect to everything the analysis reads: every
    substack slot is written, an empty one as [2, null], and value inputs
    are named so that their name order is their position. A project made
    by build_project or apply_mutation is therefore the project its
    written archive loads as, without warnings.
    """
    return {
        "targets": [_target_document(actor) for actor in project.actors],
        "monitors": [],
        "extensions": [],
        "meta": {"semver": "3.0.0", "vm": "0.0.0", "agent": "blockmine"},
    }


def project_payload(project: RawProject) -> bytes:
    return json.dumps(
        project_to_document(project), sort_keys=True, separators=(",", ":")
    ).encode("utf-8")


def _zipped(payload: bytes) -> bytes:
    """An archive holding `payload` as project.json. The entry carries a
    fixed timestamp, so identical content means identical bytes."""
    buffer = io.BytesIO()
    with zipfile.ZipFile(buffer, "w", zipfile.ZIP_DEFLATED) as zf:
        info = zipfile.ZipInfo("project.json", date_time=_ZIP_EPOCH)
        info.compress_type = zipfile.ZIP_DEFLATED
        info.external_attr = 0o644 << 16
        zf.writestr(info, payload)
    return buffer.getvalue()


def _write_bytes(path: Path, data: bytes) -> Path:
    try:
        path.write_bytes(data)
    except OSError as exc:
        raise OutputUnwritable(f"{path}: {exc}") from exc
    return path


def write_project_archive(project: RawProject, path: str | Path) -> Path:
    """Write a loadable archive; .sb3/.zip get a zip wrapper, .json is bare.

    Zip entries carry a fixed timestamp so identical content means
    identical bytes.
    """
    p = Path(path)
    payload = project_payload(project)
    return _write_bytes(p, payload if p.suffix.lower() == ".json" else _zipped(payload))


@unique
class MutationKind(Enum):
    WRONG_BLOCK = "wrong-block"
    MISSING_BLOCK = "missing-block"
    WRONG_ORDER = "wrong-order"
    EXTRA_BLOCK = "extra-block"


@dataclass(frozen=True)
class MutationSpec:
    """One seeded edit: which kind, which block, and what to put there.

    `target` selects candidate blocks by opcode or exact block id; when
    several match, the seed picks one deterministically. `replacement` is
    the opcode used by wrong-block and extra-block mutations.
    """

    kind: MutationKind
    target: str
    replacement: str | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.kind in (MutationKind.WRONG_BLOCK, MutationKind.EXTRA_BLOCK) and not self.replacement:
            raise InvalidConfig(f"{self.kind.value} mutation needs a replacement opcode")


def _hanging_ids(blocks: Mapping[str, RawBlock], block_id: str) -> set[str]:
    """The block plus everything nested under it (not its next-chain).

    Iterative, with a visited set: reporter inputs can nest deeper than
    Python's recursion allows, and a malformed file can point back up.
    """
    ids = {block_id}
    pending = [(block_id, False)]  # (block, whether its next-chain is nested too)
    while pending:
        current, in_substack = pending.pop()
        block = blocks[current]
        nested = [(child, False) for child in block.reporter_children]
        nested += [(sub, True) for sub in block.substacks if sub is not None]
        if in_substack and block.next is not None:
            nested.append((block.next, True))
        for child, chained in nested:
            if child in blocks and child not in ids:
                ids.add(child)
                pending.append((child, chained))
    return ids


def _reparent(
    blocks: dict[str, RawBlock], parent_id: str | None, old_child: str, new_child: str | None
) -> None:
    """Point whatever referenced old_child (next, substack slot or value
    input) at new_child; a value input with no new_child is dropped."""
    if parent_id is None or parent_id not in blocks:
        return
    parent = blocks[parent_id]
    if parent.next == old_child:
        blocks[parent_id] = parent._replace(next=new_child)
    elif old_child in parent.substacks:
        blocks[parent_id] = parent._replace(substacks=tuple(
            new_child if s == old_child else s for s in parent.substacks
        ))
    elif old_child in parent.reporter_children:
        children = (new_child if c == old_child else c for c in parent.reporter_children)
        blocks[parent_id] = parent._replace(
            reporter_children=tuple(c for c in children if c is not None)
        )


def _mutate_actor_blocks(
    actor: Actor, target: RawBlock, spec: MutationSpec
) -> dict[str, RawBlock]:
    blocks = dict(actor.blocks)

    if spec.kind is MutationKind.WRONG_BLOCK:
        assert spec.replacement is not None
        blocks[target.id] = target._replace(opcode=spec.replacement, proccode="")
        return blocks

    if spec.kind is MutationKind.MISSING_BLOCK:
        removed = _hanging_ids(blocks, target.id)
        successor = target.next
        _reparent(blocks, target.parent, target.id, successor)
        if successor is not None and successor in blocks:
            promote = blocks[successor]
            blocks[successor] = promote._replace(
                parent=target.parent,
                is_top_level=promote.is_top_level or target.is_top_level,
                x=target.x if target.is_top_level else promote.x,
                y=target.y if target.is_top_level else promote.y,
            )
        for dead in removed:
            blocks.pop(dead, None)
        return blocks

    if spec.kind is MutationKind.WRONG_ORDER:
        assert target.next is not None
        second = blocks[target.next]
        after = second.next
        _reparent(blocks, target.parent, target.id, second.id)
        blocks[second.id] = second._replace(
            parent=target.parent,
            next=target.id,
            is_top_level=target.is_top_level,
            x=target.x,
            y=target.y,
        )
        blocks[target.id] = target._replace(
            parent=second.id, next=after, is_top_level=False, x=0.0, y=0.0
        )
        if after is not None and after in blocks:
            blocks[after] = blocks[after]._replace(parent=target.id)
        return blocks

    if spec.kind is MutationKind.EXTRA_BLOCK:
        assert spec.replacement is not None
        new_id = "xb1"
        while new_id in blocks:
            new_id += "x"
        successor = target.next
        blocks[new_id] = RawBlock(
            id=new_id, opcode=spec.replacement, next=successor, parent=target.id
        )
        blocks[target.id] = target._replace(next=new_id)
        if successor is not None and successor in blocks:
            blocks[successor] = blocks[successor]._replace(parent=new_id)
        return blocks

    raise InvalidConfig(f"unsupported mutation kind: {spec.kind!r}")


def apply_mutation(project: RawProject, spec: MutationSpec) -> RawProject:
    """Apply one mutation; the candidate block is chosen by the seed.

    Raises InvalidConfig when no block matches the target selector (for
    wrong-order: no matching block with a successor to swap with).
    """
    candidates: list[tuple[int, RawBlock]] = []
    for actor_index, actor in enumerate(project.actors):
        for block in actor.blocks.values():
            if block.is_shadow:
                continue
            if block.opcode != spec.target and block.id != spec.target:
                continue
            if spec.kind is MutationKind.WRONG_ORDER and block.next is None:
                continue
            candidates.append((actor_index, block))
    if not candidates:
        raise InvalidConfig(
            f"mutation target {spec.target!r} matches no eligible block in {project.project_id!r}"
        )
    candidates.sort(key=lambda pair: (pair[0], pair[1].y, pair[1].x, pair[1].id))
    rng = random.Random(spec.seed)
    actor_index, target = candidates[rng.randrange(len(candidates))]

    actors = list(project.actors)
    actor = actors[actor_index]
    new_blocks = _mutate_actor_blocks(actor, target, spec)
    actors[actor_index] = Actor(
        name=actor.name, is_stage=actor.is_stage, blocks=new_blocks,
        script_roots=canvas_roots(new_blocks.values()),
    )
    return RawProject(
        project_id=project.project_id, actors=tuple(actors), warnings=project.warnings
    )


def generate_corpus(
    reference: RawProject,
    n_correct: int,
    mutations: Sequence[MutationSpec],
    out_dir: str | Path,
) -> list[Path]:
    """Write a synthetic classroom: clones of the reference plus mutants.

    Returns the written paths. File naming is fixed (correct_NNN.sb3,
    mutant_NNN_<kind>.sb3) so reloading the directory is deterministic.
    """
    if n_correct < 0:
        raise InvalidConfig(f"n_correct must be >= 0, got {n_correct}")
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise OutputUnwritable(f"{out}: {exc}") from exc

    clone = _zipped(project_payload(reference))  # rendered and deflated once
    written = [_write_bytes(out / f"correct_{i:03d}.sb3", clone) for i in range(n_correct)]
    for j, spec in enumerate(mutations):
        mutant = apply_mutation(reference, spec)
        name = f"mutant_{j:03d}_{spec.kind.value.replace('-', '_')}.sb3"
        written.append(write_project_archive(mutant, out / name))
    return written


@dataclass(frozen=True)
class CorpusSpec:
    """Declarative corpus description read from a JSON file."""

    reference: Path
    n_correct: int
    mutations: tuple[MutationSpec, ...]


def load_corpus_spec(path: str | Path) -> CorpusSpec:
    """Parse a corpus spec file.

    Format: {"reference": "ref.sb3", "n_correct": 30, "mutations":
    [{"kind": "wrong-block", "target": "...", "replacement": "...",
    "seed": 0}, ...]}. The reference path is resolved relative to the
    spec file.
    """
    p = Path(path)
    try:
        doc = json.loads(p.read_text("utf-8"))
    except OSError as exc:
        raise InvalidConfig(f"{p}: cannot read corpus spec: {exc}") from exc
    except ValueError as exc:
        raise InvalidConfig(f"{p}: corpus spec is not valid JSON") from exc
    if not isinstance(doc, dict) or not isinstance(doc.get("reference"), str):
        raise InvalidConfig(f"{p}: corpus spec needs a reference path")
    n_correct = doc.get("n_correct", 0)
    # bool is a subclass of int, but true is not a count or a seed.
    if isinstance(n_correct, bool) or not isinstance(n_correct, int) or n_correct < 0:
        raise InvalidConfig(f"{p}: n_correct must be a nonnegative integer")
    raw_mutations = doc.get("mutations", [])
    if not isinstance(raw_mutations, list):
        raise InvalidConfig(f"{p}: mutations must be a list of objects")
    mutations = []
    for i, m in enumerate(raw_mutations):
        if not isinstance(m, dict):
            raise InvalidConfig(f"{p}: mutation {i} is not an object")
        kind_name = str(m.get("kind", "")).replace("_", "-")
        try:
            kind = MutationKind(kind_name)
        except ValueError:
            valid = ", ".join(k.value for k in MutationKind)
            raise InvalidConfig(
                f"{p}: mutation {i} has unknown kind {m.get('kind')!r} (expected one of: {valid})"
            ) from None
        target = m.get("target")
        if not isinstance(target, str) or not target:
            raise InvalidConfig(f"{p}: mutation {i} needs a target selector")
        replacement = m.get("replacement")
        if replacement is not None and not isinstance(replacement, str):
            raise InvalidConfig(f"{p}: mutation {i} replacement must be a string")
        seed = m.get("seed", 0)
        if isinstance(seed, bool) or not isinstance(seed, int):
            raise InvalidConfig(f"{p}: mutation {i} seed must be an integer")
        mutations.append(
            MutationSpec(kind=kind, target=target, replacement=replacement, seed=seed)
        )
    reference = (p.parent / doc["reference"]).resolve()
    return CorpusSpec(reference=reference, n_correct=n_correct, mutations=tuple(mutations))
