"""Loading Scratch 3 solution archives and enumerating their scripts.

A dataset is a directory of .sb3 archives (zip files with a project.json
inside); bare project.json files are accepted too. Loading is defensive:
one malformed archive must never take down the rest of a classroom's
submissions, and schema oddities inside a project degrade to warning
records instead of aborting the project.
"""

from __future__ import annotations

import io
import json
import logging
import lzma
import math
import zipfile
import zlib
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable, Iterator, Mapping

from .blocks import PROCEDURE_OPCODES, BlockKind, classify_opcode
from .errors import ArchiveUnreadable, DatasetEmpty, MalformedProject

log = logging.getLogger("blockmine")

# File suffixes scanned inside a dataset directory.
_ARCHIVE_SUFFIXES = {".sb3", ".json", ".zip"}


@dataclass(frozen=True)
class RawBlock:
    """One block as stored in project.json, with inputs abstracted to ids.

    substacks holds the body (and else-body) block ids for control blocks;
    reporter_children holds ids of blocks plugged into value inputs. Both
    reference blocks of the same actor or are absent.
    """

    id: str
    opcode: str
    next: str | None = None
    parent: str | None = None
    substacks: tuple[str | None, ...] = ()
    reporter_children: tuple[str, ...] = ()
    is_top_level: bool = False
    is_shadow: bool = False
    proccode: str = ""
    x: float = 0.0
    y: float = 0.0


@dataclass(frozen=True)
class Actor:
    """A stage or sprite: a named owner of blocks and top-level stacks."""

    name: str
    is_stage: bool
    blocks: Mapping[str, RawBlock]
    script_roots: tuple[str, ...]


@dataclass(frozen=True)
class RawProject:
    """A parsed solution archive."""

    project_id: str
    actors: tuple[Actor, ...] = ()
    warnings: tuple[str, ...] = ()

    @property
    def sprites(self) -> tuple[Actor, ...]:
        return tuple(a for a in self.actors if not a.is_stage)

    def actor(self, name: str) -> Actor:
        for a in self.actors:
            if a.name == name:
                return a
        raise KeyError(name)

    def block_count(self) -> int:
        """Number of real (non-shadow) blocks across all actors."""
        return sum(
            1 for a in self.actors for b in a.blocks.values() if not b.is_shadow
        )


@dataclass(frozen=True, order=True)
class ScriptSource:
    """Provenance of one script: where it lives inside the dataset."""

    project_id: str
    actor_name: str
    script_index: int
    root_block: str = ""

    @property
    def ident(self) -> str:
        return f"{self.project_id}/{self.actor_name}[{self.script_index}]"

    def __str__(self) -> str:
        return self.ident


@dataclass(frozen=True)
class SkipRecord:
    """An archive that could not be loaded, and why."""

    path: Path
    reason: str


# What zipfile and its decompressors raise for a damaged, encrypted or
# unsupported archive. RuntimeError covers encryption and, through
# NotImplementedError, unknown compression methods and zip versions;
# ValueError covers bad offsets and undecodable member names.
_ZIP_ERRORS = (zipfile.BadZipFile, OSError, EOFError, ValueError, RuntimeError,
               zlib.error, lzma.LZMAError)


# Largest project.json an archive may inflate to. The member is read with
# this bound, not by its header's size field, which a crafted archive can
# set to anything; hand-built projects stay far below it.
MAX_PROJECT_BYTES = 64 * 1024 * 1024


def _project_document(data: bytes, path: Path) -> dict:
    """Extract the project document from raw archive bytes."""
    if zipfile.is_zipfile(io.BytesIO(data)):
        try:
            with zipfile.ZipFile(io.BytesIO(data)) as zf, zf.open("project.json") as member:
                text = member.read(MAX_PROJECT_BYTES + 1)
        except KeyError:
            raise MalformedProject(f"{path.name}: archive has no project.json") from None
        except _ZIP_ERRORS as exc:
            raise ArchiveUnreadable(f"{path.name}: broken zip archive: {exc}") from exc
        if len(text) > MAX_PROJECT_BYTES:
            raise MalformedProject(
                f"{path.name}: project.json inflates past {MAX_PROJECT_BYTES} bytes"
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
    """Split a block's inputs into (substacks, reporter child ids).

    Each input value is [shadow_state, primary, obscured?] where primary and
    obscured are either block-id strings or inline primitive arrays; only the
    id strings matter here.
    """
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
    """A canvas coordinate; anything but a finite number reads as 0 with a warning."""
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
    name = str(target.get("name", ""))
    is_stage = bool(target.get("isStage", False))
    raw_blocks = target.get("blocks")
    parsed: dict[str, RawBlock] = {}
    if isinstance(raw_blocks, dict):
        for block_id, raw in raw_blocks.items():
            if not isinstance(raw, dict):
                # Loose variable/list reporters sit on the canvas as arrays.
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

    # Resolve cross-references: a dangling pointer is cleared, not fatal.
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
        resolved[block_id] = replace(block, **changes) if changes else block

    # Custom procedure definitions carry their name on the prototype block.
    for block_id, block in list(resolved.items()):
        if block.opcode == "procedures_definition" and not block.proccode:
            for child in block.reporter_children:
                proto = resolved.get(child)
                if proto is not None and proto.proccode:
                    resolved[block_id] = replace(block, proccode=proto.proccode)
                    break

    return Actor(name=name, is_stage=is_stage, blocks=resolved,
                 script_roots=canvas_roots(resolved.values()))


def canvas_roots(blocks: Iterable[RawBlock]) -> tuple[str, ...]:
    """The ids of the top-level stacks in canvas reading order: top to
    bottom, left to right, then id. A shadow block starts no stack."""
    tops = [b for b in blocks if b.is_top_level and not b.is_shadow]
    return tuple(b.id for b in sorted(tops, key=lambda b: (b.y, b.x, b.id)))


# Deepest substack nesting a script may have. The model builder recurses
# once per level, and Python stops it at about 1000 frames; no script made
# in the Scratch editor comes near this depth.
MAX_NESTING = 500

# One command block as the model builder reads it: opcode, label detail (the
# proccode of a procedure block, else ""), and one entry per substack slot:
# the index of that slot's chain in the shape, or None for an empty slot.
ShapeBlock = tuple[str, str, tuple[int | None, ...]]
# The command chains of a stack; chain 0 is the stack itself.
Shape = tuple[tuple[ShapeBlock, ...], ...]


def stack_shape(actor: Actor, root_id: str) -> Shape:
    """The block structure of the stack at root_id, checked as it is walked.

    This is the one walk over a stack's blocks: load_project checks every
    stack with it, script_shapes keeps the stacks whose shape holds a
    block, and the model builder reads nothing else. Chains are numbered in
    breadth-first order from the stack itself, and each block names its
    substacks by chain number, so equal block structures give equal shapes.
    Reporter blocks are left out of their chain; a substack hung under one
    (Scratch never writes it) is still walked and kept as a chain, but no
    slot names it. Block ids, canvas coordinates and what is plugged into
    value inputs are left out. The tuple nests to a fixed depth however
    deep the stack is, so comparing two shapes never recurses once per
    level. A reference to a missing block ends its chain.

    Raises MalformedProject when the walk reaches a block twice, through
    next or a substack: in a well-formed stack every block has one parent,
    and a model of a reference cycle would never end. Also raises it when
    substacks nest deeper than MAX_NESTING.
    """
    seen: set[str] = set()
    pending: list[tuple[str, int]] = [(root_id, 0)]  # chain roots and their depths
    chains: list[tuple[ShapeBlock, ...]] = []
    for block_id, depth in pending:  # pending grows as substacks are found
        if depth > MAX_NESTING:
            raise MalformedProject(f"nests substacks deeper than {MAX_NESTING} levels")
        chain: list[ShapeBlock] = []
        while block_id is not None and block_id in actor.blocks:
            if block_id in seen:
                raise MalformedProject(f"reaches block {block_id!r} twice")
            seen.add(block_id)
            block = actor.blocks[block_id]
            slots: list[int | None] = []
            for sub in block.substacks:
                if sub is None:
                    slots.append(None)
                else:
                    slots.append(len(pending))
                    pending.append((sub, depth + 1))
            if classify_opcode(block.opcode) is not BlockKind.REPORTER:
                detail = block.proccode if block.opcode in PROCEDURE_OPCODES else ""
                chain.append((block.opcode, detail, tuple(slots)))
            block_id = block.next
        chains.append(tuple(chain))
    return tuple(chains)


def load_project(path: str | Path) -> RawProject:
    """Parse one solution archive (.sb3 zip or bare project.json).

    Raises ArchiveUnreadable for bytes that are neither a readable zip nor
    JSON, and MalformedProject when the archive exists but holds no usable
    project, when its project.json inflates past MAX_PROJECT_BYTES, or
    when a script reaches one block twice or nests its substacks deeper
    than MAX_NESTING. Other schema violations inside a valid project become
    warning records.
    """
    p = Path(path)
    try:
        data = p.read_bytes()
    except OSError as exc:
        raise ArchiveUnreadable(f"{p}: {exc}") from exc
    doc = _project_document(data, p)

    warnings: list[str] = []
    actors: list[Actor] = []
    for target in doc["targets"]:
        if not isinstance(target, dict):
            warnings.append("dropped non-object target entry")
            continue
        actor = _parse_target(target, warnings)
        for root_id in actor.script_roots:
            try:
                stack_shape(actor, root_id)
            except MalformedProject as exc:
                reason = f"{p.name}: {actor.name}: script {root_id!r} {exc}"
                raise MalformedProject(reason) from None
        actors.append(actor)

    # Duplicate actor names would break script provenance; disambiguate.
    seen: dict[str, int] = {}
    for i, actor in enumerate(actors):
        n = seen.get(actor.name, 0)
        seen[actor.name] = n + 1
        if n:
            new_name = f"{actor.name}#{n + 1}"
            warnings.append(f"duplicate actor name {actor.name!r} renamed {new_name!r}")
            actors[i] = Actor(new_name, actor.is_stage, actor.blocks, actor.script_roots)

    stages = sum(1 for a in actors if a.is_stage)
    if stages != 1:
        warnings.append(f"expected exactly one stage target, found {stages}")

    return RawProject(project_id=p.stem, actors=tuple(actors), warnings=tuple(warnings))


def iter_dataset(
    directory: str | Path, skips: list[SkipRecord] | None = None
) -> Iterator[RawProject]:
    """Load the archives of a directory one at a time, in filename order.

    This is the one scan over a dataset: each project is parsed when the
    caller asks for it, so a caller that keeps only what it derives from a
    project holds one RawProject at a time. An archive that cannot be used
    is logged, appended to `skips` when that list is given, and passed
    over. Filename stems can collide across suffixes (a.sb3 and a.json):
    the second project loaded with a stem is renamed `<stem>#2`, the third
    `<stem>#3`. Raises DatasetEmpty, when iterated, for a path that is not
    a directory, and after the last archive when none could be loaded.
    """
    d = Path(directory)
    if not d.is_dir():
        raise DatasetEmpty(f"{d}: not a directory")
    candidates = sorted(
        f for f in d.iterdir() if f.is_file() and f.suffix.lower() in _ARCHIVE_SUFFIXES
    )
    seen: dict[str, int] = {}
    for f in candidates:
        try:
            project = load_project(f)
        except (ArchiveUnreadable, MalformedProject) as exc:
            log.warning("skipping %s: %s", f.name, exc)
            if skips is not None:
                skips.append(SkipRecord(path=f, reason=str(exc)))
            continue
        n = seen.get(project.project_id, 0)
        seen[project.project_id] = n + 1
        if n:
            project = replace(project, project_id=f"{project.project_id}#{n + 1}")
        yield project
    if not seen:
        raise DatasetEmpty(f"{d}: no loadable project archives")


def scan_dataset(directory: str | Path) -> tuple[list[RawProject], list[SkipRecord]]:
    """Every project iter_dataset loads, and a skip record per archive it
    passes over; both in filename order. Raises DatasetEmpty as it does."""
    skips: list[SkipRecord] = []
    projects = list(iter_dataset(directory, skips))
    return projects, skips


def load_dataset(directory: str | Path) -> list[RawProject]:
    """Every project iter_dataset loads, in filename order."""
    return list(iter_dataset(directory))


def script_shapes(project: RawProject) -> list[tuple[ScriptSource, Shape]]:
    """The scripts of a project, each with its stack_shape.

    A script is a top-level stack whose shape holds a block: at least one
    block in a command slot (unknown opcodes count as commands). A stack
    that is a lone dangling reporter is not a script. Order: actors as
    stored, roots in canvas reading order; script indices count per actor.
    """
    pairs: list[tuple[ScriptSource, Shape]] = []
    for actor in project.actors:
        index = 0
        for root_id in actor.script_roots:
            shape = stack_shape(actor, root_id)
            if any(shape):
                source = ScriptSource(project.project_id, actor.name, index, root_id)
                pairs.append((source, shape))
                index += 1
    return pairs


def enumerate_scripts(project: RawProject) -> list[ScriptSource]:
    """The scripts of a project, as script_shapes finds and orders them."""
    return [script for script, _ in script_shapes(project)]
