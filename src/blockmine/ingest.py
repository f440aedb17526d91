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
import os
import zipfile
import zlib
from dataclasses import dataclass, replace
from functools import cached_property
from pathlib import Path
from typing import Iterable, Iterator, Mapping, NamedTuple

from .blocks import PROCEDURE_OPCODES, BlockKind, classify_opcode
from .errors import ArchiveUnreadable, DatasetEmpty, MalformedProject

log = logging.getLogger("blockmine")

# File suffixes scanned inside a dataset directory.
_ARCHIVE_SUFFIXES = {".sb3", ".json", ".zip"}


class RawBlock(NamedTuple):
    """One block as stored in project.json, with inputs abstracted to ids.

    substacks holds the body (and else-body) block ids for control blocks,
    None for an empty slot; reporter_children holds ids of blocks plugged
    into value inputs, in input-name order. Both reference blocks of the
    same actor or are absent. A slot is kept as the archive has it, so
    (b, None) and (b,) are unequal blocks, but stack_shape leaves trailing
    empty slots out and so gives them one shape. corpus.project_to_document
    writes back every field the analysis reads (an empty slot as
    [2, null]), so a built or mutated block reloads equal.

    A block is an immutable, hashable NamedTuple, the cheapest record to
    build once per block at load; copy one with `block._replace(...)`, not
    dataclasses.replace. It must not change after load: Actor.shapes keeps
    a walk over the blocks.
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

    @cached_property
    def shapes(self) -> dict[str, Shape]:
        """The stack_shape of each top-level stack by root id, in canvas reading
        order, each taken once on first use. Raises as stack_shape does."""
        return {root_id: stack_shape(self, root_id) for root_id in self.script_roots}


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
        return sum(not b.is_shadow for a in self.actors for b in a.blocks.values())


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


# Largest project.json an archive may inflate to, or a bare JSON file may
# hold. A zip member is read with this bound, not by its header's size
# field, which a crafted archive can set to anything; hand-built projects
# stay far below it.
MAX_PROJECT_BYTES = 64 * 1024 * 1024


def _project_document(data: bytes, path: Path) -> dict:
    """The project document of raw archive bytes: the project.json of a zip
    archive, or else the bytes themselves read as JSON text. Either text
    is capped at MAX_PROJECT_BYTES."""
    try:
        archive = zipfile.ZipFile(io.BytesIO(data))
    except zipfile.BadZipFile as exc:  # no readable end record: try JSON text
        text = data
        not_json = ArchiveUnreadable(f"{path.name}: neither a zip archive nor JSON text ({exc})")
    except _ZIP_ERRORS as exc:
        raise ArchiveUnreadable(f"{path.name}: broken zip archive: {exc}") from exc
    else:
        try:
            with archive, archive.open("project.json") as member:
                text = member.read(MAX_PROJECT_BYTES + 1)
        except KeyError:
            raise MalformedProject(f"{path.name}: archive has no project.json") from None
        except _ZIP_ERRORS as exc:
            raise ArchiveUnreadable(f"{path.name}: broken zip archive: {exc}") from exc
        not_json = MalformedProject(f"{path.name}: project.json is not valid JSON")
    if len(text) > MAX_PROJECT_BYTES:
        raise MalformedProject(
            f"{path.name}: project.json inflates past {MAX_PROJECT_BYTES} bytes"
        )
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
    id strings matter here. SUBSTACK2 makes two substack slots, SUBSTACK one.
    """
    slots: dict[str, str | None] = {}
    children: list[str] = []
    if isinstance(raw_inputs, dict):
        for name in sorted(raw_inputs):
            value = raw_inputs[name]
            if not isinstance(value, list) or len(value) < 2:
                continue
            refs = [v for v in value[1:] if isinstance(v, str)]
            if name in ("SUBSTACK", "SUBSTACK2"):
                slots[name] = refs[0] if refs else None
            else:
                children.extend(refs)
    if "SUBSTACK2" in slots:
        return (slots.get("SUBSTACK"), slots["SUBSTACK2"]), tuple(children)
    return tuple(slots.values()), tuple(children)


# Largest integer magnitude a float holds exactly.
_EXACT_INT = 2**53


def _coordinate(raw: dict, axis: str, owner: str, block_id: object, warnings: list[str]) -> float:
    """A canvas coordinate; anything but a finite number reads as 0 with a warning."""
    value = raw.get(axis, 0) or 0
    # Fast paths for what the Scratch editor writes; bool, str, huge ints
    # and everything else take the general conversion below.
    if type(value) is float and math.isfinite(value):
        return value
    if type(value) is int and -_EXACT_INT <= value <= _EXACT_INT:
        return float(value)
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


def _proccode(raw: dict) -> str:
    """The procedure name in a raw block's mutation, or ""."""
    mutation = raw.get("mutation")
    if isinstance(mutation, dict) and isinstance(mutation.get("proccode"), str):
        return mutation["proccode"]
    return ""


def _parse_target(target: dict, warnings: list[str]) -> Actor:
    """The actor of a target, each block built once. Dropped entries and
    bad coordinates are warned about as they are met, then the references
    to missing blocks, which are cleared rather than fatal."""
    name = str(target.get("name", ""))
    raw_blocks = target.get("blocks")
    raw_blocks = raw_blocks if isinstance(raw_blocks, dict) else {}
    usable = {block_id for block_id, raw in raw_blocks.items()
              if isinstance(raw, dict) and isinstance(raw.get("opcode"), str) and raw["opcode"]}
    blocks: dict[str, RawBlock] = {}
    repairs: list[str] = []
    for block_id, raw in raw_blocks.items():
        if block_id not in usable:
            if isinstance(raw, dict):
                warnings.append(f"{name}: dropped block {block_id!r} without opcode")
            else:  # loose variable/list reporters sit on the canvas as arrays
                warnings.append(f"{name}: dropped non-block entry {block_id!r}")
            continue
        opcode = raw["opcode"]
        next_id = raw.get("next")
        if not isinstance(next_id, str):
            next_id = None
        elif next_id not in usable:
            repairs.append(f"{name}: block {block_id!r} next -> missing {next_id!r}")
            next_id = None
        parent_id = raw.get("parent")
        if not isinstance(parent_id, str):
            parent_id = None
        elif parent_id not in usable:
            repairs.append(f"{name}: block {block_id!r} parent -> missing {parent_id!r}")
            parent_id = None
        substacks, children = _parse_inputs(raw.get("inputs"))
        if substacks and not usable.issuperset(substacks):  # a missing block or an empty slot
            kept = tuple(s if s in usable else None for s in substacks)
            if kept != substacks:
                repairs.append(f"{name}: block {block_id!r} has a missing substack")
                substacks = kept
        if children and not usable.issuperset(children):
            repairs.append(f"{name}: block {block_id!r} references a missing input block")
            children = tuple(c for c in children if c in usable)
        proccode = _proccode(raw) if "mutation" in raw else ""
        if not proccode and opcode == "procedures_definition":
            # A custom procedure definition carries its name on its prototype.
            for child in children:
                proccode = _proccode(raw_blocks[child])
                if proccode:
                    break
        blocks[block_id] = RawBlock(
            block_id, opcode, next_id, parent_id, substacks, children,
            bool(raw.get("topLevel", False)), bool(raw.get("shadow", False)), proccode,
            _coordinate(raw, "x", name, block_id, warnings),
            _coordinate(raw, "y", name, block_id, warnings),
        )
    warnings.extend(repairs)
    return Actor(name=name, is_stage=bool(target.get("isStage", False)), blocks=blocks,
                 script_roots=canvas_roots(blocks.values()))


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
# Trailing empty slots are left out, so (b, None) and (b,) give one shape.
ShapeBlock = tuple[str, str, tuple[int | None, ...]]
# The command chains of a stack; chain 0 is the stack itself.
Shape = tuple[tuple[ShapeBlock, ...], ...]


def stack_shape(actor: Actor, root_id: str) -> Shape:
    """The block structure of the stack at root_id, checked as it is walked.

    This is the one walk over a stack's blocks, made once per stack by
    Actor.shapes: load_project checks every stack by taking its shape,
    script_shapes keeps the stacks whose shape holds a block, and the model
    builder reads nothing else. Chains are numbered in breadth-first order
    from the stack itself, and each block names its substacks by chain
    number, so equal block structures give equal shapes. Trailing empty
    slots are left out of a block's entry, which the model builder reads
    as empty: a substack slot written as [2, null] and one left out of the
    archive are one structure.
    Reporter blocks are left out of their chain; a substack hung under one
    (Scratch never writes it) is still walked and kept as a chain, but no
    slot names it. Block ids, canvas coordinates and what is plugged into
    value inputs are left out. The tuple nests to a fixed depth however
    deep the stack is, so comparing two shapes never recurses once per
    level. A reference to a missing block ends its chain.

    Raises MalformedProject, naming root_id, when the walk reaches a block
    twice, through next or a substack: in a well-formed stack every block
    has one parent, and a model of a reference cycle would never end. Also
    raises it when substacks nest deeper than MAX_NESTING.
    """
    blocks = actor.blocks
    seen: set[str] = set()
    pending: list[tuple[str, int]] = [(root_id, 0)]  # chain roots and their depths
    chains: list[tuple[ShapeBlock, ...]] = []
    for block_id, depth in pending:  # pending grows as substacks are found
        if depth > MAX_NESTING:
            raise MalformedProject(
                f"script {root_id!r} nests substacks deeper than {MAX_NESTING} levels"
            )
        chain: list[ShapeBlock] = []
        while block_id is not None and block_id in blocks:
            if block_id in seen:
                raise MalformedProject(f"script {root_id!r} reaches block {block_id!r} twice")
            seen.add(block_id)
            block = blocks[block_id]
            slots: list[int | None] = []
            for sub in block.substacks:
                if sub is None:
                    slots.append(None)
                else:
                    slots.append(len(pending))
                    pending.append((sub, depth + 1))
            while slots and slots[-1] is None:
                slots.pop()
            if classify_opcode(block.opcode) is not BlockKind.REPORTER:
                detail = block.proccode if block.opcode in PROCEDURE_OPCODES else ""
                chain.append((block.opcode, detail, tuple(slots)))
            block_id = block.next
        chains.append(tuple(chain))
    return tuple(chains)


class _Names:
    """Unique names in the order they are claimed: a name is kept the first
    time, and a repeat becomes `<name>#k` with the least k >= 2 that no
    name in `taken` and no earlier claim holds."""

    def __init__(self, taken: Iterable[str]) -> None:
        self.taken = set(taken)
        self.claimed: set[str] = set()

    def claim(self, name: str) -> str:
        if name in self.claimed:
            k = 2
            while f"{name}#{k}" in self.taken:
                k += 1
            name = f"{name}#{k}"
            self.taken.add(name)
        self.claimed.add(name)
        return name


def load_project(path: str | Path) -> RawProject:
    """Parse one solution archive (.sb3 zip or bare project.json), opening
    it once and walking each stack once (Actor.shapes keeps the shapes). A
    repeated actor name becomes `<name>#k`, the least k >= 2 that no other
    name uses, with a warning: Cat, Cat, Cat#2 load as Cat, Cat#3, Cat#2.

    Raises ArchiveUnreadable for bytes that are neither a readable zip nor
    JSON, and MalformedProject when the archive exists but holds no usable
    project, when its project.json (zipped or bare) is longer than
    MAX_PROJECT_BYTES, or when a script reaches one block twice or nests
    its substacks deeper than MAX_NESTING. Other schema violations inside
    a valid project become warning records.
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
        if isinstance(target, dict):
            actors.append(_parse_target(target, warnings))
        else:
            warnings.append("dropped non-object target entry")

    names = _Names(actor.name for actor in actors)
    for i, actor in enumerate(actors):
        name = names.claim(actor.name)
        if name != actor.name:
            warnings.append(f"duplicate actor name {actor.name!r} renamed {name!r}")
            actors[i] = actor = replace(actor, name=name)
        try:
            actor.shapes  # walks, and so checks, every stack
        except MalformedProject as exc:
            raise MalformedProject(f"{p.name}: {actor.name}: {exc}") from None

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
    a repeated stem becomes `<stem>#k`, the least k >= 2 no archive's stem
    or earlier id uses. Raises DatasetEmpty, when iterated, for a path that
    is not a directory, and after the last archive when none could be loaded.
    """
    d = Path(directory)
    if not d.is_dir():
        raise DatasetEmpty(f"{d}: not a directory")
    with os.scandir(d) as entries:
        file_names = sorted(entry.name for entry in entries if entry.is_file())
    candidates = [f for f in map(d.joinpath, file_names) if f.suffix.lower() in _ARCHIVE_SUFFIXES]
    names = _Names(f.stem for f in candidates)
    for f in candidates:
        try:
            project = load_project(f)
        except (ArchiveUnreadable, MalformedProject) as exc:
            log.warning("skipping %s: %s", f.name, exc)
            if skips is not None:
                skips.append(SkipRecord(path=f, reason=str(exc)))
            continue
        name = names.claim(project.project_id)
        yield project if name == project.project_id else replace(project, project_id=name)
    if not names.claimed:
        raise DatasetEmpty(f"{d}: no loadable project archives")


def scan_dataset(directory: str | Path) -> tuple[list[RawProject], list[SkipRecord]]:
    """Every project iter_dataset loads, and a skip record per archive it
    passes over; both in filename order. Raises DatasetEmpty as it does."""
    skips: list[SkipRecord] = []
    return list(iter_dataset(directory, skips)), skips


def load_dataset(directory: str | Path) -> list[RawProject]:
    """Every project iter_dataset loads, in filename order."""
    return list(iter_dataset(directory))


def script_shapes(project: RawProject) -> list[tuple[ScriptSource, Shape]]:
    """The scripts of a project, each with its shape from Actor.shapes.

    A script is a top-level stack whose shape holds a block: at least one
    block in a command slot (unknown opcodes count as commands). A stack
    that is a lone dangling reporter is not a script. Order: actors as
    stored, roots in canvas reading order; script indices count per actor.
    """
    pairs: list[tuple[ScriptSource, Shape]] = []
    for actor in project.actors:
        index = 0
        for root_id, shape in actor.shapes.items():
            if any(shape):
                source = ScriptSource(project.project_id, actor.name, index, root_id)
                pairs.append((source, shape))
                index += 1
    return pairs


def enumerate_scripts(project: RawProject) -> list[ScriptSource]:
    """The scripts of a project, as script_shapes finds and orders them."""
    return [script for script, _ in script_shapes(project)]
