"""Loading Scratch 3 solution archives and enumerating their scripts.

A dataset is a directory of .sb3 archives (zip files with a project.json
inside); bare project.json files are accepted too. A plain archive, such
as every one the corpus writer makes, is read with struct and one zlib
call (_plain_member); zipfile reads every other one, and bytes that are
no zip archive are read as JSON text. Loading is defensive:
one malformed archive must never take down the rest of a classroom's
submissions, and schema oddities inside a project degrade to warning
records instead of aborting the project.

A dataset is scanned in filename order, one archive at a time.
iter_dataset yields each RawProject. iter_project_scripts yields only
what the analysis reads of a project (ProjectScripts). For a large
classroom it loads slices of the archives in forked worker processes,
which send those summaries back through pipes. Skips, renames and
DatasetEmpty are decided in the calling process by one scan loop, so
both scans see the same projects in the same order.
"""

from __future__ import annotations

import io
import json
import logging
import lzma
import math
import os
import struct
import threading
import zipfile
import zlib
from dataclasses import dataclass, replace
from functools import cached_property, partial
from pathlib import Path
from typing import Callable, Generator, Iterable, Iterator, Mapping, NamedTuple, NoReturn

from .blocks import PROCEDURE_OPCODES, BlockKind, classify_opcode
from .errors import ArchiveUnreadable, BlockmineError, DatasetEmpty, MalformedProject

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


# The three records of a zip archive, as PKWARE's APPNOTE lays them out
# (sections 4.3.16, 4.3.12 and 4.3.7): _plain_member reads them, and the
# corpus writer writes them.
_END_RECORD = struct.Struct("<4s4H2LH")  # 22 bytes
_CENTRAL_ENTRY = struct.Struct("<4s4B4HL2L5H2L")  # 46 bytes, then name and comment
_LOCAL_HEADER = struct.Struct("<4s2B4HL2L2H")  # 30 bytes, then name and extra field
# zipfile's own limits: the newest zip version it reads, and the flag bits
# it refuses a member for (encrypted, compressed patched data, strong
# encryption) or reads its name by (UTF-8).
_MAX_EXTRACT_VERSION = 63
_REFUSED_FLAGS = 0x61
_UTF8_NAME = 0x800


def _plain_member(data: bytes) -> bytes | None:
    """project.json's bytes when `data` is a plain zip archive, inflated by
    one zlib call; None for any other archive, which zipfile then reads.
    Never raises.

    A plain archive is one that zipfile reads to the same bytes with no
    error or warning, laid out so that none of zipfile's objects is needed:
    - the end record is the last 22 bytes (no archive comment) and names
      one disk, and the central directory ends where the end record
      starts, so no bytes come before the archive and no zip64 records
      follow the directory;
    - the central entries fill the directory exactly, each with no extra
      field, no NUL in its name, a version zipfile reads and, where the
      name is flagged UTF-8, a name that decodes so;
    - project.json is the last entry of that name, as in zipfile. It is
      stored or deflated, neither encrypted nor patched, at a header
      offset no other entry has, and its entry gives a length of at most
      MAX_PROJECT_BYTES, so a bomb is left to zipfile's bounded read;
    - its local header names it, and its data ends at or before the next
      local header or else the central directory;
    - a deflated stream ends with no input left over, and the text has the
      length and CRC-32 of its central entry.
    """
    try:
        end = len(data) - _END_RECORD.size
        signature, disk, cd_disk, on_disk, entries, cd_size, cd_offset, comment = (
            _END_RECORD.unpack_from(data, end)
        )
        if (signature != b"PK\x05\x06" or comment or disk or cd_disk or on_disk != entries
                or cd_offset + cd_size != end or data[end - 20:end - 16] == b"PK\x06\x07"):
            return None
        member = None
        offsets = []
        position = cd_offset
        for _ in range(entries):
            (signature, _, _, version, _, flags, method, _, _, crc, packed, size,
             name_length, extra_length, comment_length, _, _, _, offset,
             ) = _CENTRAL_ENTRY.unpack_from(data, position)
            name = data[position + 46:position + 46 + name_length]
            if (signature != b"PK\x01\x02" or version > _MAX_EXTRACT_VERSION or extra_length
                    or b"\0" in name):
                return None
            if flags & _UTF8_NAME:
                name.decode("utf-8")
            if name == b"project.json":
                member = flags, method, crc, packed, size, offset
            offsets.append(offset)
            position += 46 + name_length + comment_length
        if position != end or member is None:
            return None
        flags, method, crc, packed, size, offset = member
        if (flags & _REFUSED_FLAGS or method not in (0, 8) or size > MAX_PROJECT_BYTES
                or offsets.count(offset) > 1):
            return None
        signature, *_, name_length, extra_length = _LOCAL_HEADER.unpack_from(data, offset)
        start = offset + 30 + name_length + extra_length
        limit = min([cd_offset, *(o for o in offsets if o > offset)])
        if (signature != b"PK\x03\x04" or start + packed > limit
                or data[offset + 30:offset + 30 + name_length] != b"project.json"):
            return None
        text = data[start:start + packed]
        if method == 8:
            inflater = zlib.decompressobj(-15)
            text = inflater.decompress(text, size + 1)
            if not inflater.eof or inflater.unused_data:
                return None
        if len(text) != size or zlib.crc32(text) != crc:
            return None
        return text
    except (struct.error, UnicodeDecodeError, zlib.error):
        return None


def _project_document(data: bytes, path: Path) -> dict:
    """The project document of raw archive bytes: the project.json of a zip
    archive, or else the bytes themselves read as JSON text. Either text
    is capped at MAX_PROJECT_BYTES. A plain archive is read by
    _plain_member, any other by zipfile."""
    text = _plain_member(data)
    not_json = MalformedProject(f"{path.name}: project.json is not valid JSON")
    if text is None:
        try:
            archive = zipfile.ZipFile(io.BytesIO(data))
        except zipfile.BadZipFile as exc:  # no readable end record: try JSON text
            text = data
            not_json = ArchiveUnreadable(
                f"{path.name}: neither a zip archive nor JSON text ({exc})"
            )
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


def _coordinate(value: object, axis: str, owner: str, block_id: object,
                warnings: list[str]) -> float:
    """The canvas coordinate of a truthy `value`: anything but a finite
    number reads as 0 with a warning. _parse_target reads a falsy value,
    or none, as 0 without calling this."""
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


# RawBlock from a tuple of all its fields, made in C: RawBlock(...) would
# run the Python-level __new__ that NamedTuple generates.
_new_raw_block = partial(tuple.__new__, RawBlock)


def _parse_target(target: dict, warnings: list[str]) -> Actor:
    """The actor of a target, each block built once. Dropped entries and
    bad coordinates are warned about as they are met, then the references
    to missing blocks, which are cleared rather than fatal."""
    name = str(target.get("name", ""))
    raw_blocks = target.get("blocks")
    raw_blocks = raw_blocks if isinstance(raw_blocks, dict) else {}
    usable = {block_id for block_id, raw in raw_blocks.items()
              if isinstance(raw, dict) and isinstance(opcode := raw.get("opcode"), str) and opcode}
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
        inputs = raw.get("inputs")
        substacks, children = _parse_inputs(inputs) if inputs else ((), ())
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
        x = raw.get("x")
        y = raw.get("y")
        blocks[block_id] = _new_raw_block((
            block_id, opcode, next_id, parent_id, substacks, children,
            bool(raw.get("topLevel", False)), bool(raw.get("shadow", False)), proccode,
            _coordinate(x, "x", name, block_id, warnings) if x else 0.0,
            _coordinate(y, "y", name, block_id, warnings) if y else 0.0,
        ))
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
        block = blocks.get(block_id)
        while block is not None:
            if block_id in seen:
                raise MalformedProject(f"script {root_id!r} reaches block {block_id!r} twice")
            seen.add(block_id)
            slots: tuple[int | None, ...] = ()
            if block.substacks:
                found: list[int | None] = []
                for sub in block.substacks:
                    if sub is None:
                        found.append(None)
                    else:
                        found.append(len(pending))
                        pending.append((sub, depth + 1))
                while found and found[-1] is None:
                    found.pop()
                slots = tuple(found)
            if classify_opcode(block.opcode) is not BlockKind.REPORTER:
                detail = block.proccode if block.opcode in PROCEDURE_OPCODES else ""
                chain.append((block.opcode, detail, slots))
            block_id = block.next
            block = blocks.get(block_id)
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

    Each project is parsed in this process when the caller asks for it,
    so a caller that keeps only what it derives from a
    project holds one RawProject at a time. An archive that cannot be used
    is logged, appended to `skips` when that list is given, and passed
    over. Filename stems can collide across suffixes (a.sb3 and a.json):
    a repeated stem becomes `<stem>#k`, the least k >= 2 no archive's stem
    or earlier id uses. Raises DatasetEmpty, when iterated, for a path that
    is not a directory, and after the last archive when none could be loaded.
    """
    for name, project in _scan(directory, skips, partial(_load_each, load_project)):
        yield project if name == project.project_id else replace(project, project_id=name)


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


class ProjectScripts(NamedTuple):
    """What the analysis reads of one project: its id, its number of real
    blocks and of sprites, and the (script, shape) pairs of script_shapes.
    It is small and picklable, so a worker process sends it in place of
    the project."""

    project_id: str
    blocks: int
    sprites: int
    scripts: tuple[tuple[ScriptSource, Shape], ...]

    def renamed(self, project_id: str) -> ProjectScripts:
        scripts = tuple((replace(s, project_id=project_id), shape) for s, shape in self.scripts)
        return self._replace(project_id=project_id, scripts=scripts)


def project_scripts(project: RawProject) -> ProjectScripts:
    """The ProjectScripts of a loaded project."""
    return ProjectScripts(
        project.project_id, project.block_count(), len(project.sprites),
        tuple(script_shapes(project)),
    )


# An archive and what loading it gave: its project or summary, or the
# error that makes the scan pass over it.
_Loaded = tuple[Path, RawProject | ProjectScripts | BlockmineError]


def _load_each(
    load: Callable[[Path], RawProject | ProjectScripts], files: Iterable[Path]
) -> Generator[_Loaded, None, None]:
    """(path, load(path)) for each path in order; the error in place of
    the result for an archive that cannot be used."""
    for f in files:
        try:
            loaded = load(f)
        except (ArchiveUnreadable, MalformedProject) as exc:
            loaded = exc
        yield f, loaded


def _scan(
    directory: str | Path,
    skips: list[SkipRecord] | None,
    load_all: Callable[[list[Path]], Generator[_Loaded, None, None]],
) -> Iterator[tuple[str, RawProject | ProjectScripts]]:
    """The one scan loop over a dataset: (unique project id, loaded) for
    each archive that loads, in filename order. `load_all` gets every
    candidate file and yields _load_each's pairs for them, in that order.
    Skips, renames and DatasetEmpty are decided here, as iter_dataset
    describes."""
    d = Path(directory)
    if not d.is_dir():
        raise DatasetEmpty(f"{d}: not a directory")
    try:
        with os.scandir(d) as entries:
            file_names = sorted(entry.name for entry in entries if entry.is_file())
    except OSError as exc:
        raise DatasetEmpty(f"{d}: cannot list the directory: {exc}") from exc
    candidates = [f for f in map(d.joinpath, file_names) if f.suffix.lower() in _ARCHIVE_SUFFIXES]
    names = _Names(f.stem for f in candidates)
    outcomes = load_all(candidates)
    try:
        for f, loaded in outcomes:
            if isinstance(loaded, BlockmineError):
                log.warning("skipping %s: %s", f.name, loaded)
                if skips is not None:
                    skips.append(SkipRecord(path=f, reason=str(loaded)))
                continue
            yield names.claim(loaded.project_id), loaded
    finally:
        outcomes.close()
    if not names.claimed:
        raise DatasetEmpty(f"{d}: no loadable project archives")


# Fewest archives worth a process of their own. A worker costs a fork
# (1 to 6 ms), a pickle of its slice's shapes and about 16 MB of resident
# memory while it runs, and small archives load in about 0.15-0.2 ms each.
# On two shared x86_64 vCPUs (Python 3.11.7, median of 41 alternating
# loads), 500 one-script archives loaded in 0.10 s in one process and
# 0.08 s in two, 250 in 37 ms in either, and 100 in 22 ms in one and 19 ms
# in two: below 250 a second process saves a few milliseconds at most,
# too little for a worker's memory.
MIN_ARCHIVES_PER_PROCESS = 250


def usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _process_count(jobs: int, archives: int) -> int:
    """How many processes load `archives` archives: at most `jobs`, one
    per usable CPU and one per MIN_ARCHIVES_PER_PROCESS archives. One,
    this process alone, where os.fork is missing or another thread runs:
    a forked child gets a copy of the locks other threads hold."""
    count = min(jobs, usable_cpus(), archives // MIN_ARCHIVES_PER_PROCESS)
    if count <= 1 or not hasattr(os, "fork"):
        return 1
    return count if threading.active_count() == 1 else 1


def _load_scripts(path: Path) -> ProjectScripts:
    return project_scripts(load_project(path))


def _serve(files: list[Path], fd: int) -> NoReturn:
    """The body of a forked worker: load `files` as _load_each does and
    write (the outcomes, the failure or None) to the pipe `fd`, pickled.
    The outcomes stop at the archive whose load raised the failure, an
    exception other than a skip; a failure that does not pickle is sent
    as its description. Equal shapes are sent as one object, so each is
    pickled once. Never returns: the worker leaves by os._exit, so none
    of the parent's cleanup runs twice."""
    import pickle

    status = 1
    try:
        outcomes: list[ProjectScripts | BlockmineError] = []
        failure: BaseException | str | None = None
        shapes: dict[Shape, Shape] = {}
        try:
            for _, loaded in _load_each(_load_scripts, files):
                if isinstance(loaded, ProjectScripts):
                    loaded = loaded._replace(scripts=tuple(
                        (script, shapes.setdefault(shape, shape)) for script, shape in loaded.scripts
                    ))
                outcomes.append(loaded)
        except BaseException as exc:  # sent to the parent, which raises it
            failure = exc
        try:
            data = pickle.dumps((outcomes, failure), pickle.HIGHEST_PROTOCOL)
        except Exception as exc:
            failure = f"{failure!r}, which cannot be sent back ({exc!r})"
            data = pickle.dumps((outcomes, failure), pickle.HIGHEST_PROTOCOL)
        with open(fd, "wb") as pipe:
            pipe.write(data)
        status = 0
    finally:
        os._exit(status)


class _Worker:
    """A forked child process that loads a slice of a dataset's archives."""

    def __init__(self, files: list[Path]) -> None:
        import pickle  # noqa: F401  (loaded before the fork, so no child imports it)

        self.files = files
        read_fd, write_fd = os.pipe()
        try:
            pid = os.fork()
        except BaseException:
            os.close(read_fd)
            os.close(write_fd)
            raise
        if pid == 0:
            try:
                os.close(read_fd)
            finally:
                _serve(files, write_fd)
        os.close(write_fd)
        self.pid: int | None = pid
        self.pipe = open(read_fd, "rb")

    def results(self) -> Iterator[_Loaded]:
        """_load_each's pairs for the slice, once the child has sent them
        all and been reaped. Raises the child's failure after the pairs
        before it; a RuntimeError naming the slice when the child died or
        its failure cannot be rebuilt here."""
        import pickle

        with self.pipe:
            data = self.pipe.read()
        _, status = os.waitpid(self.pid, 0)
        self.pid = None
        where = f"worker loading {self.files[0].name} to {self.files[-1].name}"
        code = os.waitstatus_to_exitcode(status)
        if code != 0:
            raise RuntimeError(f"{where} died with exit status {code}")
        try:
            outcomes, failure = pickle.loads(data)  # bytes that the child wrote
        except Exception as exc:
            raise RuntimeError(f"{where} failed, and its failure cannot be read: {exc!r}") from exc
        yield from zip(self.files, outcomes)
        if isinstance(failure, BaseException):
            raise failure
        if failure is not None:
            raise RuntimeError(f"{where} failed: {failure}")

    def stop(self) -> None:
        """Close the pipe; end and reap the child unless results() has."""
        self.pipe.close()
        if self.pid is not None:
            import signal

            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
            self.pid = None


def _scripts_of(files: list[Path], jobs: int) -> Generator[_Loaded, None, None]:
    """_load_each's pairs for project_scripts(load_project(f)), loaded in
    up to `jobs` processes. The files are cut into one contiguous slice
    per process; this process loads the first, a forked _Worker each
    other, and this process, last, those of workers that cannot start.
    Every worker is reaped before this returns or raises."""
    processes = _process_count(jobs, len(files))
    bounds = [len(files) * k // processes for k in range(processes + 1)]
    workers: list[_Worker] = []
    try:
        for start, stop in zip(bounds[1:], bounds[2:]):
            try:
                workers.append(_Worker(files[start:stop]))
            except OSError as exc:  # a pipe or fork the system refuses
                log.warning("cannot start a worker (%s); this process loads the rest", exc)
                break
        yield from _load_each(_load_scripts, files[: bounds[1]])
        for worker in workers:
            yield from worker.results()
        yield from _load_each(_load_scripts, files[bounds[len(workers) + 1] :])
    finally:
        for worker in workers:
            worker.stop()


def iter_project_scripts(
    directory: str | Path, skips: list[SkipRecord] | None = None, jobs: int = 1
) -> Iterator[ProjectScripts]:
    """The ProjectScripts of each project iter_dataset would load, with
    the same ids and skips, logged and recorded in the same order, and
    DatasetEmpty raised as it does. The archives are loaded by at most
    `jobs` processes, one per usable CPU and per MIN_ARCHIVES_PER_PROCESS
    archives; each loads a contiguous slice with load_project, so an
    archive loads, fails or is skipped as it would in this process. An
    exception other than a skip is raised here, with its type, once every
    worker is reaped.
    """
    for name, scripts in _scan(directory, skips, partial(_scripts_of, jobs=jobs)):
        yield scripts if name == scripts.project_id else scripts.renamed(name)
