"""Seeded synthetic classrooms for the benchmark workloads.

A classroom is one random reference project written once per student, with
random `apply_mutation` edits on some students. Only the public corpus
functions build it (`build_project`, `MutationSpec`, `apply_mutation`,
`write_project_archive`), so the program under test sees nothing but the
archives.

Each workload fixes its layout: the block-tree shapes of the reference
scripts and the list of edit plans, drawn once from the workload's own
layout seed. The run seed then draws the opcodes (a random one-to-one
relabelling of the layout's opcodes), the sprite names, and which student
receives which edit plan. Every seed therefore gives a different classroom
that asks for the same amount of work, so run-to-run spread measures the
program rather than the luck of the draw.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from pathlib import Path

from blockmine import (
    MutationKind,
    MutationSpec,
    RawProject,
    apply_mutation,
    build_project,
    write_project_archive,
)

# Opcodes a seed may draw; the layout uses a prefix of each list.
HATS = (
    "event_whenflagclicked",
    "event_whenkeypressed",
    "event_whenthisspriteclicked",
    "event_whenstageclicked",
    "event_whenbroadcastreceived",
    "event_whenbackdropswitchesto",
    "event_whengreaterthan",
    "control_start_as_clone",
)
COMMANDS = (
    "motion_movesteps",
    "motion_turnright",
    "motion_turnleft",
    "motion_gotoxy",
    "motion_changexby",
    "motion_changeyby",
    "motion_setx",
    "motion_sety",
    "motion_ifonedgebounce",
    "motion_pointindirection",
    "looks_say",
    "looks_sayforsecs",
    "looks_think",
    "looks_nextcostume",
    "looks_switchcostumeto",
    "looks_changesizeby",
    "looks_setsizeto",
    "looks_show",
    "looks_hide",
    "sound_play",
    "sound_playuntildone",
    "sound_changevolumeby",
    "control_wait",
    "control_create_clone_of",
    "event_broadcast",
    "event_broadcastandwait",
    "sensing_askandwait",
    "sensing_resettimer",
    "data_setvariableto",
    "data_changevariableby",
    "data_addtolist",
    "data_deletealloflist",
    "pen_clear",
    "pen_stamp",
    "pen_penDown",
    "pen_penUp",
)
# Control blocks with one body; a forever loop only ever ends a top-level
# chain, since the model drops whatever is stacked below it.
BODY_BLOCKS = ("control_repeat", "control_repeat_until", "control_if")
FOREVER = "control_forever"
IF_ELSE = "control_if_else"


@dataclass(frozen=True)
class Shape:
    """The size parameters of one workload's classroom."""

    projects: int
    sprites: int
    scripts_per_sprite: int
    min_blocks: int
    max_blocks: int
    hats: int
    commands: int
    # Either a fixed number of single-edit students (the rest are verbatim
    # clones), or 0..max_edits edits drawn for every student.
    single_edit_mutants: int = 0
    max_edits: int = 0
    layout_seed: int = 0


def _chain(rng: random.Random, shape: Shape, budget: int, top: bool) -> list:
    """A block chain of exactly `budget` blocks."""
    chain: list = []
    while budget > 0:
        roll = rng.random()
        if budget >= 2 and roll < 0.3:
            body = rng.randint(1, min(4, budget - 1))
            opcode = rng.choice(BODY_BLOCKS)
            if top and budget - 1 == body and rng.random() < 0.5:
                opcode = FOREVER
            chain.append((opcode, _chain(rng, shape, body, False)))
            budget -= 1 + body
        elif budget >= 3 and roll < 0.4:
            then = rng.randint(1, budget - 2)
            other = rng.randint(1, min(3, budget - 1 - then))
            chain.append(
                (IF_ELSE, _chain(rng, shape, then, False), _chain(rng, shape, other, False))
            )
            budget -= 1 + then + other
        else:
            chain.append(COMMANDS[rng.randrange(shape.commands)])
            budget -= 1
    return chain


def _edit(rng: random.Random, shape: Shape, project: RawProject) -> MutationSpec:
    """One edit that `apply_mutation` can carry out on `project`."""
    blocks = sorted(
        (block for actor in project.actors for block in actor.blocks.values()),
        key=lambda block: block.id,
    )
    kind = rng.choice(list(MutationKind))
    if kind is MutationKind.WRONG_ORDER:
        blocks = [block for block in blocks if block.next is not None]
    target = rng.choice(blocks)
    replacement = None
    if kind in (MutationKind.WRONG_BLOCK, MutationKind.EXTRA_BLOCK):
        replacement = rng.choice(
            [c for c in COMMANDS[: shape.commands] if c != target.opcode]
        )
    return MutationSpec(
        kind=kind, target=target.id, replacement=replacement, seed=rng.randrange(1 << 30)
    )


@dataclass(frozen=True)
class Layout:
    """A workload's reference scripts and edit plans, in layout opcodes."""

    sprites: list[list[list]]
    plans: list[list[MutationSpec]]


def make_layout(shape: Shape) -> Layout:
    rng = random.Random(shape.layout_seed)
    sprites = [
        [
            [HATS[rng.randrange(shape.hats)]]
            + _chain(rng, shape, rng.randint(shape.min_blocks, shape.max_blocks) - 1, True)
            for _ in range(shape.scripts_per_sprite)
        ]
        for _ in range(shape.sprites)
    ]
    if shape.single_edit_mutants:
        counts = [1] * shape.single_edit_mutants
        counts += [0] * (shape.projects - shape.single_edit_mutants)
    else:
        counts = [rng.randint(0, shape.max_edits) for _ in range(shape.projects)]
    reference = build_project("reference", [(f"S{i}", s) for i, s in enumerate(sprites)])
    plans = []
    for count in counts:
        project, plan = reference, []
        for _ in range(count):
            spec = _edit(rng, shape, project)
            project = apply_mutation(project, spec)
            plan.append(spec)
        plans.append(plan)
    return Layout(sprites=sprites, plans=plans)


def _relabel(spec, names: dict[str, str]):
    if isinstance(spec, str):
        return names.get(spec, spec)
    return (names.get(spec[0], spec[0]),) + tuple(
        [_relabel(block, names) for block in body] for body in spec[1:]
    )


@dataclass(frozen=True)
class Student:
    """One written archive and how many edits its project received."""

    project_id: str
    edits: int


def write_classroom(shape: Shape, seed: int, out_dir: Path) -> list[Student]:
    """Write the classroom for `seed` into `out_dir`; return its students.

    The same shape and seed always give byte-identical archives.
    """
    layout = make_layout(shape)
    rng = random.Random(seed)
    names = dict(zip(HATS[: shape.hats], rng.sample(HATS, shape.hats)))
    names.update(zip(COMMANDS[: shape.commands], rng.sample(COMMANDS, shape.commands)))
    sprite_names = rng.sample(["Cat", "Dog", "Bat", "Fox", "Owl", "Elk", "Yak", "Ant"], shape.sprites)
    reference = build_project(
        "reference",
        [
            (name, [[_relabel(block, names) for block in script] for script in scripts])
            for name, scripts in zip(sprite_names, layout.sprites)
        ],
    )
    plans = list(layout.plans)
    rng.shuffle(plans)
    out_dir.mkdir(parents=True, exist_ok=True)
    width = len(str(shape.projects - 1))
    students = []
    for i, plan in enumerate(plans):
        project = reference
        for spec in plan:
            project = apply_mutation(
                project, replace(spec, replacement=names.get(spec.replacement))
            )
        project_id = f"student_{i:0{width}d}"
        write_project_archive(project, out_dir / f"{project_id}.sb3")
        students.append(Student(project_id=project_id, edits=len(plan)))
    return students
