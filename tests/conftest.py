"""Shared fixtures: the worked-example scripts and a synthetic classroom.

The "fig" script is the running example used across the test suite: a
when-green-flag hat over a forever loop that moves the sprite while a key
is pressed. The buggy variant jumps to a fixed position instead of moving,
which changes every temporal property that mentions the move block.
"""

from __future__ import annotations

import pathlib
import random

import pytest

from blockmine import (
    BlockLabel,
    RawProject,
    ScriptModel,
    TemporalProperty,
    build_project,
    write_project_archive,
)

WGF = "event_whenflagclicked"
FOREVER = "control_forever"
IF = "control_if"
MOVE = "motion_movesteps"
GOTO = "motion_gotoxy"

FIG_SCRIPT = [
    WGF,
    (FOREVER, [
        {
            "opcode": IF,
            "reporters": {"CONDITION": ("sensing_keypressed", {"KEY_OPTION": "sensing_keyoptions"})},
            "body": [MOVE],
        },
    ]),
]

FIG_BUGGY_SCRIPT = [
    WGF,
    (FOREVER, [
        {
            "opcode": IF,
            "reporters": {"CONDITION": ("sensing_keypressed", {"KEY_OPTION": "sensing_keyoptions"})},
            "body": [GOTO],
        },
    ]),
]


def prop(first: str, second: str) -> TemporalProperty:
    return TemporalProperty(BlockLabel(first), BlockLabel(second))


def _example_props(action: str) -> frozenset[TemporalProperty]:
    """The nine properties of the example script, parametric in the block
    inside the if-then body."""
    return frozenset({
        prop(WGF, FOREVER),
        prop(WGF, IF),
        prop(WGF, action),
        prop(FOREVER, IF),
        prop(FOREVER, action),
        prop(IF, IF),
        prop(IF, action),
        prop(action, IF),
        prop(action, action),
    })


FIG_PROPS = _example_props(MOVE)
FIG_BUGGY_PROPS = _example_props(GOTO)

# Exactly the properties of the pattern that mention the move block; the
# buggy script satisfies all the others.
FIG_DEVIATION = frozenset({
    p for p in FIG_PROPS if MOVE in (p.first.opcode, p.second.opcode)
})


def hand_built_fig_model(action: str = MOVE) -> ScriptModel:
    """The four-location model of the example script, written out by hand."""
    label = BlockLabel
    return ScriptModel(
        entry=0,
        exits=frozenset(),
        transitions=frozenset({
            (0, label(WGF), 1),
            (1, label(FOREVER), 2),
            (2, label(IF), 2),
            (2, label(IF), 3),
            (3, label(action), 2),
        }),
        source=None,
    )


def write_classroom(
    directory: pathlib.Path, n_correct: int = 30, n_buggy: int = 1
) -> pathlib.Path:
    """Write n_correct copies of the example solution plus buggy variants."""
    directory.mkdir(parents=True, exist_ok=True)
    for i in range(n_correct):
        project = build_project(f"student_{i:03d}", [("Cat", [FIG_SCRIPT])])
        write_project_archive(project, directory / f"student_{i:03d}.sb3")
    for j in range(n_buggy):
        name = f"student_{n_correct + j:03d}"
        project = build_project(name, [("Cat", [FIG_BUGGY_SCRIPT])])
        write_project_archive(project, directory / f"{name}.sb3")
    return directory


# An open-ended task: every student composes a few of 24 idioms under a
# hat, and half add one extra command, so nearly every script differs.
_IDIOM_COMMANDS = [
    "motion_movesteps", "motion_turnright", "motion_turnleft", "motion_gotoxy",
    "motion_changexby", "motion_changeyby", "motion_setx", "motion_sety",
    "motion_ifonedgebounce", "motion_pointindirection", "looks_say", "looks_sayforsecs",
    "looks_think", "looks_nextcostume", "looks_switchcostumeto", "looks_changesizeby",
    "looks_setsizeto", "looks_show", "looks_hide", "sound_play",
]
_EXTRA_COMMANDS = [
    "sound_playuntildone", "sound_changevolumeby", "control_wait", "control_create_clone_of",
    "event_broadcast", "event_broadcastandwait", "sensing_askandwait", "sensing_resettimer",
    "data_setvariableto", "data_changevariableby", "data_addtolist", "data_deletealloflist",
    "pen_clear", "pen_stamp", "pen_penDown", "pen_penUp",
]
_OPEN_HATS = [
    "event_whenflagclicked", "event_whenkeypressed",
    "event_whenthisspriteclicked", "event_whenstageclicked",
]


def open_ended_projects(n_projects: int, seed: int) -> list[RawProject]:
    """A classroom of an open-ended task: one sprite of 4 scripts per
    project, each a hat over 2-4 of 24 random idioms."""
    rng = random.Random(seed)
    idioms = []
    for _ in range(24):
        body = [rng.choice(_IDIOM_COMMANDS) for _ in range(rng.randint(2, 4))]
        r = rng.random()
        if r < 0.3:
            idioms.append([("control_repeat", body)])
        elif r < 0.4:
            idioms.append([("control_if_else", body[:1], body[1:])])
        else:
            idioms.append(body)
    projects = []
    for k in range(n_projects):
        scripts = []
        for _ in range(4):
            script = [rng.choice(_OPEN_HATS)]
            for _ in range(rng.randint(2, 4)):
                script.extend(rng.choice(idioms))
            if rng.random() < 0.5:
                script.insert(rng.randint(1, len(script)), rng.choice(_EXTRA_COMMANDS))
            scripts.append(script)
        projects.append(build_project(f"student_{k:03d}", [("Cat", scripts)]))
    return projects


@pytest.fixture(scope="session")
def fig_project():
    return build_project("fig", [("Cat", [FIG_SCRIPT])])


@pytest.fixture(scope="session")
def fig_buggy_project():
    return build_project("fig-buggy", [("Cat", [FIG_BUGGY_SCRIPT])])


@pytest.fixture(scope="session")
def classroom_dir(tmp_path_factory) -> pathlib.Path:
    return write_classroom(tmp_path_factory.mktemp("classroom"))
