"""Synthetic project construction, serialization, and seeded mutations."""

from __future__ import annotations

import json
import tempfile
import zipfile
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from blockmine import (
    Actor,
    InvalidConfig,
    MutationKind,
    MutationSpec,
    apply_mutation,
    build_project,
    build_script_model,
    enumerate_scripts,
    generate_corpus,
    load_corpus_spec,
    load_project,
    project_payload,
    props,
    write_project_archive,
)
from blockmine.ingest import RawBlock
from conftest import FIG_SCRIPT


def _fig_project(name="ref"):
    return build_project(name, [("Cat", [FIG_SCRIPT])])


def _script_opcodes(project):
    (script,) = enumerate_scripts(project)
    model = build_script_model(script, project)
    return sorted(t[1].opcode for t in model.transitions if t[1] is not None)


def test_build_project_has_stage_and_sprites():
    project = build_project(
        "p", [("Cat", [FIG_SCRIPT]), ("Dog", [["event_whenflagclicked"]])],
        stage_scripts=[[["event_whenflagclicked"]]][0],
    )
    assert [a.name for a in project.actors] == ["Stage", "Cat", "Dog"]
    assert project.actors[0].is_stage
    assert not project.actors[1].is_stage


def test_round_trip_preserves_structure(tmp_path):
    project = _fig_project()
    path = tmp_path / "ref.sb3"
    write_project_archive(project, path)
    loaded = load_project(path)
    assert _script_opcodes(loaded) == _script_opcodes(project)
    assert loaded.block_count() == project.block_count()
    assert props(
        build_script_model(enumerate_scripts(loaded)[0], loaded)
    ).properties == props(
        build_script_model(enumerate_scripts(project)[0], project)
    ).properties


def test_archive_bytes_are_deterministic(tmp_path):
    project = _fig_project()
    a, b = tmp_path / "a.sb3", tmp_path / "b.sb3"
    write_project_archive(project, a)
    write_project_archive(project, b)
    assert a.read_bytes() == b.read_bytes()
    # and the payload itself is stable
    assert project_payload(project) == project_payload(_fig_project())


def test_archive_is_a_real_zip_with_project_json(tmp_path):
    path = tmp_path / "ref.sb3"
    write_project_archive(_fig_project(), path)
    with zipfile.ZipFile(path) as zf:
        assert "project.json" in zf.namelist()
        doc = json.loads(zf.read("project.json"))
    assert "targets" in doc
    names = [t["name"] for t in doc["targets"]]
    assert names == ["Stage", "Cat"]


def test_json_suffix_writes_bare_payload(tmp_path):
    path = tmp_path / "ref.json"
    write_project_archive(_fig_project(), path)
    doc = json.loads(path.read_text("utf-8"))
    assert "targets" in doc


def test_wrong_block_swaps_the_opcode():
    spec = MutationSpec(
        kind=MutationKind.WRONG_BLOCK,
        target="motion_movesteps",
        replacement="motion_gotoxy",
        seed=7,
    )
    mutant = apply_mutation(_fig_project(), spec)
    opcodes = _script_opcodes(mutant)
    assert "motion_gotoxy" in opcodes
    assert "motion_movesteps" not in opcodes
    assert len(opcodes) == len(_script_opcodes(_fig_project()))


def test_missing_block_splices_the_chain():
    spec = MutationSpec(
        kind=MutationKind.MISSING_BLOCK, target="motion_movesteps", seed=7
    )
    mutant = apply_mutation(_fig_project(), spec)
    opcodes = _script_opcodes(mutant)
    assert "motion_movesteps" not in opcodes
    assert "control_if" in opcodes


def test_missing_block_drops_reporters_nested_past_the_recursion_limit():
    reference = build_project("ref", [("Cat", [[
        "event_whenflagclicked", "motion_movesteps", "motion_turnright",
    ]])])
    cat = reference.actor("Cat")
    blocks = dict(cat.blocks)
    (move,) = (b for b in blocks.values() if b.opcode == "motion_movesteps")
    parent = move.id
    for depth in range(3000):  # operator_add(operator_add(...)), 3000 deep
        child = f"add{depth}"
        blocks[parent] = blocks[parent]._replace(reporter_children=(child,))
        blocks[child] = RawBlock(id=child, opcode="operator_add", parent=parent)
        parent = child
    deep = replace(reference, actors=(
        reference.actors[0], Actor(cat.name, cat.is_stage, blocks, cat.script_roots),
    ))

    mutant = apply_mutation(deep, MutationSpec(MutationKind.MISSING_BLOCK, "motion_movesteps"))
    left = mutant.actor("Cat").blocks
    assert len(blocks) - len(left) == 3001
    assert not any(b.opcode in ("operator_add", "motion_movesteps") for b in left.values())
    assert _script_opcodes(mutant) == ["event_whenflagclicked", "motion_turnright"]


def test_missing_control_block_drops_its_body():
    spec = MutationSpec(kind=MutationKind.MISSING_BLOCK, target="control_if", seed=7)
    mutant = apply_mutation(_fig_project(), spec)
    opcodes = _script_opcodes(mutant)
    assert "control_if" not in opcodes
    assert "motion_movesteps" not in opcodes  # body went with the block
    assert "control_forever" in opcodes
    # nothing dangling: the project still loads after a round trip
    cat = mutant.actor("Cat")
    for block in cat.blocks.values():
        if block.next is not None:
            assert block.next in cat.blocks
        for sub in block.substacks:
            assert sub is None or sub in cat.blocks


def test_wrong_order_swaps_adjacent_blocks():
    project = build_project(
        "p",
        [("Cat", [["event_whenflagclicked", "motion_movesteps", "motion_turnright"]])],
    )
    spec = MutationSpec(kind=MutationKind.WRONG_ORDER, target="motion_movesteps", seed=7)
    mutant = apply_mutation(project, spec)
    (script,) = enumerate_scripts(mutant)
    model = build_script_model(script, mutant)
    chain = {t[0]: t[1].opcode for t in model.transitions}
    assert chain[1] == "motion_turnright"
    assert chain[2] == "motion_movesteps"


def test_extra_block_is_inserted_after_the_target():
    spec = MutationSpec(
        kind=MutationKind.EXTRA_BLOCK,
        target="motion_movesteps",
        replacement="control_wait",
        seed=7,
    )
    mutant = apply_mutation(_fig_project(), spec)
    opcodes = _script_opcodes(mutant)
    assert "control_wait" in opcodes
    assert opcodes.count("motion_movesteps") == 1
    assert len(opcodes) == len(_script_opcodes(_fig_project())) + 1


def test_mutants_round_trip_through_archives(tmp_path):
    specs = [
        MutationSpec(MutationKind.WRONG_BLOCK, "motion_movesteps", "motion_gotoxy", 1),
        MutationSpec(MutationKind.MISSING_BLOCK, "motion_movesteps", None, 2),
        MutationSpec(MutationKind.WRONG_ORDER, "event_whenflagclicked", None, 3),
        MutationSpec(MutationKind.EXTRA_BLOCK, "motion_movesteps", "control_wait", 4),
    ]
    for i, spec in enumerate(specs):
        mutant = apply_mutation(_fig_project(f"m{i}"), spec)
        path = tmp_path / f"m{i}.sb3"
        write_project_archive(mutant, path)
        loaded = load_project(path)
        assert loaded.warnings == (), f"{spec.kind}: {loaded.warnings}"
        assert _script_opcodes(loaded) == _script_opcodes(mutant)

        # A loaded project mutates by copying blocks, never by changing one.
        original = tmp_path / "originals" / f"m{i}.sb3"
        original.parent.mkdir(exist_ok=True)
        write_project_archive(_fig_project(f"m{i}"), original)
        source = load_project(original)
        mutant = apply_mutation(source, spec)
        assert source == load_project(original) != mutant
        write_project_archive(mutant, path)
        assert load_project(path) == mutant, spec.kind


def test_mutation_without_candidates_is_rejected():
    with pytest.raises(InvalidConfig):
        apply_mutation(
            _fig_project(),
            MutationSpec(MutationKind.WRONG_BLOCK, "looks_wrong", "motion_gotoxy"),
        )
    # wrong-order needs a successor; a lone hat has none
    lone = build_project("lone", [("Cat", [["event_whenflagclicked"]])])
    with pytest.raises(InvalidConfig):
        apply_mutation(
            lone, MutationSpec(MutationKind.WRONG_ORDER, "event_whenflagclicked")
        )


def test_wrong_block_requires_replacement():
    with pytest.raises(InvalidConfig):
        MutationSpec(MutationKind.WRONG_BLOCK, "motion_movesteps")
    with pytest.raises(InvalidConfig):
        MutationSpec(MutationKind.EXTRA_BLOCK, "motion_movesteps")


def test_same_seed_same_choice():
    project = build_project(
        "p", [("Cat", [["event_whenflagclicked", "motion_movesteps"],
                       ["event_whenkeypressed", "motion_movesteps"]])]
    )
    spec = MutationSpec(MutationKind.WRONG_BLOCK, "motion_movesteps", "motion_gotoxy", 5)
    once = apply_mutation(project, spec)
    again = apply_mutation(project, spec)
    assert project_payload(once) == project_payload(again)


def test_generate_corpus_writes_expected_files(tmp_path):
    out = tmp_path / "corpus"
    reference = _fig_project()
    written = generate_corpus(
        reference,
        3,
        [
            MutationSpec(MutationKind.WRONG_BLOCK, "motion_movesteps", "motion_gotoxy", 1),
            MutationSpec(MutationKind.MISSING_BLOCK, "motion_movesteps", None, 2),
        ],
        out,
    )
    names = sorted(p.name for p in written)
    assert names == [
        "correct_000.sb3",
        "correct_001.sb3",
        "correct_002.sb3",
        "mutant_000_wrong_block.sb3",
        "mutant_001_missing_block.sb3",
    ]
    for path in written:
        assert load_project(path).block_count() > 0
    # The clones are one rendered archive written n times: the bytes that
    # write_project_archive writes for the reference.
    clone = write_project_archive(reference, tmp_path / "reference.sb3").read_bytes()
    assert [p.read_bytes() == clone for p in written] == [True, True, True, False, False]


def test_load_corpus_spec(tmp_path):
    write_project_archive(_fig_project(), tmp_path / "ref.sb3")
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({
        "reference": "ref.sb3",
        "n_correct": 7,
        "mutations": [
            {"kind": "wrong_block", "target": "motion_movesteps",
             "replacement": "motion_gotoxy", "seed": 3},
            {"kind": "missing-block", "target": "control_if"},
        ],
    }))
    spec = load_corpus_spec(spec_path)
    assert spec.reference == tmp_path / "ref.sb3"
    assert spec.n_correct == 7
    assert spec.mutations[0].kind is MutationKind.WRONG_BLOCK
    assert spec.mutations[0].seed == 3
    assert spec.mutations[1].kind is MutationKind.MISSING_BLOCK


def test_corpus_spec_errors(tmp_path):
    missing = tmp_path / "nope.json"
    with pytest.raises(InvalidConfig):
        load_corpus_spec(missing)
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(InvalidConfig):
        load_corpus_spec(bad)
    unknown_kind = tmp_path / "kind.json"
    unknown_kind.write_text(json.dumps({
        "reference": "r.sb3", "n_correct": 1,
        "mutations": [{"kind": "explode", "target": "x"}],
    }))
    with pytest.raises(InvalidConfig):
        load_corpus_spec(unknown_kind)
    for mutations in (5, None):
        not_a_list = tmp_path / "not-a-list.json"
        not_a_list.write_text(json.dumps({"reference": "r.sb3", "mutations": mutations}))
        with pytest.raises(InvalidConfig, match="mutations must be a list"):
            load_corpus_spec(not_a_list)


@pytest.mark.parametrize(
    "spec",
    [
        {"reference": "r.sb3", "n_correct": True},
        {"reference": "r.sb3", "n_correct": 1,
         "mutations": [{"kind": "missing-block", "target": "control_if", "seed": True}]},
    ],
    ids=["n_correct", "seed"],
)
def test_corpus_spec_rejects_booleans_as_numbers(tmp_path, spec):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    with pytest.raises(InvalidConfig):
        load_corpus_spec(path)


def test_a_bare_string_script_is_rejected():
    with pytest.raises(InvalidConfig):
        build_project("oops", [("Cat", ["event_whenflagclicked"])])
    # So is a block or reporter spec with an empty opcode, which the loader
    # would drop from the archive.
    for spec in ("", ("", []), {"opcode": ""}):
        with pytest.raises(InvalidConfig, match="nonempty opcode"):
            build_project("oops", [("Cat", [["event_whenflagclicked", spec, "looks_show"]])])
        with pytest.raises(InvalidConfig, match="nonempty opcode"):
            build_project("oops", [("Cat", [[{"opcode": "looks_say", "reporters": [spec]}]])])


# Projects built from specs, for the round trip through an archive.
_COMMANDS = ("motion_movesteps", "looks_show", "control_wait", "control_stop")
_REPORTER_OPCODES = ("operator_add", "motion_xposition", "math_number", "sensing_keyoptions")
_REPORTER = st.sampled_from(_REPORTER_OPCODES) | st.builds(
    lambda op, shadow: {"opcode": op, "shadow": shadow},
    st.sampled_from(_REPORTER_OPCODES), st.booleans(),
)
_REPORTERS = _REPORTER | st.tuples(st.sampled_from(_REPORTER_OPCODES),
                                   st.lists(_REPORTER, max_size=2))
# A custom block named only by its prototype (a shadow in the editor).
_DEFINITION = st.builds(
    lambda name, shadow: {"opcode": "procedures_definition", "reporters": [
        {"opcode": "procedures_prototype", "proccode": name, "shadow": shadow}]},
    st.sampled_from(["jump %s", "hop"]), st.booleans(),
)
_BLOCKS = st.recursive(
    st.sampled_from(_COMMANDS)
    | _DEFINITION
    | st.builds(lambda op, reporters: {"opcode": op, "reporters": reporters},
                st.sampled_from(_COMMANDS), st.lists(_REPORTERS, max_size=12))
    | st.builds(lambda name: {"opcode": "procedures_call", "proccode": name},
                st.sampled_from(["jump %s", "hop"])),
    lambda inner: st.tuples(st.sampled_from(["control_if", "control_repeat", "control_forever"]),
                            st.lists(inner, max_size=3))
    | st.tuples(st.just("control_if_else"), st.lists(inner, max_size=3),
                st.lists(inner, max_size=3)),
    max_leaves=8,
)
_SCRIPTS = st.one_of(
    st.lists(_BLOCKS, max_size=4).map(lambda body: ["event_whenflagclicked", *body]),
    st.lists(_BLOCKS, min_size=1, max_size=3),  # a hatless stack
    st.builds(lambda op, rest: [{"opcode": op, "shadow": True}, *rest],  # a shadow stack
              st.sampled_from(_COMMANDS), st.lists(_BLOCKS, max_size=2)),
    st.lists(_REPORTERS, min_size=1, max_size=1),  # a lone reporter on the canvas
)
_SPRITE_SCRIPTS = st.lists(_SCRIPTS, max_size=2)


@settings(max_examples=300, deadline=None)
@given(
    stage=_SPRITE_SCRIPTS,
    sprites=st.lists(_SPRITE_SCRIPTS, max_size=2),
    kind=st.sampled_from(MutationKind),
    pick=st.integers(min_value=0),
    replacement=st.sampled_from(_COMMANDS),
)
@example(  # an empty else slot
    stage=[], sprites=[[["event_whenflagclicked", ("control_if_else", ["looks_show"], [])]]],
    kind=MutationKind.WRONG_BLOCK, pick=0, replacement="looks_show",
)
@example(  # a definition named by its prototype
    stage=[], sprites=[[[{"opcode": "procedures_definition", "reporters": [
        {"opcode": "procedures_prototype", "proccode": "jump %s"}]}, "looks_show"]]],
    kind=MutationKind.EXTRA_BLOCK, pick=0, replacement="control_wait",
)
@example(  # eleven reporter inputs, whose order ARG10 would break
    stage=[], sprites=[[["event_whenflagclicked", {
        "opcode": "looks_show", "reporters": ["operator_add"] * 10 + ["motion_xposition"]}]]],
    kind=MutationKind.WRONG_BLOCK, pick=12, replacement="control_wait",
)
@example(  # missing-block on a reporter (b1 hat, b2 command, b3 reporter)
    stage=[], sprites=[[["event_whenflagclicked", {
        "opcode": "looks_show", "reporters": ["operator_add"]}]]],
    kind=MutationKind.MISSING_BLOCK, pick=2, replacement="looks_show",
)
@example(  # a top-level shadow stack
    stage=[[{"opcode": "looks_show", "shadow": True}, "control_wait"]], sprites=[],
    kind=MutationKind.WRONG_ORDER, pick=0, replacement="looks_show",
)
@example(  # missing-block empties a body slot (b1 hat, b2 if, b3 body)
    stage=[], sprites=[[["event_whenflagclicked", ("control_if", ["looks_show"])]]],
    kind=MutationKind.MISSING_BLOCK, pick=2, replacement="looks_show",
)
def test_built_and_mutated_projects_reload_equal(stage, sprites, kind, pick, replacement):
    """A built project, and one mutant of it, is the project its archive
    loads as, without warnings, written as .sb3 and as bare JSON."""
    built = build_project("built", [(f"S{i}", s) for i, s in enumerate(sprites)], stage)
    candidates = sorted(
        block.id for actor in built.actors for block in actor.blocks.values()
        if not block.is_shadow and (kind is not MutationKind.WRONG_ORDER or block.next)
    )
    projects = [built]
    if candidates:
        spec = MutationSpec(kind, candidates[pick % len(candidates)], replacement)
        projects.append(replace(apply_mutation(built, spec), project_id="mutant"))
    with tempfile.TemporaryDirectory() as tmp:
        for project in projects:
            for suffix in (".sb3", ".json"):
                path = write_project_archive(project, Path(tmp) / f"{project.project_id}{suffix}")
                loaded = load_project(path)
                assert loaded.warnings == ()
                assert loaded == project
