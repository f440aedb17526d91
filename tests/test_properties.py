"""Temporal block-pair properties and their reachability basis."""

from __future__ import annotations

import json
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockmine import (
    Actor,
    BlockLabel,
    MutationKind,
    MutationSpec,
    RawProject,
    ScriptModel,
    TemporalProperty,
    build_project,
    build_script_model,
    enumerate_scripts,
    extract_property_sets,
    format_properties,
    generate_corpus,
    load_dataset,
    project_to_document,
    properties_to_dot,
    props,
    reachability,
    sorted_properties,
)
from blockmine import report
from blockmine.ingest import stack_shape
from conftest import (
    FIG_BUGGY_PROPS,
    FIG_DEVIATION,
    FIG_PROPS,
    FIG_SCRIPT,
    GOTO,
    IF,
    MOVE,
    hand_built_fig_model,
    prop,
)
from oracles import per_script_property_sets
from test_model import _SCRIPTS

HAT = "event_whenflagclicked"


def test_example_model_has_exactly_nine_properties():
    found = props(hand_built_fig_model()).properties
    assert found == FIG_PROPS
    assert len(found) == 9


def test_built_and_hand_built_models_agree(fig_project):
    (script,) = enumerate_scripts(fig_project)
    model = build_script_model(script, fig_project)
    assert props(model).properties == FIG_PROPS


def test_buggy_variant_properties(fig_buggy_project):
    (script,) = enumerate_scripts(fig_buggy_project)
    model = build_script_model(script, fig_buggy_project)
    assert props(model).properties == FIG_BUGGY_PROPS
    # shared core: everything that does not mention the action block
    assert FIG_PROPS & FIG_BUGGY_PROPS == FIG_PROPS - FIG_DEVIATION


def test_single_block_script_has_no_properties():
    model = ScriptModel(
        entry=0,
        exits=frozenset({1}),
        transitions=frozenset({(0, BlockLabel(HAT), 1)}),
        source=None,
    )
    assert props(model).properties == frozenset()


def test_straight_chain_orders_are_not_symmetric():
    model = ScriptModel(
        entry=0,
        exits=frozenset({2}),
        transitions=frozenset({
            (0, BlockLabel(HAT), 1),
            (1, BlockLabel(MOVE), 2),
        }),
        source=None,
    )
    assert props(model).properties == frozenset({prop(HAT, MOVE)})


def test_self_loop_yields_reflexive_property():
    model = ScriptModel(
        entry=0,
        exits=frozenset(),
        transitions=frozenset({(0, BlockLabel(MOVE), 0)}),
        source=None,
    )
    assert props(model).properties == frozenset({prop(MOVE, MOVE)})


def test_reachability_is_reflexive_and_transitive():
    model = hand_built_fig_model()
    reach = reachability(model)
    for loc in model.locations:
        assert loc in reach[loc]
    assert reach == {
        0: frozenset({0, 1, 2, 3}),
        1: frozenset({1, 2, 3}),    # no way back to the entry
        2: frozenset({2, 3}),
        3: frozenset({2, 3}),       # loop back
    }


def test_reachability_ignores_labels_but_follows_epsilon():
    model = ScriptModel(
        entry=0,
        exits=frozenset(),
        transitions=frozenset({
            (0, BlockLabel(HAT), 1),
            (1, None, 2),
            (2, BlockLabel(MOVE), 3),
        }),
        source=None,
    )
    reach = reachability(model)
    assert reach == {
        0: frozenset({0, 1, 2, 3}),
        1: frozenset({1, 2, 3}),    # across the epsilon move
        2: frozenset({2, 3}),
        3: frozenset({3}),
    }


def test_props_can_be_computed_before_epsilon_elimination():
    # hat --eps--> move: the pair must be found across the epsilon move
    model = ScriptModel(
        entry=0,
        exits=frozenset({3}),
        transitions=frozenset({
            (0, BlockLabel(HAT), 1),
            (1, None, 2),
            (2, BlockLabel(MOVE), 3),
        }),
        source=None,
    )
    assert props(model).properties == frozenset({prop(HAT, MOVE)})


def test_property_set_remembers_its_script(fig_project):
    (script,) = enumerate_scripts(fig_project)
    model = build_script_model(script, fig_project)
    found = props(model)
    assert found.source == script
    assert len(found) == 9
    assert prop(HAT, "control_forever") in found


def test_property_display_uses_block_names():
    p = prop(HAT, MOVE)
    assert p.display == "when green flag ≺ move steps"


def test_sorted_properties_is_deterministic():
    once = sorted_properties(FIG_PROPS)
    again = sorted_properties(set(FIG_PROPS))
    assert once == again
    assert len(once) == 9
    assert once == sorted(once)


def test_format_properties_one_line_each():
    text = format_properties(FIG_PROPS)
    lines = text.splitlines()
    assert len(lines) == 9
    assert "when green flag ≺ forever" in lines


def test_properties_to_dot_marks_missing_edges_red():
    dot = properties_to_dot(FIG_PROPS, missing=FIG_DEVIATION, title="example")
    assert dot.startswith("digraph")
    assert dot.count('color="red"') >= len(FIG_DEVIATION)
    assert "move steps" in dot
    assert "forever" in dot


def test_properties_to_dot_renders_without_missing_set():
    dot = properties_to_dot(FIG_PROPS)
    assert dot.startswith("digraph")
    assert 'color="red"' not in dot


def test_temporal_property_is_hashable_and_ordered():
    a = prop(HAT, MOVE)
    b = prop(HAT, MOVE)
    assert a == b and hash(a) == hash(b)
    assert sorted([prop(MOVE, HAT), a]) == [a, prop(MOVE, HAT)]
    assert isinstance({a, b}, set) and len({a, b}) == 1


# extract_property_sets models each distinct script shape once. The tests
# below hold it to the per-script path, which shares nothing.


def _relabelled(project: RawProject, tag: str, shift: float) -> RawProject:
    """The same project under another id, with every block id renamed and
    every stack moved on the canvas."""

    def rename(block_id: str | None) -> str | None:
        return None if block_id is None else f"{tag}{block_id[::-1]}"

    actors = []
    for actor in project.actors:
        blocks = {
            rename(b.id): b._replace(
                id=rename(b.id),
                next=rename(b.next),
                parent=rename(b.parent),
                substacks=tuple(rename(sub) for sub in b.substacks),
                reporter_children=tuple(rename(c) for c in b.reporter_children),
                x=b.x + shift,
                y=b.y + shift,
            )
            for b in actor.blocks.values()
        }
        roots = tuple(rename(r) for r in actor.script_roots)
        actors.append(Actor(actor.name, actor.is_stage, blocks, roots))
    return RawProject(f"{project.project_id}-{tag}", tuple(actors))


def _shapes(projects):
    return [
        stack_shape(p.actor(s.actor_name), s.root_block)
        for p in projects
        for s in enumerate_scripts(p)
    ]


def _assert_shared_exactly_by_shape(projects) -> list:
    """extract_property_sets equals the per-script path, sources included,
    and two scripts share one frozenset exactly when their shapes match."""
    sets = extract_property_sets(projects)
    assert sets == per_script_property_sets(projects)
    for (a, shape_a), (b, shape_b) in combinations(zip(sets, _shapes(projects)), 2):
        assert (a.properties is b.properties) == (shape_a == shape_b)
    return sets


@pytest.fixture
def builds(monkeypatch):
    """Counts the models extract_property_sets builds and the props calls
    it makes."""
    counts = {"build": 0, "props": 0}

    def counted(name, function):
        def wrapper(*args):
            counts[name] += 1
            return function(*args)
        return wrapper

    monkeypatch.setattr(report, "build_shape_model", counted("build", report.build_shape_model))
    monkeypatch.setattr(report, "props", counted("props", report.props))
    return counts


def test_memo_matches_the_per_script_path_on_the_classroom(classroom_dir, builds):
    projects = load_dataset(classroom_dir)
    sets = _assert_shared_exactly_by_shape(projects)
    assert len(sets) == 31
    # 30 clones and one buggy script: two shapes, each modelled once
    assert builds == {"build": 2, "props": 2}


def test_memo_matches_the_per_script_path_on_every_mutation_kind(tmp_path):
    reference = build_project("reference", [
        ("Cat", [
            FIG_SCRIPT,
            ["event_whenkeypressed",
             ("control_if_else", ["looks_say", "control_stop"], ["motion_turnright"]),
             ("control_repeat", [MOVE, {"opcode": "procedures_call", "proccode": "jump %s"}])],
        ]),
        ("Dog", [[{"opcode": "procedures_definition", "proccode": "jump %s"}, MOVE]]),
    ])
    mutations = [
        MutationSpec(MutationKind.WRONG_BLOCK, MOVE, GOTO, seed=seed) for seed in range(3)
    ] + [
        MutationSpec(MutationKind.MISSING_BLOCK, "control_if_else"),
        MutationSpec(MutationKind.MISSING_BLOCK, MOVE, seed=1),
        MutationSpec(MutationKind.WRONG_ORDER, "control_if_else"),
        MutationSpec(MutationKind.EXTRA_BLOCK, "looks_say", "control_stop"),
        MutationSpec(MutationKind.EXTRA_BLOCK, "procedures_call", "motion_turnright"),
    ]
    assert {m.kind for m in mutations} == set(MutationKind)
    generate_corpus(reference, 3, mutations, tmp_path)
    assert len(_assert_shared_exactly_by_shape(load_dataset(tmp_path))) == 33


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.lists(_SCRIPTS, min_size=1, max_size=3), min_size=1, max_size=3),
    st.lists(st.integers(min_value=0, max_value=2), max_size=4),
)
def test_memo_matches_the_per_script_path_on_random_classrooms(students, copies):
    projects = [build_project(f"s{i}", [("Cat", scripts)]) for i, scripts in enumerate(students)]
    for k, original in enumerate(copies):
        source = projects[original % len(students)]
        copy = _relabelled(source, f"c{k}", 40.0 * (k + 1))
        assert _shapes([copy]) == _shapes([source])
        projects.append(copy)
    _assert_shared_exactly_by_shape(projects)


def _fig_with(condition=("sensing_keypressed", {"KEY_OPTION": "sensing_keyoptions"}), move=MOVE):
    return ["event_whenflagclicked", ("control_forever", [
        {"opcode": IF, "reporters": {"CONDITION": condition}, "body": [move]},
    ])]


def test_scripts_differing_only_outside_the_block_structure_share_one_entry(builds):
    fig = build_project("fig", [("Cat", [FIG_SCRIPT])])
    variants = [
        fig,
        _relabelled(fig, "moved", 123.5),
        # another reporter in the condition
        build_project("touching", [("Cat", [_fig_with(("sensing_touchingobject", {
            "TOUCHINGOBJECTMENU": "sensing_touchingobjectmenu"}))])]),
        # a reporter and a shadow block plugged into the move block
        build_project("inputs", [("Cat", [_fig_with(move={
            "opcode": MOVE,
            "reporters": {"STEPS": ("operator_add", ["math_number", "motion_xposition"])},
        })])]),
        build_project("shadow", [("Cat", [_fig_with(move={
            "opcode": MOVE, "reporters": {"STEPS": {"opcode": "math_number", "shadow": True}},
        })])]),
    ]
    sets = _assert_shared_exactly_by_shape(variants)
    assert all(ps.properties is sets[0].properties for ps in sets)
    assert sets[0].properties == FIG_PROPS
    assert builds == {"build": 1, "props": 1}


def test_an_omitted_and_an_explicit_empty_slot_share_one_entry(tmp_path, builds):
    """One if-else with an empty else, in two archives: one leaves the
    empty slot out, the other writes it as [2, null]."""
    doc = project_to_document(build_project("p", [("Cat", [
        ["event_whenflagclicked", ("control_if_else", [MOVE], [])],
    ])]))
    (if_else,) = (block for target in doc["targets"] for block in target["blocks"].values()
                  if block["opcode"] == "control_if_else")
    if_else["inputs"].pop("SUBSTACK2", None)
    (tmp_path / "omitted.json").write_text(json.dumps(doc))
    if_else["inputs"]["SUBSTACK2"] = [2, None]
    (tmp_path / "explicit.json").write_text(json.dumps(doc))
    projects = load_dataset(tmp_path)
    assert [p.block_count() for p in projects] == [3, 3]
    _assert_shared_exactly_by_shape(projects)
    assert builds == {"build": 1, "props": 1}


_HAT = "event_whenflagclicked"


@pytest.mark.parametrize(
    "first, second",
    [
        ([_HAT, MOVE], [_HAT, GOTO]),
        ([_HAT, {"opcode": "procedures_call", "proccode": "jump %s"}],
         [_HAT, {"opcode": "procedures_call", "proccode": "hop %s"}]),
        ([_HAT, (IF, [MOVE])], [_HAT, (IF, []), MOVE]),
        ([_HAT, ("control_if_else", [MOVE], [])], [_HAT, ("control_if_else", [], [MOVE])]),
    ],
    ids=["opcode", "proccode", "inside-or-after-if", "substack-or-substack2"],
)
def test_scripts_differing_in_block_structure_never_share_an_entry(builds, first, second):
    projects = [build_project("a", [("Cat", [first])]), build_project("b", [("Cat", [second])])]
    shape_a, shape_b = _shapes(projects)
    assert shape_a != shape_b
    _assert_shared_exactly_by_shape(projects)
    assert builds == {"build": 2, "props": 2}
