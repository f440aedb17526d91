"""Model construction and epsilon elimination."""

from __future__ import annotations

import random
from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockmine import (
    BlockLabel,
    MutationKind,
    MutationSpec,
    ScriptModel,
    abstract_labels,
    build_project,
    build_script_model,
    eliminate_epsilon,
    enumerate_scripts,
    generate_corpus,
    load_dataset,
    model_to_dot,
    props,
)
from blockmine.ingest import script_shapes
from blockmine.model import _canonical, build_shape_model, model_to_document
from conftest import FIG_BUGGY_SCRIPT, FIG_SCRIPT, GOTO, hand_built_fig_model, open_ended_projects
from oracles import label_path_language, naive_canonical, random_epsilon_model

WGF = BlockLabel("event_whenflagclicked")
MOVE = BlockLabel("motion_movesteps")
TURN = BlockLabel("motion_turnright")
STOP = BlockLabel("control_stop")
IF_ELSE = BlockLabel("control_if_else")
REPEAT = BlockLabel("control_repeat")
UNTIL = BlockLabel("control_repeat_until")


def _model_for(script_spec) -> ScriptModel:
    project = build_project("t", [("Cat", [script_spec])])
    (script,) = enumerate_scripts(project)
    return build_script_model(script, project)


def _shape(model: ScriptModel):
    return model.entry, model.exits, model.transitions


def test_forever_if_script_model_matches_hand_built():
    model = _model_for(FIG_SCRIPT)
    expected = hand_built_fig_model()
    assert _shape(model) == _shape(expected)
    assert model.is_epsilon_free
    assert len(model.locations) == 4


def test_buggy_variant_differs_only_in_action_label():
    model = _model_for(FIG_BUGGY_SCRIPT)
    expected = hand_built_fig_model(GOTO)
    assert _shape(model) == _shape(expected)


def test_lone_hat_script():
    model = _model_for(["event_whenflagclicked"])
    assert model.entry == 0
    assert model.exits == frozenset({1})
    assert model.transitions == frozenset({(0, WGF, 1)})


def test_straight_line_chain_allocates_one_location_per_block():
    model = _model_for(["event_whenflagclicked", "motion_movesteps", "motion_turnright"])
    assert model.transitions == frozenset(
        {(0, WGF, 1), (1, MOVE, 2), (2, TURN, 3)}
    )
    assert model.exits == frozenset({3})


def test_cap_block_ends_the_stack():
    model = _model_for(["event_whenflagclicked", "control_stop"])
    assert model.transitions == frozenset({(0, WGF, 1), (1, STOP, 2)})
    assert model.exits == frozenset({2})


def test_forever_has_no_fall_through_exit():
    model = _model_for(FIG_SCRIPT)
    assert model.exits == frozenset()


def test_if_else_branches_rejoin_one_continuation():
    model = _model_for([
        "event_whenflagclicked",
        ("control_if_else", ["motion_movesteps"], ["motion_turnright"]),
    ])
    assert model.transitions == frozenset({
        (0, WGF, 1),
        (1, IF_ELSE, 2),
        (1, IF_ELSE, 3),
        (2, MOVE, 4),
        (3, TURN, 4),
    })
    assert model.exits == frozenset({4})


def test_if_else_with_one_empty_branch():
    model = _model_for([
        "event_whenflagclicked",
        ("control_if_else", ["motion_movesteps"], []),
    ])
    assert model.transitions == frozenset({
        (0, WGF, 1),
        (1, IF_ELSE, 2),   # branch with a body
        (1, IF_ELSE, 3),   # empty branch straight to the join
        (2, MOVE, 3),
    })
    assert model.exits == frozenset({3})


def test_bounded_loop_reenters_its_own_location():
    model = _model_for([
        "event_whenflagclicked",
        ("control_repeat", ["motion_movesteps"]),
        "motion_turnright",
    ])
    assert model.transitions == frozenset({
        (0, WGF, 1),
        (1, REPEAT, 2),    # fall-through
        (1, REPEAT, 3),    # body entry
        (3, MOVE, 1),      # next iteration re-executes the loop block
        (2, TURN, 4),
    })
    assert model.exits == frozenset({4})


def test_empty_loop_body_becomes_self_loop():
    model = _model_for([
        "event_whenflagclicked",
        ("control_repeat_until", []),
        "motion_turnright",
    ])
    assert model.transitions == frozenset({
        (0, WGF, 1),
        (1, UNTIL, 1),
        (1, UNTIL, 2),
        (2, TURN, 3),
    })


def test_nested_loops_inside_forever():
    model = _model_for([
        "event_whenflagclicked",
        ("control_forever", [
            ("control_repeat", ["motion_movesteps"]),
            "motion_turnright",
        ]),
    ])
    # forever head hosts the repeat; turn right closes the iteration.
    assert model.is_epsilon_free
    labels = sorted(t[1].opcode for t in model.transitions)
    assert labels.count("control_repeat") == 2
    # the last body block loops back to the forever head
    forever_head = next(t[2] for t in model.transitions if t[1].opcode == "control_forever")
    assert any(
        t[1] == TURN and t[2] == forever_head for t in model.transitions
    )
    assert model.exits == frozenset()


def test_procedure_labels_carry_the_signature():
    model = _model_for([
        "event_whenflagclicked",
        {"opcode": "procedures_call", "proccode": "jump %s"},
    ])
    call = next(t[1] for t in model.transitions if t[1].opcode == "procedures_call")
    assert call.detail == "jump %s"
    assert "jump %s" in call.display


def test_reporters_never_appear_in_models(fig_project):
    (script,) = enumerate_scripts(fig_project)
    model = build_script_model(script, fig_project)
    opcodes = {t[1].opcode for t in model.transitions}
    assert "sensing_keypressed" not in opcodes
    assert "sensing_keyoptions" not in opcodes


def test_epsilon_chain_collapses():
    # before: l0 --if-then--> l1 --eps--> l2 --move--> l3
    before = ScriptModel(
        entry=0,
        exits=frozenset({3}),
        transitions=frozenset({
            (0, BlockLabel("control_if"), 1),
            (1, None, 2),
            (2, MOVE, 3),
        }),
        source=None,
    )
    after = eliminate_epsilon(before)
    assert after.transitions == frozenset({
        (0, BlockLabel("control_if"), 1),
        (1, MOVE, 2),
    })
    assert after.exits == frozenset({2})
    assert after.is_epsilon_free


def test_elimination_is_identity_on_epsilon_free_models():
    model = _model_for(FIG_SCRIPT)
    assert eliminate_epsilon(model) == model


# Extraction skips eliminate_epsilon, which is sound only while elimination
# is the identity on everything build_script_model returns.
def _assert_builder_output_is_final(projects) -> int:
    checked = 0
    for project in projects:
        for script in enumerate_scripts(project):
            model = build_script_model(script, project)
            eliminated = eliminate_epsilon(model)
            assert eliminated == model, script.ident
            assert props(eliminated) == props(model), script.ident
            checked += 1
    return checked


def test_elimination_is_identity_on_the_classroom(classroom_dir):
    assert _assert_builder_output_is_final(load_dataset(classroom_dir)) == 31


def test_elimination_is_identity_on_every_mutation_kind(tmp_path):
    reference = build_project("reference", [("Cat", [[
        "event_whenflagclicked",
        ("control_repeat", ["motion_movesteps", "motion_turnright"]),
        ("control_if_else", ["looks_say", "control_stop"], ["motion_gotoxy"]),
        ("control_forever", [("control_if", ["motion_turnright"]), "looks_say"]),
    ]])])
    mutations = [
        # both if-else branches now end in a cap: the forever below is dead
        MutationSpec(MutationKind.WRONG_BLOCK, "motion_gotoxy", "control_stop"),
        MutationSpec(MutationKind.WRONG_BLOCK, "motion_movesteps", "looks_think", seed=1),
        MutationSpec(MutationKind.MISSING_BLOCK, "control_repeat"),
        MutationSpec(MutationKind.MISSING_BLOCK, "looks_say", seed=2),
        MutationSpec(MutationKind.WRONG_ORDER, "control_repeat"),
        MutationSpec(MutationKind.EXTRA_BLOCK, "motion_turnright", "control_stop", seed=3),
    ]
    assert {m.kind for m in mutations} == set(MutationKind)
    generate_corpus(reference, 2, mutations, tmp_path)
    assert _assert_builder_output_is_final(load_dataset(tmp_path)) == 8


_SIMPLE_BLOCKS = st.sampled_from(
    ["motion_movesteps", "motion_turnright", "looks_say", "control_stop", "ext_notInTheTable"]
)


def _chains(children):
    block = st.one_of(
        _SIMPLE_BLOCKS,
        st.tuples(st.sampled_from(["control_if", "control_repeat", "control_forever"]), children),
        st.tuples(st.just("control_if_else"), children, children),
    )
    return st.lists(block, max_size=4)


_SCRIPTS = st.builds(
    lambda hat, body: (["event_whenflagclicked"] if hat else []) + body,
    st.booleans(),
    st.recursive(st.lists(_SIMPLE_BLOCKS, max_size=3), _chains, max_leaves=20),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_SCRIPTS, min_size=1, max_size=3))
def test_elimination_is_identity_on_random_built_scripts(scripts):
    _assert_builder_output_is_final([build_project("random", [("Cat", scripts)])])


def test_elimination_is_idempotent_on_random_models():
    rng = random.Random(4242)
    for _ in range(25):
        model = random_epsilon_model(rng)
        once = eliminate_epsilon(model)
        assert eliminate_epsilon(once) == once
        assert once.is_epsilon_free


@cache
def _open_ended_models() -> list[ScriptModel]:
    shapes = dict.fromkeys(
        shape for project in open_ended_projects(40, 5) for _, shape in script_shapes(project)
    )
    return [build_shape_model(shape) for shape in shapes]


# Only the fig model pins the numbering by hand; any consistent renumbering
# would pass the identity tests above.
@settings(max_examples=300, deadline=None)
@given(st.randoms(use_true_random=False), st.booleans())
def test_canonical_numbering_matches_the_per_location_sort(rng, built):
    if built:
        model = rng.choice(_open_ended_models())
    else:
        model = eliminate_epsilon(random_epsilon_model(rng))
    locations = sorted(model.locations)
    name = dict(zip(locations, rng.sample(locations, len(locations))))
    transitions = [(name[s], label, name[d]) for s, label, d in model.transitions]
    rng.shuffle(transitions)
    parts = (name[model.entry], [name[x] for x in model.exits], transitions, model.source)
    assert _canonical(*parts) == naive_canonical(*parts)


def test_epsilon_exit_slide():
    # an exit reachable only through epsilon still counts as an exit
    model = ScriptModel(
        entry=0,
        exits=frozenset({2}),
        transitions=frozenset({(0, MOVE, 1), (1, None, 2)}),
        source=None,
    )
    after = eliminate_epsilon(model)
    assert after.transitions == frozenset({(0, MOVE, 1)})
    assert after.exits == frozenset({1})


def test_elimination_preserves_language_and_properties():
    rng = random.Random(20260819)
    for _ in range(50):
        model = random_epsilon_model(rng)
        eliminated = eliminate_epsilon(model)
        assert eliminated.is_epsilon_free
        assert label_path_language(model, 6) == label_path_language(eliminated, 6)
        assert props(model).properties == props(eliminated).properties


def test_abstracting_a_label_away():
    model = _model_for(FIG_SCRIPT)
    abstracted = abstract_labels(model, ["control_if"])
    forever = BlockLabel("control_forever")
    assert abstracted.transitions == frozenset({
        (0, WGF, 1),
        (1, forever, 2),
        (2, MOVE, 2),
    })


def test_dot_rendering_mentions_every_location_and_label(fig_project):
    (script,) = enumerate_scripts(fig_project)
    model = build_script_model(script, fig_project)
    dot = model_to_dot(model)
    assert dot.startswith("digraph")
    for loc in model.locations:
        assert f"l{loc}" in dot
    assert "when green flag" in dot
    assert "move steps" in dot
    assert "__start" in dot


def test_an_epsilon_move_is_rendered_first_for_its_source():
    model = ScriptModel(
        entry=0,
        exits=frozenset({2, 3}),
        transitions=frozenset({(0, WGF, 1), (1, MOVE, 2), (1, None, 3)}),
    )
    listed = [t for t in model_to_document(model)["transitions"] if t["from"] == 1]
    assert [(t["label"], t["name"], t["to"]) for t in listed] == [
        (None, "ε", 3),
        (MOVE.key(), MOVE.display, 2),
    ]
    dot = model_to_dot(model)
    assert dot.index('  l1 -> l3 [label="ε"];') < dot.index("  l1 -> l2 ")


def test_unreachable_code_after_forever_is_not_modeled():
    model = _model_for([
        "event_whenflagclicked",
        ("control_forever", ["motion_movesteps"]),
        "motion_turnright",
    ])
    opcodes = {t[1].opcode for t in model.transitions}
    assert "motion_turnright" not in opcodes


def test_unreachable_code_after_a_fully_capped_if_else_is_not_modeled():
    model = _model_for([
        "event_whenflagclicked",
        ("control_if_else", ["control_stop"], ["control_stop"]),
        "motion_movesteps",
        "motion_turnright",
    ])
    assert model.transitions == frozenset({
        (0, WGF, 1),
        (1, IF_ELSE, 2),
        (1, IF_ELSE, 3),
        (2, STOP, 4),
        (3, STOP, 5),
    })
    assert model.exits == frozenset({4, 5})
    assert model.locations == frozenset(range(6))


def test_three_epsilon_edges_collapse_to_a_single_transition():
    chained = ScriptModel(
        entry=0,
        exits=frozenset({4}),
        transitions=frozenset({(0, None, 1), (1, None, 2), (2, None, 3), (3, MOVE, 4)}),
        source=None,
    )
    collapsed = eliminate_epsilon(chained)
    assert collapsed.transitions == frozenset({(0, MOVE, 1)})
    assert collapsed.entry == 0
    assert collapsed.exits == frozenset({1})
    assert collapsed.locations == frozenset({0, 1})


def test_abstracting_no_labels_is_the_identity(fig_project):
    (script,) = enumerate_scripts(fig_project)
    model = build_script_model(script, fig_project)
    assert abstract_labels(model, []) == model


def test_abstracting_every_label_leaves_just_the_entry(fig_project):
    (script,) = enumerate_scripts(fig_project)
    model = build_script_model(script, fig_project)
    opcodes = {label.opcode for _, label, _ in model.transitions}
    bare = abstract_labels(model, opcodes)
    assert bare.transitions == frozenset()
    assert bare.locations == frozenset({bare.entry})
    # A model with exits folds them onto the entry; the fig model has none.
    assert bare.exits == frozenset()

    chain = _model_for(["event_whenflagclicked", "motion_movesteps"])
    bare_chain = abstract_labels(chain, {"event_whenflagclicked", "motion_movesteps"})
    assert bare_chain.transitions == frozenset()
    assert bare_chain.exits == frozenset({bare_chain.entry})
