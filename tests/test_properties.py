"""Temporal block-pair properties and their reachability basis."""

from __future__ import annotations

from blockmine import (
    BlockLabel,
    ScriptModel,
    TemporalProperty,
    build_script_model,
    enumerate_scripts,
    format_properties,
    properties_to_dot,
    props,
    reachability,
    sorted_properties,
)
from conftest import (
    FIG_BUGGY_PROPS,
    FIG_DEVIATION,
    FIG_PROPS,
    MOVE,
    hand_built_fig_model,
    prop,
)

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
