"""Closed frequent pattern mining, checked against exhaustive enumeration."""

from __future__ import annotations

import json
import random
import time
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockmine import (
    AnomalyReport,
    InvalidConfig,
    MiningConfig,
    Pattern,
    PropertySet,
    PRESETS,
    SMALL_CLASS_CONFIG,
    STANDARD_CONFIG,
    analyze_dataset,
    build_project,
    extract_property_sets,
    load_dataset,
    mine_closed_patterns,
    report_to_json,
    support,
)
from blockmine import BlockLabel, TemporalProperty, mining
from blockmine.mining import mine_vocabulary
from blockmine.properties import Vocabulary
from conftest import (
    FIG_BUGGY_PROPS,
    FIG_BUGGY_SCRIPT,
    FIG_PROPS,
    FIG_SCRIPT,
    open_ended_projects,
)
from oracles import (
    brute_force_closed,
    dummy_sources,
    present_pass_mine,
    random_bundled_instance,
    random_mining_instance,
)


def _two_script_sets() -> list[PropertySet]:
    projects = [
        build_project("alpha", [("Cat", [FIG_SCRIPT])]),
        build_project("beta", [("Cat", [FIG_BUGGY_SCRIPT])]),
    ]
    return extract_property_sets(projects)


def _sets_from(transactions, sources=None) -> list[PropertySet]:
    sources = sources or dummy_sources(len(transactions))
    return [
        PropertySet(source=s, properties=frozenset(t))
        for s, t in zip(sources, transactions)
    ]


def test_pattern_support_on_the_two_script_example():
    sets = _two_script_sets()
    assert support(FIG_PROPS, sets) == 1
    assert support(FIG_BUGGY_PROPS, sets) == 1
    assert support(FIG_PROPS & FIG_BUGGY_PROPS, sets) == 2
    assert support(frozenset(), sets) == 2


def test_two_script_example_yields_three_closed_patterns():
    sets = _two_script_sets()
    patterns = mine_closed_patterns(sets, min_support=1)
    found = {(p.properties, p.support) for p in patterns}
    assert found == {
        (FIG_PROPS, 1),
        (FIG_BUGGY_PROPS, 1),
        (FIG_PROPS & FIG_BUGGY_PROPS, 2),
    }
    # the shared core comes first: highest support wins
    assert patterns[0].properties == FIG_PROPS & FIG_BUGGY_PROPS
    assert len(FIG_PROPS & FIG_BUGGY_PROPS) == 4


def test_support_two_filters_to_the_shared_core():
    sets = _two_script_sets()
    patterns = mine_closed_patterns(sets, min_support=2)
    assert [(p.properties, p.support) for p in patterns] == [
        (FIG_PROPS & FIG_BUGGY_PROPS, 2)
    ]


def test_supporters_identify_the_right_scripts():
    sets = _two_script_sets()
    patterns = mine_closed_patterns(sets, min_support=1)
    by_props = {p.properties: p for p in patterns}
    assert {s.project_id for s in by_props[FIG_PROPS].supporters} == {"alpha"}
    assert {s.project_id for s in by_props[FIG_BUGGY_PROPS].supporters} == {"beta"}
    assert {
        s.project_id for s in by_props[FIG_PROPS & FIG_BUGGY_PROPS].supporters
    } == {"alpha", "beta"}


def test_miner_matches_brute_force_on_seeded_instances():
    rng = random.Random(8675309)
    start = time.perf_counter()
    for i in range(100):
        transactions, min_support = random_mining_instance(rng)
        sets = _sets_from(transactions)
        mined = {
            (p.properties, p.support)
            for p in mine_closed_patterns(sets, min_support)
        }
        expected = brute_force_closed(transactions, min_support)
        assert mined == expected, f"instance {i} diverged (seeded)"
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0


def test_miner_matches_brute_force_when_items_share_columns():
    # Items in a bundle share one column of transactions, so the miner
    # tries only the first of them; the others must still close in.
    rng = random.Random(20020411)
    items = shared = 0
    for i in range(100):
        transactions, min_support = random_bundled_instance(rng)
        sets = _sets_from(transactions)
        mined = {
            (p.properties, p.support)
            for p in mine_closed_patterns(sets, min_support)
        }
        assert mined == brute_force_closed(transactions, min_support), f"instance {i}"
        vocab = Vocabulary.of(sets)
        items += len(vocab.items)
        shared += len(vocab.items) - len(set(vocab.item_tids))
    assert 2 * shared > items  # most items repeat another's column


_WIDE_UNIVERSE = [
    TemporalProperty(BlockLabel(f"op_{a}"), BlockLabel(f"op_{b}")) for a in "abcdef" for b in "abcd"
]


@settings(max_examples=200, deadline=None)
@given(
    data=st.data(),
    transactions=st.lists(
        st.frozensets(st.sampled_from(_WIDE_UNIVERSE), max_size=len(_WIDE_UNIVERSE)),
        min_size=1,
        max_size=12,
    ),
)
def test_miner_matches_brute_force_when_sets_are_nearly_all_distinct(data, transactions):
    # Over 24 items few transactions repeat, so most items are frequent at
    # a node and rare below it: the case where each node's frequent items
    # are handed down to its children.
    min_support = data.draw(st.integers(1, len(transactions)))
    mined = mine_closed_patterns(_sets_from(transactions), min_support)
    expected = sorted(
        brute_force_closed(transactions, min_support),
        key=lambda found: Pattern(found[0], found[1], frozenset()).sort_key(),
    )
    assert [(p.properties, p.support) for p in mined] == expected


def _open_ended_property_sets(n_projects: int, seed: int) -> list[PropertySet]:
    return extract_property_sets(open_ended_projects(n_projects, seed))


def test_miner_matches_the_present_pass_reference_on_an_open_ended_task():
    sets = _open_ended_property_sets(150, seed=5)
    vocab = Vocabulary.of(sets)
    assert len(vocab.masks) > 0.9 * len(sets)  # nearly every script differs
    mined = mine_vocabulary(vocab, 30)
    reference = present_pass_mine(vocab, 30)
    assert len(mined) > 1000
    assert [(p.properties, p.support, p.supporters) for p in mined] == [
        (p.properties, p.support, p.supporters) for p in reference
    ]


def test_threshold_above_transaction_count_yields_nothing():
    sets = _two_script_sets()
    assert mine_closed_patterns(sets, min_support=3) == []


def test_bad_min_support_rejected():
    sets = _two_script_sets()
    # bool is a subclass of int, but True is not the count 1.
    for bad in (0, -5, True, 2.5, "2"):
        with pytest.raises(InvalidConfig, match="min_support"):
            mine_closed_patterns(sets, min_support=bad)


def test_empty_transaction_list_rejected():
    with pytest.raises(ValueError):
        mine_closed_patterns([], min_support=1)


def test_anonymous_property_sets_rejected():
    sets = [PropertySet(source=None, properties=FIG_PROPS)]
    with pytest.raises(ValueError):
        mine_closed_patterns(sets, min_support=1)


def test_all_empty_transactions_yield_nothing():
    sets = _sets_from([frozenset(), frozenset(), frozenset()])
    assert mine_closed_patterns(sets, min_support=1) == []


def test_raising_support_only_removes_patterns():
    rng = random.Random(13579)
    for _ in range(20):
        transactions, _ = random_mining_instance(rng)
        sets = _sets_from(transactions)
        previous = None
        for k in range(1, len(transactions) + 2):
            current = {
                (p.properties, p.support)
                for p in mine_closed_patterns(sets, min_support=k)
            }
            if previous is not None:
                assert current <= previous
            previous = current


def test_duplicate_transactions_add_support():
    sets = _sets_from([FIG_PROPS] * 5 + [FIG_BUGGY_PROPS])
    patterns = mine_closed_patterns(sets, min_support=5)
    by_props = {p.properties: p.support for p in patterns}
    assert by_props[FIG_PROPS] == 5
    assert by_props[FIG_PROPS & FIG_BUGGY_PROPS] == 6


def test_patterns_come_out_sorted():
    rng = random.Random(2468)
    for _ in range(10):
        transactions, min_support = random_mining_instance(rng)
        patterns = mine_closed_patterns(_sets_from(transactions), min_support)
        keys = [p.sort_key() for p in patterns]
        assert keys == sorted(keys)


def test_mining_is_deterministic_across_input_order():
    transactions = [FIG_PROPS, FIG_BUGGY_PROPS, FIG_PROPS & FIG_BUGGY_PROPS]
    sources = dummy_sources(3)
    forward = mine_closed_patterns(_sets_from(transactions, sources), 1)
    backward = mine_closed_patterns(
        _sets_from(list(reversed(transactions)), list(reversed(sources))), 1
    )
    assert [(p.properties, p.support) for p in forward] == [
        (p.properties, p.support) for p in backward
    ]


def test_pattern_size_property():
    pattern = Pattern(
        properties=FIG_PROPS, support=3, supporters=frozenset(dummy_sources(3))
    )
    assert pattern.size == 9


def test_config_defaults_and_presets():
    config = MiningConfig()
    assert config.min_support == 20
    assert config.min_pattern_size == 2
    assert config.max_deviation_level == 10000
    assert config.min_confidence == Fraction(9, 10)
    assert STANDARD_CONFIG == config
    assert SMALL_CLASS_CONFIG.min_support == 10
    assert SMALL_CLASS_CONFIG.min_confidence == Fraction(7, 10)
    assert "standard" in PRESETS and "small-class" in PRESETS


def test_config_normalizes_float_confidence():
    config = MiningConfig(min_confidence=0.9)
    assert config.min_confidence == Fraction(9, 10)
    assert MiningConfig(min_confidence="0.75").min_confidence == Fraction(3, 4)
    assert MiningConfig(min_confidence=1).min_confidence == Fraction(1)


def test_config_validation():
    with pytest.raises(InvalidConfig):
        MiningConfig(min_support=0)
    with pytest.raises(InvalidConfig):
        MiningConfig(min_pattern_size=0)
    with pytest.raises(InvalidConfig):
        MiningConfig(max_deviation_level=0)
    with pytest.raises(InvalidConfig):
        MiningConfig(min_confidence=0)
    with pytest.raises(InvalidConfig):
        MiningConfig(min_confidence=1.5)
    with pytest.raises(InvalidConfig):
        MiningConfig(min_confidence="nonsense")


@pytest.mark.parametrize(
    "field", ["min_support", "min_pattern_size", "max_deviation_level", "min_confidence"]
)
def test_config_rejects_booleans_as_counts(field):
    # bool is a subclass of int; True must not pass as the count 1, nor
    # as the confidence 1
    with pytest.raises(InvalidConfig, match=field):
        MiningConfig(**{field: True})


def test_doubling_every_transaction_doubles_every_support():
    rng = random.Random(2468)
    for _ in range(10):
        transactions, min_support = random_mining_instance(rng)
        doubled = transactions + transactions
        base_sets = [
            PropertySet(source=src, properties=items)
            for src, items in zip(dummy_sources(len(transactions)), transactions)
        ]
        doubled_sets = [
            PropertySet(source=src, properties=items)
            for src, items in zip(dummy_sources(len(doubled)), doubled)
        ]
        base = mine_closed_patterns(base_sets, min_support)
        mined = mine_closed_patterns(doubled_sets, 2 * min_support)
        assert {p.properties for p in mined} == {p.properties for p in base}
        base_support = {p.properties: p.support for p in base}
        by_source = {ps.source: ps.properties for ps in doubled_sets}
        for pattern in mined:
            assert pattern.support == 2 * base_support[pattern.properties]
            for supporter in pattern.supporters:
                assert pattern.properties <= by_source[supporter]


def _naive_supporters(pattern: Pattern, sets) -> frozenset:
    return frozenset(ps.source for ps in sets if pattern.properties <= ps.properties)


def test_mined_supporters_compare_and_hash_like_their_frozenset():
    sets = _two_script_sets()
    for pattern in mine_closed_patterns(sets, min_support=1):
        expected = _naive_supporters(pattern, sets)
        assert pattern.supporters == expected
        assert expected == pattern.supporters
        assert not pattern.supporters != expected
        assert pattern.supporters != expected | {dummy_sources(1)[0]}
        assert expected | {dummy_sources(1)[0]} != pattern.supporters
        assert hash(pattern.supporters) == hash(expected)
        by_hand = replace(pattern, supporters=expected)
        assert by_hand == pattern and pattern == by_hand
        assert hash(by_hand) == hash(pattern)
        assert {pattern: 1}[by_hand] == 1


def test_supporter_count_is_taken_without_listing_the_supporters(monkeypatch):
    sets = _sets_from([FIG_PROPS] * 5 + [FIG_BUGGY_PROPS] * 3)
    patterns = mine_closed_patterns(sets, min_support=1)

    def members(self):
        raise AssertionError("the supporters were listed")

    monkeypatch.setattr(mining.Supporters, "members", property(members))
    assert [len(p.supporters) for p in patterns] == [p.support for p in patterns] == [8, 5, 3]


def test_supporters_shared_by_two_property_sets_count_once():
    # A script listed twice would be one supporter but two units of
    # support, so the miner refuses the list instead.
    (ps,) = _sets_from([FIG_PROPS])
    with pytest.raises(ValueError, match="source"):
        mine_closed_patterns([ps, ps], 1)
    (pattern,) = mine_closed_patterns([ps], 1)
    assert len(pattern.supporters) == pattern.support == 1
    assert pattern.supporters == frozenset({ps.source}) == set(pattern.supporters)
    assert hash(pattern.supporters) == hash(frozenset({ps.source}))


def test_supporter_count_in_the_json_report_counts_distinct_scripts(classroom_dir):
    projects = load_dataset(classroom_dir)
    result = analyze_dataset(projects, MiningConfig())
    doc = json.loads(report_to_json(AnomalyReport("c", MiningConfig(), result)))
    expected = [len(_naive_supporters(p, result.property_sets)) for p in result.patterns]
    assert [p["supporter_count"] for p in doc["patterns"]] == expected == [31, 30]
