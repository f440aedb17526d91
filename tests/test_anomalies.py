"""Violation detection, confidence scoring, ranking, and the sweep."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockmine import (
    AnalysisResult,
    AnomalyReport,
    InvalidConfig,
    MiningConfig,
    Pattern,
    PropertySet,
    ScriptSource,
    analyze_dataset,
    build_project,
    compute_stats,
    detect_anomalies,
    extract_property_sets,
    find_violations,
    mine_closed_patterns,
    parameter_sweep,
    rank_anomalies,
    report_to_json,
    report_to_text,
)
from conftest import (
    FIG_BUGGY_PROPS,
    FIG_BUGGY_SCRIPT,
    FIG_DEVIATION,
    FIG_PROPS,
    FIG_SCRIPT,
    GOTO,
    IF,
    MOVE,
    WGF,
    prop,
)
from oracles import (
    confidence,
    dummy_sources,
    naive_find_violations,
    naive_patterns,
    naive_rank_anomalies,
    naive_sweep,
)

RELAXED = MiningConfig(min_support=1, min_confidence="1/100")


def _classroom_sets(n_correct=30, n_buggy=1):
    projects = []
    for i in range(n_correct):
        projects.append(build_project(f"student_{i:03d}", [("Cat", [FIG_SCRIPT])]))
    for j in range(n_buggy):
        projects.append(
            build_project(f"student_{n_correct + j:03d}", [("Cat", [FIG_BUGGY_SCRIPT])])
        )
    return extract_property_sets(projects)


def _sets(transactions):
    sources = dummy_sources(len(transactions))
    return [
        PropertySet(source=s, properties=frozenset(t))
        for s, t in zip(sources, transactions)
    ]


def test_buggy_script_deviation_is_the_five_move_properties():
    sets = _classroom_sets(1, 1)
    pattern = Pattern(
        properties=FIG_PROPS, support=1, supporters=frozenset({sets[0].source})
    )
    violations = find_violations([pattern], sets, RELAXED)
    assert len(violations) == 1
    violation = violations[0]
    assert violation.script == sets[1].source
    assert violation.deviation == FIG_DEVIATION
    assert violation.satisfied == FIG_PROPS - FIG_DEVIATION
    assert len(violation.deviation) == 5


def test_supporting_scripts_are_not_violations():
    sets = _classroom_sets(3, 1)
    patterns = mine_closed_patterns(sets, min_support=3)
    violations = find_violations(patterns, sets, RELAXED)
    violating = {v.script.project_id for v in violations}
    assert violating == {"student_003"}


def test_small_patterns_are_not_checked():
    sets = _sets([{list(FIG_PROPS)[0]}, set()])
    pattern = Pattern(
        properties=frozenset({list(FIG_PROPS)[0]}),
        support=1,
        supporters=frozenset({sets[0].source}),
    )
    config = MiningConfig(min_support=1, min_pattern_size=2, min_confidence="1/100")
    assert find_violations([pattern], sets, config) == []


def test_deviation_level_cap_filters_large_deviations():
    sets = _classroom_sets(1, 1)
    pattern = Pattern(
        properties=FIG_PROPS, support=1, supporters=frozenset({sets[0].source})
    )
    tight = MiningConfig(min_support=1, max_deviation_level=4, min_confidence="1/100")
    assert find_violations([pattern], sets, tight) == []
    loose = MiningConfig(min_support=1, max_deviation_level=5, min_confidence="1/100")
    assert len(find_violations([pattern], sets, loose)) == 1


def test_disjoint_scripts_are_not_violations():
    # a script sharing nothing with the pattern is a different solution,
    # not a deviation from this one
    sets = _sets([FIG_PROPS, frozenset()])
    pattern = Pattern(
        properties=FIG_PROPS, support=1, supporters=frozenset({sets[0].source})
    )
    assert find_violations([pattern], sets, RELAXED) == []


def test_confidence_formula():
    sets = _classroom_sets(20, 1)
    patterns = mine_closed_patterns(sets, min_support=20)
    violations = find_violations(patterns, sets, RELAXED)
    assert len(violations) == 1
    assert confidence(violations[0], violations) == Fraction(20, 21)


def test_confidence_counts_scripts_with_identical_deviation():
    sets = _classroom_sets(20, 3)
    patterns = mine_closed_patterns(sets, min_support=20)
    violations = find_violations(patterns, sets, RELAXED)
    same_pattern = [v for v in violations if v.pattern.properties == FIG_PROPS]
    assert len(same_pattern) == 3
    for v in same_pattern:
        assert confidence(v, violations) == Fraction(20, 23)
    # rank_anomalies counts deviation classes in one pass; the linear-scan
    # oracle must agree on every violation
    ranked = rank_anomalies(violations, RELAXED)
    assert sorted((a.script, a.confidence) for a in ranked) == sorted(
        (v.script, confidence(v, violations)) for v in violations
    )


def test_rank_anomalies_filters_by_confidence():
    sets = _classroom_sets(20, 3)
    patterns = mine_closed_patterns(sets, min_support=20)
    violations = find_violations(patterns, sets, RELAXED)
    strict = MiningConfig(min_support=20, min_confidence=Fraction(9, 10))
    assert rank_anomalies(violations, strict) == []
    lenient = MiningConfig(min_support=20, min_confidence=Fraction(20, 23))
    anomalies = rank_anomalies(violations, lenient)
    assert len(anomalies) == 3
    assert [a.rank for a in anomalies] == [1, 2, 3]
    assert all(a.confidence == Fraction(20, 23) for a in anomalies)
    assert all(a.same_deviation_count == 3 for a in anomalies)


def test_classroom_yields_exactly_one_anomaly():
    sets = _classroom_sets(30, 1)
    anomalies = detect_anomalies(sets, MiningConfig())
    assert len(anomalies) == 1
    anomaly = anomalies[0]
    assert anomaly.rank == 1
    assert anomaly.confidence == Fraction(30, 31)
    assert anomaly.script.project_id == "student_030"
    assert anomaly.deviation == FIG_DEVIATION
    assert anomaly.pattern.support == 30


def test_ranking_prefers_higher_confidence_then_support():
    # two independent assignments in one dataset: a large one with a rare
    # mistake and a small one with a common mistake
    sets = _classroom_sets(25, 2)
    config = MiningConfig(min_support=10, min_confidence="1/2")
    anomalies = detect_anomalies(sets, config)
    assert anomalies, "expected at least the shared-core violations"
    confidences = [a.confidence for a in anomalies]
    assert confidences == sorted(confidences, reverse=True)
    ranks = [a.rank for a in anomalies]
    assert ranks == list(range(1, len(anomalies) + 1))


def test_ties_break_deterministically():
    sets = _classroom_sets(20, 2)
    config = MiningConfig(min_support=20, min_confidence="1/2")
    once = detect_anomalies(sets, config)
    again = detect_anomalies(list(reversed(sets)), config)
    assert [(a.script.ident, a.confidence, a.rank) for a in once] == [
        (a.script.ident, a.confidence, a.rank) for a in again
    ]


def test_anomaly_exposes_violation_fields():
    sets = _classroom_sets(30, 1)
    (anomaly,) = detect_anomalies(sets, MiningConfig())
    assert anomaly.script == anomaly.violation.script
    assert anomaly.pattern == anomaly.violation.pattern
    assert anomaly.deviation == anomaly.violation.deviation
    assert anomaly.satisfied == FIG_PROPS - FIG_DEVIATION


def test_sweep_covers_the_full_grid():
    sets = _classroom_sets(30, 1)
    supports = [1, 5, 10, 15, 20]
    confidences = ["0.1", "0.3", "0.5", "0.7", "0.9"]
    cells = parameter_sweep(sets, supports, confidences)
    assert len(cells) == 25
    seen = {(c.min_support, c.min_confidence) for c in cells}
    assert len(seen) == 25
    by_cell = {(c.min_support, c.min_confidence): c.anomalies for c in cells}
    assert by_cell[(20, Fraction(9, 10))] == 1


def test_sweep_is_monotone_in_both_parameters():
    sets = _classroom_sets(12, 3)
    supports = [1, 3, 6, 9, 12]
    confidences = [Fraction(i, 10) for i in range(1, 10)]
    cells = parameter_sweep(sets, supports, confidences)
    by_cell = {(c.min_support, c.min_confidence): c.anomalies for c in cells}
    for s_low, s_high in zip(supports, supports[1:]):
        for c in confidences:
            assert by_cell[(s_high, c)] <= by_cell[(s_low, c)]
    for c_low, c_high in zip(confidences, confidences[1:]):
        for s in supports:
            assert by_cell[(s, c_high)] <= by_cell[(s, c_low)]


def test_sweep_cells_match_independent_runs():
    sets = _classroom_sets(10, 2)
    supports = [2, 5, 10]
    confidences = ["0.25", "0.75"]
    cells = parameter_sweep(sets, supports, confidences)
    for cell in cells:
        config = MiningConfig(
            min_support=cell.min_support, min_confidence=cell.min_confidence
        )
        direct = detect_anomalies(sets, config)
        assert cell.anomalies == len(direct), (
            f"cell ({cell.min_support}, {cell.min_confidence}) diverged"
        )


def test_sweep_rejects_bad_grids():
    sets = _classroom_sets(2, 1)
    with pytest.raises(InvalidConfig):
        parameter_sweep(sets, [], ["0.5"])
    with pytest.raises(InvalidConfig):
        parameter_sweep(sets, [1], [])
    with pytest.raises(InvalidConfig):
        parameter_sweep(sets, [0], ["0.5"])
    with pytest.raises(InvalidConfig):
        parameter_sweep(sets, [True], ["0.5"])
    for confidence in ["2.0", "abc", None, True, 0, float("nan")]:
        with pytest.raises(InvalidConfig, match="confidence"):
            parameter_sweep(sets, [1], [confidence])


def _synthetic_sets(counts):
    """Property sets over fabricated sources: counts is a list of
    (property frozenset, how many scripts carry it) in source order."""
    total = sum(n for _, n in counts)
    sources = iter(dummy_sources(total))
    sets = []
    for properties, n in counts:
        for _ in range(n):
            sets.append(PropertySet(source=next(sources), properties=frozenset(properties)))
    return sets


def test_doubling_the_corpus_preserves_every_confidence():
    base = detect_anomalies(
        _synthetic_sets([(FIG_PROPS, 10), (FIG_BUGGY_PROPS, 1)]),
        MiningConfig(min_support=5, min_confidence="1/100"),
    )
    doubled = detect_anomalies(
        _synthetic_sets([(FIG_PROPS, 20), (FIG_BUGGY_PROPS, 2)]),
        MiningConfig(min_support=10, min_confidence="1/100"),
    )
    assert [a.confidence for a in base] == [Fraction(10, 11)]
    assert [a.confidence for a in doubled] == [Fraction(10, 11), Fraction(10, 11)]
    assert {a.deviation for a in doubled} == {a.deviation for a in base}


def test_deviation_classes_partition_violations_and_bound_confidence():
    # Three script shapes: the reference, two copies of the buggy variant,
    # and one that merely lacks two of the reference properties. The third
    # shape is a strict subset of the reference, so it mines as its own
    # pattern with support 21 and also deviates from the full pattern.
    partial = frozenset(FIG_PROPS) - {prop(MOVE, MOVE), prop(MOVE, IF)}
    sets = _synthetic_sets([(FIG_PROPS, 20), (FIG_BUGGY_PROPS, 2), (partial, 1)])
    config = MiningConfig(min_support=20, min_confidence="1/100")
    patterns = mine_closed_patterns(sets, config.min_support)
    violations = find_violations(patterns, sets, config)
    anomalies = detect_anomalies(sets, config)

    assert len(patterns) == 3
    assert len(violations) == 5
    assert len(anomalies) == 5
    observed = sorted((a.confidence, a.same_deviation_count) for a in anomalies)
    assert observed == sorted([
        (Fraction(20, 21), 1),
        (Fraction(21, 23), 2),
        (Fraction(21, 23), 2),
        (Fraction(10, 11), 2),
        (Fraction(10, 11), 2),
    ])

    by_pattern = {}
    for violation in violations:
        by_pattern.setdefault(violation.pattern.properties, []).append(violation)
    assert sorted(len(group) for group in by_pattern.values()) == [2, 3]
    for anomaly in anomalies:
        group = by_pattern[anomaly.pattern.properties]
        same = [v for v in group if v.deviation == anomaly.deviation]
        assert anomaly.same_deviation_count == len(same)
    for anomaly in anomalies:
        s = anomaly.pattern.support
        assert 0 < anomaly.confidence <= Fraction(s, s + 1) < 1


def test_raising_min_confidence_past_the_top_anomaly_reports_nothing():
    sets = _classroom_sets()
    assert detect_anomalies(sets, MiningConfig(min_confidence="99/100")) == []


def test_sweep_over_a_uniform_corpus_is_all_zero():
    sets = _synthetic_sets([(FIG_PROPS, 8)])
    cells = parameter_sweep(sets, [1, 4, 8], ["1/10", "9/10"])
    assert len(cells) == 6
    assert all(cell.anomalies == 0 for cell in cells)


# Differential tests: the counted pipeline against the object-per-violation
# oracle. Projects copy a few script variants, so most property sets repeat
# and the distinct-set weights do real work.

_COMMANDS = st.sampled_from([MOVE, GOTO, "looks_sayforsecs", "motion_turnright"])
_BLOCKS = st.one_of(
    _COMMANDS,
    st.tuples(
        st.sampled_from(["control_repeat", IF]), st.lists(_COMMANDS, min_size=1, max_size=2)
    ),
)
_CONFIDENCES = [Fraction(1, 10), Fraction(1, 2), Fraction(2, 3), Fraction(9, 10)]


@st.composite
def _classrooms(draw):
    """Projects of one or two scripts picked from a reference script and a
    few one-block edits of it, and a configuration that lets violations
    through."""
    reference = draw(st.lists(_BLOCKS, min_size=2, max_size=5))
    variants = [[WGF, *reference]]
    for _ in range(draw(st.integers(1, 3))):
        edited = list(reference)
        at = draw(st.integers(0, len(edited) - 1))
        edited[at : at + 1] = draw(st.lists(_BLOCKS, max_size=1))  # drop or replace
        variants.append([WGF, *edited])
    # Every variant is used once, then projects pick at random.
    picks = [[k] for k in range(len(variants))]
    n = draw(st.integers(len(variants) + 1, 14))
    for _ in range(n - len(variants)):
        picks.append(draw(st.lists(st.integers(0, len(variants) - 1), min_size=1, max_size=2)))
    projects = [
        build_project(f"student_{i:02d}", [("Cat", [variants[k] for k in pick])])
        for i, pick in enumerate(picks)
    ]
    config = MiningConfig(
        min_support=draw(st.integers(1, n // 2)),
        min_pattern_size=draw(st.integers(1, 3)),
        max_deviation_level=draw(st.sampled_from([10000, 4, 2, 1])),
        min_confidence=draw(st.sampled_from(_CONFIDENCES)),
    )
    return projects, config


def _anomaly_fields(a):
    return (
        a.rank, a.confidence, a.same_deviation_count, a.script, a.pattern, a.deviation, a.satisfied
    )


def _naive_result(projects, sets, config):
    patterns = naive_patterns(sets, config.min_support)
    violations = naive_find_violations(patterns, sets, config)
    anomalies = naive_rank_anomalies(violations, config)
    stats = compute_stats(projects, sets, patterns, violations, anomalies)
    return AnalysisResult(sets, patterns, violations, anomalies, stats)


@settings(max_examples=150, deadline=None)
@given(_classrooms())
def test_counted_pipeline_matches_the_object_oracle(classroom):
    projects, config = classroom
    result = analyze_dataset(projects, config)
    sets = result.property_sets
    naive = _naive_result(projects, sets, config)

    assert [(p.properties, p.support, p.supporters) for p in result.patterns] == [
        (p.properties, p.support, p.supporters) for p in naive.patterns
    ]
    assert result.stats == naive.stats
    assert list(result.violations) == naive.violations
    assert find_violations(result.patterns, sets, config) == naive.violations
    assert [_anomaly_fields(a) for a in result.anomalies] == [
        _anomaly_fields(a) for a in naive.anomalies
    ]
    assert rank_anomalies(naive.violations, config) == naive.anomalies
    assert detect_anomalies(sets, config) == naive.anomalies
    for top in (0, 3, None):
        ours = AnomalyReport("classroom", config, result)
        theirs = AnomalyReport("classroom", config, naive)
        assert report_to_json(ours, top=top) == report_to_json(theirs, top=top)
        assert report_to_text(ours, top=top) == report_to_text(theirs, top=top)

    supports = sorted({1, config.min_support, len(projects)})
    cells = parameter_sweep(sets, supports, _CONFIDENCES, config)
    assert [(c.min_support, c.min_confidence, c.anomalies) for c in cells] == naive_sweep(
        sets, supports, _CONFIDENCES, config
    )


@settings(max_examples=150, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from(["a", "b", "c"]), st.frozensets(st.sampled_from(sorted(FIG_PROPS)))
        ),
        min_size=1,
        max_size=12,
    ),
    st.integers(1, 4),
    st.sampled_from(_CONFIDENCES),
)
def test_ranking_ties_on_one_identifier_keep_the_oracle_order(scripts, min_support, conf):
    # Scripts drawn from three identifiers, so equal identifiers (and equal
    # sources) reach the last tie-breaks: deviation order, then input order.
    sets = [
        PropertySet(ScriptSource(name, "Cat", 0, root_block=f"b{i}"), properties)
        for i, (name, properties) in enumerate(scripts)
    ]
    config = MiningConfig(min_support=min_support, min_pattern_size=1, min_confidence=conf)
    patterns = naive_patterns(sets, min_support)
    assert mine_closed_patterns(sets, min_support) == patterns
    violations = naive_find_violations(patterns, sets, config)
    assert find_violations(patterns, sets, config) == violations
    expected = naive_rank_anomalies(violations, config)
    assert rank_anomalies(violations, config) == expected
    assert detect_anomalies(sets, config) == expected


def test_result_sequences_follow_the_sequence_contract():
    projects = [
        build_project(f"student_{i:03d}", [("Cat", [FIG_SCRIPT if i < 12 else FIG_BUGGY_SCRIPT])])
        for i in range(15)
    ]
    config = MiningConfig(min_support=3, min_pattern_size=1, min_confidence="1/10")
    result = analyze_dataset(projects, config)
    sets = result.property_sets
    patterns = naive_patterns(sets, config.min_support)
    violations = naive_find_violations(patterns, sets, config)
    anomalies = naive_rank_anomalies(violations, config)
    assert len(violations) > 5 and len(anomalies) > 5

    for sequence, expected in ((result.violations, violations), (result.anomalies, anomalies)):
        n = len(expected)
        assert len(sequence) == n
        assert list(sequence) == expected
        assert [x for x in sequence] == expected
        assert sequence[0] == expected[0]
        assert sequence[n - 1] == expected[-1]
        assert sequence[-1] == expected[-1]
        assert sequence[-n] == expected[0]
        for index in (n, -n - 1, 10**9):
            with pytest.raises(IndexError):
                sequence[index]
        for cut in (
            slice(None), slice(2, None), slice(None, 3), slice(1, -1), slice(None, None, 2),
            slice(None, None, -1), slice(-3, None, -2), slice(5, 2), slice(-100, 100),
            slice(n + 5, n + 10), slice(0, 10**9, 3),
        ):
            assert sequence[cut] == expected[cut]
        assert list(reversed(sequence)) == expected[::-1]
        assert expected[1] in sequence
        with pytest.raises(TypeError):
            sequence[0] = expected[0]
