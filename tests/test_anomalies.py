"""Violation detection, confidence scoring, ranking, and the sweep."""

from __future__ import annotations

import tracemalloc
from dataclasses import replace
from fractions import Fraction
from itertools import pairwise
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from blockmine import (
    AnalysisResult,
    AnomalyReport,
    InvalidConfig,
    MiningConfig,
    Pattern,
    PropertySet,
    ScriptSource,
    Violation,
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
from blockmine.anomalies import DeviationClasses, _confident_groups, _DeviationClass
from blockmine.properties import Vocabulary
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
    open_ended_projects,
    prop,
)
from oracles import (
    confidence,
    dummy_sources,
    fraction_confident_groups,
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


@pytest.mark.parametrize(
    "analyse",
    [
        lambda sets: mine_closed_patterns(sets, 1),
        lambda sets: find_violations(mine_closed_patterns(sets[:-1], 1), sets, RELAXED),
        lambda sets: detect_anomalies(sets, RELAXED),
        lambda sets: parameter_sweep(sets, [1], ["0.01"]),
    ],
    ids=["mine_closed_patterns", "find_violations", "detect_anomalies", "parameter_sweep"],
)
def test_a_property_set_without_a_source_is_refused(analyse):
    # The source-less script deviates from the class pattern, so an
    # unchecked run would report a violation that names no script.
    sets = _classroom_sets(20, 0)
    with pytest.raises(ValueError, match="source"):
        analyse([*sets, PropertySet(source=None, properties=FIG_BUGGY_PROPS)])
    # So does a second set of one script, which would also count it twice.
    repeat = replace(sets[10], properties=FIG_BUGGY_PROPS)
    with pytest.raises(ValueError, match="source.*'student_010'"):
        analyse([*sets, repeat])


def test_analyze_dataset_refuses_a_project_given_twice():
    project = build_project("student_000", [("Cat", [FIG_SCRIPT])])
    config = MiningConfig(min_support=1)
    assert analyze_dataset([project], config).patterns
    with pytest.raises(ValueError, match="source.*'student_000'"):
        analyze_dataset([project, project], config)


def test_rank_anomalies_refuses_a_violation_without_a_script():
    sets = _classroom_sets(20, 1)
    violations = find_violations(mine_closed_patterns(sets, 20), sets, RELAXED)
    assert violations
    violations[0] = replace(violations[0], script=None)
    with pytest.raises(ValueError, match="source"):
        rank_anomalies(violations, RELAXED)


def test_rank_anomalies_refuses_a_script_twice_for_one_pattern():
    sets = _classroom_sets(10, 1)
    config = MiningConfig(min_support=5, min_confidence="1/2")
    violations = find_violations(mine_closed_patterns(sets, 5), sets, config)
    (once,) = rank_anomalies(violations, config)
    assert once.script.project_id == "student_010"
    assert (once.rank, once.confidence) == (1, Fraction(10, 11))
    # Counted twice, the one script would rank #1 and #2 at 5/6.
    with pytest.raises(ValueError, match="script.*'student_010'"):
        rank_anomalies(violations + violations, config)


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

    # Two patterns equal but for their supporters tie on the sort key, so
    # one script's violations of them keep their input order.
    script, a, b, c, d = dummy_sources(5)
    first = Pattern(FIG_PROPS, 2, frozenset({a, b}))
    second = Pattern(FIG_PROPS, 2, frozenset({c, d}))
    assert first != second and first.sort_key() == second.sort_key()
    violations = [
        Violation(script, pattern, FIG_DEVIATION, FIG_PROPS - FIG_DEVIATION)
        for pattern in (first, second)
    ]
    for listed in (violations, violations[::-1]):
        ranked = rank_anomalies(listed, RELAXED)
        assert ranked == naive_rank_anomalies(listed, RELAXED)
        assert [x.pattern for x in ranked] == [v.pattern for v in listed]


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


def test_a_deviation_class_keeps_no_member_list():
    # 3000 distinct sets miss one property of a two-property pattern: one
    # class of 3000 violations, whose scripts the core does not store.
    kept, missed = prop(WGF, MOVE), prop(MOVE, IF)
    sets = _sets([{kept, prop(GOTO, f"idiom_{k}")} for k in range(3000)])
    pattern = Pattern(frozenset({kept, missed}), support=1, supporters=frozenset())
    vocab = Vocabulary.of(sets, extra=pattern.properties)
    vocab.mask(pattern.properties)  # builds the property index outside the measurement
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        core = DeviationClasses([pattern], vocab, RELAXED)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained < 16 * 1024
    assert [c.weight for c in core.classes] == [3000]
    violations = core.violations()
    assert len(violations) == 3000
    assert [v.script for v in violations] == [ps.source for ps in sets]
    assert {v.deviation for v in violations} == {frozenset({missed})}


def test_raising_min_confidence_past_the_top_anomaly_reports_nothing():
    sets = _classroom_sets()
    assert detect_anomalies(sets, MiningConfig(min_confidence="99/100")) == []


def test_sweep_over_a_uniform_corpus_is_all_zero():
    sets = _synthetic_sets([(FIG_PROPS, 8)])
    cells = parameter_sweep(sets, [1, 4, 8], ["1/10", "9/10"])
    assert len(cells) == 6
    assert all(cell.anomalies == 0 for cell in cells)


# The confidence threshold is tested in integers, s * den >= num * (s + w),
# and a confidence that equals the threshold passes it.

_THRESHOLDS = st.fractions(min_value=0, max_value=1, max_denominator=60).filter(bool)


def _pair_sets(pairs):
    """Per (s, w): s scripts holding a two-property pattern of their own
    and w holding only its first property, so the pattern has support s
    and one deviation class of weight w."""
    transactions = []
    for k, (s, w) in enumerate(pairs):
        kept, missed = prop(WGF, f"op_{k}"), prop(f"op_{k}", MOVE)
        transactions += [{kept, missed}] * s + [{kept}] * w
    return _sets(transactions)


def test_a_confidence_equal_to_the_threshold_is_kept():
    # 9 / (9 + 1) is exactly 0.9 and passes; 9 / (9 + 2) falls short.
    kept, dropped = _DeviationClass(0, 0b01, 1), _DeviationClass(0, 0b10, 2)
    assert _confident_groups([kept, dropped], [9], Fraction(9, 10)) == [(Fraction(9, 10), [kept])]
    sets = _pair_sets([(9, 1), (9, 2)])
    assert [c.anomalies for c in parameter_sweep(sets, [9], ["0.9"])] == [1]
    (anomaly,) = detect_anomalies(sets, MiningConfig(min_support=9, min_confidence=0.9))
    assert (anomaly.confidence, anomaly.same_deviation_count) == (Fraction(9, 10), 1)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_confident_groups_match_the_fraction_oracle(data):
    supports = data.draw(st.lists(st.integers(1, 30), min_size=1, max_size=4))
    drawn = st.tuples(st.integers(0, len(supports) - 1), st.integers(1, 15), st.integers(1, 30))
    classes = [
        _DeviationClass(*c)
        for c in data.draw(st.lists(drawn, min_size=1, max_size=12, unique_by=lambda c: c[:2]))
    ]
    at = [Fraction(supports[c.pattern], supports[c.pattern] + c.weight) for c in classes]
    threshold = data.draw(st.one_of(st.sampled_from(at), _THRESHOLDS))
    groups = _confident_groups(classes, supports, threshold)
    assert groups == fraction_confident_groups(classes, supports, threshold)
    assert all(len({c.weight for c in group}) == 1 for _, group in groups)


_HUGE = 2**40


@st.composite
def _neighbour_pairs(draw):
    """(a, c*a + d) and (a + 1, c*(a + 1) + d), d = +-1: their confidences
    differ by 1 / ((a + c*a + d) * (a + 1 + c*(a + 1) + d)) only, far below
    a float's resolution once a is large. With d = -1 the smaller support
    has the higher confidence; (2**40, 1) and (2**40 + 1, 1) is c = 0."""
    a, c = draw(st.integers(1, _HUGE)), draw(st.integers(0, 3))
    d = draw(st.sampled_from([-1, 1])) if c * a > 1 else 1
    return [(a, c * a + d), (a + 1, c * (a + 1) + d)]


_HUGE_PAIRS = st.lists(
    st.one_of(
        _neighbour_pairs(),
        st.lists(st.tuples(st.integers(1, _HUGE), st.integers(1, _HUGE)), min_size=1, max_size=2),
    ),
    min_size=1,
    max_size=3,
).map(lambda chunks: [pair for chunk in chunks for pair in chunk])


@settings(max_examples=200, deadline=None)
@given(pairs=_HUGE_PAIRS, sizes=st.lists(st.integers(1, 3), min_size=1, max_size=2), cut=st.integers(0, 5))
@example(pairs=[(_HUGE, 1), (_HUGE + 1, 1)], sizes=[1], cut=0)
@example(pairs=[(_HUGE, _HUGE - 1), (_HUGE + 1, _HUGE)], sizes=[1, 2], cut=0)
def test_confident_groups_order_exactly_at_scale(pairs, sizes, cut):
    # Pattern j has support pairs[j][0] and one class per deviation size,
    # each of weight pairs[j][1]; the threshold is one of their confidences.
    supports = [s for s, _ in pairs]
    classes = [
        _DeviationClass(j, (1 << size) - 1, w)
        for j, (_, w) in enumerate(pairs)
        for size in sorted(set(sizes))
    ]
    threshold = sorted(Fraction(s, s + w) for s, w in pairs)[cut % len(pairs)]
    groups = _confident_groups(classes, supports, threshold)
    assert groups == fraction_confident_groups(classes, supports, threshold)
    assert all(len({c.weight for c in group}) == 1 for _, group in groups)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.integers(1, 12), st.integers(1, 12)), min_size=1, max_size=3), st.data())
def test_sweep_counts_match_the_fraction_oracle_at_the_boundary(pairs, data):
    sets = _pair_sets(pairs)
    at = [Fraction(s, s + w) for s, w in pairs]
    confidences = data.draw(
        st.lists(st.one_of(st.sampled_from(at), _THRESHOLDS), min_size=1, max_size=4)
    )
    supports = sorted({1, *(s for s, _ in pairs)})
    cells = parameter_sweep(sets, supports, confidences)
    assert [(c.min_support, c.min_confidence, c.anomalies) for c in cells] == naive_sweep(
        sets, supports, confidences, MiningConfig()
    )


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


@settings(max_examples=100, deadline=None)
@given(_classrooms())
def test_each_checked_pattern_owns_one_run_of_classes(classroom):
    projects, config = classroom
    result = analyze_dataset(projects, config)
    classes = DeviationClasses(result.patterns, Vocabulary.of(result.property_sets), config)
    runs = classes.runs
    assert runs[0] == 0 and runs[-1] == len(classes.classes)
    assert len(runs) == len(classes.patterns) + 1
    assert runs == sorted(runs)
    for j, (start, end) in enumerate(pairwise(runs)):
        assert all(c.pattern == j for c in classes.classes[start:end])
    # Patterns without classes are empty runs; reading by index skips them.
    violations = classes.violations()
    assert [violations[i] for i in range(len(violations))] == list(result.violations)


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
    # Scripts drawn from three identifiers, so equal identifiers (their
    # sources differ in root_block) reach the last tie-breaks: deviation
    # order, then input order.
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


# ------------------------------------------------- open-ended ranking


def test_reading_the_top_anomalies_touches_only_their_groups():
    # Ordering a group reads the sort keys of its classes' patterns and the
    # identifiers of its scripts; the other groups are not looked at.
    config = MiningConfig(min_support=8, min_confidence="1/2")
    result = analyze_dataset(open_ended_projects(40, 5), config)
    classes = DeviationClasses(result.patterns, Vocabulary.of(result.property_sets), config)
    supports = [p.support for p in classes.patterns]
    shown, patterns, scripts = 0, set(), set()
    for _, group in _confident_groups(classes.classes, supports, config.min_confidence):
        if shown >= 10:
            break
        shown += sum(c.weight for c in group)
        patterns.update(id(classes.patterns[c.pattern]) for c in group)
        scripts.update(id(classes.vocab.scripts[k]) for k, _ in classes._members(group))
    assert len(patterns) < len(classes.patterns)
    assert len(scripts) < len(result.property_sets)

    touched_patterns, touched_scripts = set(), set()
    sort_key, ident = Pattern.sort_key, ScriptSource.ident.fget

    def recorded_sort_key(pattern):
        touched_patterns.add(id(pattern))
        return sort_key(pattern)

    def recorded_ident(script):
        touched_scripts.add(id(script))
        return ident(script)

    with mock.patch.object(Pattern, "sort_key", autospec=True, side_effect=recorded_sort_key):
        with mock.patch.object(ScriptSource, "ident", property(recorded_ident)):
            top = result.anomalies[:10]
    assert len(top) == 10
    assert touched_patterns == patterns
    assert touched_scripts == scripts


def test_ranking_holds_no_key_per_deviation_class():
    # The confident classes are filed under their group key, so reading the
    # top anomalies builds no (key, class) tuple per class. Over these 3,280
    # classes CPython 3.11 traces about 52 bytes per class, and 90-122 when
    # a key tuple was built and sorted for every passing class.
    config = MiningConfig(min_support=8, min_confidence="1/2")
    result = analyze_dataset(open_ended_projects(40, 5), config)
    core = DeviationClasses(result.patterns, Vocabulary.of(result.property_sets), config)
    tracemalloc.start()
    try:
        top = core.anomalies(config.min_confidence)[:10]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(top) == 10
    per_class = peak / len(core.classes)
    assert per_class < 70, f"traced peak {per_class:.1f} bytes per deviation class"


def test_open_ended_ranking_matches_the_object_oracle():
    # 972 patterns, 24,898 violations and 5,282 anomalies: groups far
    # larger, over far more patterns, than the drawn classrooms give.
    projects = open_ended_projects(40, 5)
    config = MiningConfig(min_support=8, max_deviation_level=2, min_confidence="1/2")
    result = analyze_dataset(projects, config)
    sets = result.property_sets
    violations = find_violations(result.patterns, sets, config)
    naive = naive_rank_anomalies(violations, config)
    assert len(violations) > 20_000 and len(naive) > 5_000

    assert list(result.anomalies) == naive
    assert rank_anomalies(violations, config) == naive
    stats = compute_stats(projects, sets, result.patterns, violations, naive)
    ours = AnomalyReport("open-ended", config, result)
    theirs = AnomalyReport(
        "open-ended", config, AnalysisResult(sets, result.patterns, violations, naive, stats)
    )
    assert report_to_json(ours, top=None) == report_to_json(theirs, top=None)
    assert report_to_text(ours, top=None) == report_to_text(theirs, top=None)
