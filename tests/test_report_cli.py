"""Reporting surfaces and the command line tool."""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from enum import IntEnum
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockmine import (
    AnomalyReport,
    MiningConfig,
    analyze_dataset,
    anomaly_dot_documents,
    build_project,
    document_to_json,
    extract_models,
    format_confidence,
    load_dataset,
    model_artifacts,
    parameter_sweep,
    report_to_document,
    report_to_json,
    report_to_text,
    stats_to_document,
    stats_to_text,
    sweep_to_csv,
    sweep_to_document,
    extract_property_sets,
)
from blockmine import report
from blockmine.cli import build_parser, main
from blockmine.model import build_shape_model
from conftest import FIG_SCRIPT, write_classroom
from oracles import per_script_models

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture(scope="module")
def classroom_result(tmp_path_factory):
    directory = write_classroom(tmp_path_factory.mktemp("report_classroom"))
    projects = load_dataset(directory)
    config = MiningConfig()
    return directory, projects, analyze_dataset(projects, config)


def test_extract_models_keeps_dataset_order(classroom_result):
    _, projects, _ = classroom_result
    models = extract_models(projects)
    idents = [m.source.ident for m in models]
    assert idents == sorted(idents)
    assert len(models) == 31
    assert all(m.is_epsilon_free for m in models)


def test_stats_numbers(classroom_result):
    _, _, result = classroom_result
    stats = result.stats
    assert stats.solutions == 31
    assert stats.models == 31
    assert stats.patterns == 2
    assert stats.violations == 1
    assert stats.anomalies == 1
    assert stats.mean_blocks == 5.0
    assert stats.mean_scripts == 1.0
    assert stats.mean_sprites == 1.0


def test_stats_text_and_document(classroom_result):
    _, _, result = classroom_result
    text = stats_to_text(result.stats)
    assert "solutions:" in text and "31" in text
    doc = stats_to_document(result.stats)
    assert doc["solutions"] == 31
    assert doc["kind"] == "dataset-stats"
    json.loads(document_to_json(doc))


def test_format_confidence_rounding():
    assert format_confidence(Fraction(30, 31)) == "0.9677"
    assert format_confidence(Fraction(1)) == "1.0000"
    assert format_confidence(Fraction(9, 10)) == "0.9000"
    assert format_confidence(Fraction(20, 23)) == "0.8696"
    assert format_confidence(Fraction(1, 3)) == "0.3333"


def test_text_report_shows_the_anomaly(classroom_result):
    directory, _, result = classroom_result
    report = AnomalyReport(dataset=str(directory), config=MiningConfig(), result=result)
    text = report_to_text(report, top=10)
    assert "#1" in text
    assert "0.9677" in text
    assert "student_030/Cat[0]" in text
    assert "missing (5):" in text
    assert "satisfied (4):" in text
    assert "move steps" in text


def test_text_report_with_no_anomalies(tmp_path):
    write_classroom(tmp_path, n_correct=3, n_buggy=0)
    projects = load_dataset(tmp_path)
    result = analyze_dataset(projects, MiningConfig(min_support=3))
    report = AnomalyReport(dataset=str(tmp_path), config=MiningConfig(min_support=3), result=result)
    text = report_to_text(report)
    assert "no anomalies at this configuration" in text


def test_json_report_document_shape(classroom_result):
    directory, _, result = classroom_result
    report = AnomalyReport(dataset=str(directory), config=MiningConfig(), result=result)
    doc = json.loads(report_to_json(report, top=10))
    assert doc["schema_version"] == 1
    assert doc["config"]["min_support"] == 20
    assert doc["config"]["min_confidence"] == "9/10"
    anomaly = doc["anomalies"][0]
    assert anomaly["rank"] == 1
    assert anomaly["confidence"] == "0.9677"
    assert anomaly["confidence_exact"] == "30/31"
    assert anomaly["same_deviation_count"] == 1
    assert anomaly["script"]["project"] == "student_030"
    assert anomaly["pattern"]["support"] == 30
    assert len(anomaly["deviation"]) == 5
    assert len(anomaly["satisfied"]) == 4


def test_json_report_top_slices(classroom_result):
    directory, _, result = classroom_result
    report = AnomalyReport(dataset=str(directory), config=MiningConfig(), result=result)
    doc = json.loads(report_to_json(report, top=0))
    assert doc["anomalies"] == []
    assert doc["stats"]["anomalies"] == 1


def test_anomaly_dot_documents(classroom_result):
    _, _, result = classroom_result
    documents = anomaly_dot_documents(result.anomalies)
    assert len(documents) == 1
    name, dot = documents[0]
    assert name == "anomaly_0001_student_030_Cat_0.dot"
    assert dot.startswith("digraph")
    assert 'color="red"' in dot


def test_model_artifacts_naming_and_dedup(classroom_result):
    _, projects, _ = classroom_result
    models = extract_models(projects[:2])
    dots = model_artifacts(models, fmt="dot")
    assert [name for name, _ in dots] == [
        "student_000_Cat_0.dot",
        "student_001_Cat_0.dot",
    ]
    texts = model_artifacts(models, fmt="structured-text")
    assert all(name.endswith(".json") for name, _ in texts)
    parsed = json.loads(texts[0][1])
    assert parsed["kind"] == "script-model"
    assert parsed["entry"] == 0
    names = ("a b", "a_b", "a_b_Cat_0")
    colliding = extract_models([build_project(n, [("Cat", [FIG_SCRIPT])]) for n in names])
    assert [name for name, _ in model_artifacts(colliding)] == [
        "a_b_Cat_0.dot",
        "a_b_Cat_0_2.dot",
        "a_b_Cat_0_Cat_0.dot",
    ]
    with pytest.raises(ValueError, match="unknown model format: 'svg'"):
        model_artifacts(models, fmt="svg")


def test_sweep_rendering(classroom_result):
    _, projects, _ = classroom_result
    sets = extract_property_sets(projects)
    cells = parameter_sweep(sets, [1, 20], ["0.5", "0.9"])
    csv_text = sweep_to_csv(cells)
    lines = csv_text.strip().splitlines()
    assert lines[0] == "min_support,min_confidence,anomalies"
    assert len(lines) == 5
    assert lines[1].startswith("1,0.5000,")
    doc = sweep_to_document(cells)
    assert len(doc["cells"]) == 4
    json.loads(document_to_json(doc))


def test_every_property_occurrence_is_its_own_dict(classroom_result):
    directory, _, result = classroom_result
    report = AnomalyReport(dataset=str(directory), config=MiningConfig(), result=result)
    expected = json.loads(report_to_json(report))
    doc = report_to_document(report)
    assert doc == expected
    occurrences = [
        *(q for pattern in doc["patterns"] for q in pattern["properties"]),
        *(q for anomaly in doc["anomalies"] for q in anomaly["deviation"] + anomaly["satisfied"]),
    ]
    texts = [q["text"] for q in occurrences]
    shared = max(set(texts), key=texts.count)
    assert texts.count(shared) > 1
    first, *others = [q for q in occurrences if q["text"] == shared]
    first["text"] = "changed"
    first["first"] = None
    assert all(q["text"] == shared and q["first"] is not None for q in others)
    assert report_to_document(report) == expected


class _Level(IntEnum):
    LOW = 1
    HUGE = 2**70


_JSON_KEYS = [
    st.text(),
    st.integers(-(2**70), 2**70),
    st.floats(),
    st.booleans(),
    st.none(),
    st.sampled_from(list(_Level)),
    st.tuples(st.integers()),  # a key type json.dumps refuses
]
_JSON_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**70), 2**70),
    st.floats(),
    st.sampled_from([-0.0, 1e16, 5e-324, math.nan, math.inf, -math.inf]),
    st.text(),
    st.text(st.characters(min_codepoint=0x80)),
    st.text(st.characters(min_codepoint=0x10000)),
    st.text(st.characters(categories=["Cs"]), min_size=1),
    st.sampled_from(list(_Level)),
)


def _json_values(leaves):
    return st.recursive(
        leaves,
        lambda children: st.one_of(
            st.lists(children, max_size=4),
            st.lists(children, max_size=4).map(tuple),
            *(st.dictionaries(keys, children, max_size=4) for keys in _JSON_KEYS),
            st.dictionaries(st.one_of(*_JSON_KEYS), children, max_size=4),
        ),
        max_leaves=12,
    )


@settings(max_examples=400, deadline=None)
@given(
    st.one_of(
        _json_values(_JSON_LEAVES),
        _json_values(st.one_of(_JSON_LEAVES, st.sets(st.integers(), max_size=2), st.binary())),
    )
)
def test_json_writer_matches_json_dumps(value):
    try:
        expected = json.dumps(value, sort_keys=True, indent=2, ensure_ascii=True) + "\n"
    except Exception as error:
        with pytest.raises(type(error)):
            document_to_json(value)
    else:
        assert document_to_json(value) == expected


@settings(max_examples=200, deadline=None)
@given(_json_values(_JSON_LEAVES), st.integers(0, 3))
def test_json_writer_starts_at_any_depth(value, depth):
    # The stream writes each section and item in place at its depth.
    try:
        expected = json.dumps(value, sort_keys=True, indent=2, ensure_ascii=True)
    except Exception as error:
        with pytest.raises(type(error)):
            report._write_json(value, depth, [].append)
    else:
        out = []
        report._write_json(value, depth, out.append)
        assert "".join(out) == expected.replace("\n", "\n" + "  " * depth)


# ---------------------------------------------------------------- CLI


def _classroom(tmp_path_factory):
    return write_classroom(tmp_path_factory.mktemp("cli_classroom"))


@pytest.fixture(scope="module")
def cli_classroom(tmp_path_factory):
    return _classroom(tmp_path_factory)


def test_cli_requires_a_subcommand(capsys):
    assert main([]) == 1
    assert "error" in capsys.readouterr().err


def test_cli_rejects_unknown_subcommand(capsys):
    assert main(["definitely-not-a-command"]) == 1
    assert "error" in capsys.readouterr().err


def test_cli_stats_text(cli_classroom, capsys):
    assert main(["stats", str(cli_classroom)]) == 0
    out = capsys.readouterr().out
    assert "solutions:" in out and "31" in out


def test_cli_stats_json(cli_classroom, capsys):
    assert main(["stats", str(cli_classroom), "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["solutions"] == 31


def test_cli_mine_text_output(cli_classroom, capsys):
    assert main(["mine", str(cli_classroom)]) == 0
    out = capsys.readouterr().out
    assert "#1" in out and "0.9677" in out


def test_cli_mine_json_to_file(cli_classroom, tmp_path):
    out_file = tmp_path / "report.json"
    assert main(["mine", str(cli_classroom), "--format", "json", "--out", str(out_file)]) == 0
    doc = json.loads(out_file.read_text())
    assert doc["anomalies"][0]["confidence_exact"] == "30/31"


def test_cli_mine_is_byte_deterministic(cli_classroom, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["mine", str(cli_classroom), "--format", "json", "--out", str(a)]) == 0
    assert main(["mine", str(cli_classroom), "--format", "json", "--out", str(b), "--jobs", "2"]) == 0
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize(
    "argv",
    [["mine", "--format", "json"], ["mine", "--format", "text"], ["sweep"]],
    ids=["mine-json", "mine-text", "sweep"],
)
def test_cli_output_does_not_depend_on_the_hash_seed(cli_classroom, tmp_path, argv):
    # Labels and properties hash their strings, whose hashes change with the
    # seed; a report that followed set iteration order would change too.
    outputs = []
    for seed in ("0", "1"):
        out = tmp_path / f"report_{seed}"
        env = {k: v for k, v in os.environ.items() if not k.startswith("BLOCKMINE_")}
        env.update(PYTHONPATH=str(SRC), PYTHONHASHSEED=seed)
        proc = subprocess.run(
            [sys.executable, "-m", "blockmine.cli", argv[0], str(cli_classroom), *argv[1:],
             "--out", str(out)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1] != b""


def test_cli_mine_dot_needs_out_dir(cli_classroom, capsys, tmp_path):
    assert main(["mine", str(cli_classroom), "--format", "dot"]) == 1
    assert "needs --out" in capsys.readouterr().err
    out = tmp_path / "graphs"
    assert main(["mine", str(cli_classroom), "--format", "dot", "--out", str(out)]) == 0
    files = sorted(p.name for p in out.iterdir())
    assert files == ["anomaly_0001_student_030_Cat_0.dot"]


def test_cli_extract_models(cli_classroom, tmp_path, capsys):
    out = tmp_path / "models"
    assert main(["extract-models", str(cli_classroom), "--out", str(out)]) == 0
    assert len(list(out.glob("*.dot"))) == 31
    assert main(["extract-models", str(cli_classroom)]) == 1
    assert "needs --out" in capsys.readouterr().err


@pytest.mark.parametrize("fmt", ["dot", "structured-text"])
def test_extract_models_matches_the_per_script_path(cli_classroom, tmp_path, monkeypatch, fmt):
    projects = load_dataset(cli_classroom)
    per_script = per_script_models(projects)
    shapes = []
    monkeypatch.setattr(report, "build_shape_model",
                        lambda shape: shapes.append(shape) or build_shape_model(shape))
    assert extract_models(projects) == per_script  # sources included
    assert len(shapes) == 2  # 30 clones and one buggy script, each shape modelled once

    out = tmp_path / "models"
    assert main(["extract-models", str(cli_classroom), "--format", fmt, "--out", str(out)]) == 0
    written = {path.name: path.read_bytes() for path in out.iterdir()}
    expected = model_artifacts(per_script, fmt=fmt)
    assert written == {name: text.encode("utf-8") for name, text in expected}


def test_cli_sweep_csv(cli_classroom, capsys):
    assert main([
        "sweep", str(cli_classroom),
        "--supports", "1,20", "--confidences", "0.5,0.9",
    ]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "min_support,min_confidence,anomalies"
    assert len(lines) == 5


def test_cli_sweep_json_cells_equal_the_csv_rows(cli_classroom, capsys):
    argv = ["sweep", str(cli_classroom), "--supports", "1,20", "--confidences", "0.5,0.9"]
    assert main(argv) == 0
    rows = capsys.readouterr().out.strip().splitlines()[1:]
    assert main([*argv, "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["kind"] == "parameter-sweep"
    cells = [f"{c['min_support']},{c['min_confidence']},{c['anomalies']}" for c in doc["cells"]]
    assert cells == rows and len(rows) == 4


def test_cli_extract_models_onto_a_file_cannot_write(cli_classroom, tmp_path, capsys):
    out = tmp_path / "taken"
    out.write_text("")
    assert main(["extract-models", str(cli_classroom), "--out", str(out)]) == 1
    assert "cannot write output" in capsys.readouterr().err
    assert out.read_text() == ""


def test_cli_default_sweep_grid_is_5_by_9(cli_classroom, capsys):
    assert main(["sweep", str(cli_classroom)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 1 + 5 * 9


def test_cli_exit_code_2_for_unreadable_dataset(tmp_path, capsys):
    assert main(["mine", str(tmp_path / "missing")]) == 2
    (tmp_path / "junk").mkdir()
    (tmp_path / "junk" / "x.sb3").write_bytes(b"garbage")
    assert main(["mine", str(tmp_path / "junk")]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("command", ["stats", "mine", "sweep", "extract-models"])
def test_cli_exit_code_2_for_every_dataset_command(tmp_path, capsys, monkeypatch, command):
    out = ["--out", str(tmp_path / "out")]
    assert main([command, str(tmp_path / "missing"), *out]) == 2
    (tmp_path / "empty").mkdir()
    assert main([command, str(tmp_path / "empty"), *out]) == 2
    (tmp_path / "junk").mkdir()
    (tmp_path / "junk" / "x.sb3").write_bytes(b"garbage")
    assert main([command, str(tmp_path / "junk"), *out]) == 2
    # A directory that cannot be listed (chmod 000 does not stop root).
    locked = write_classroom(tmp_path / "locked", n_correct=2, n_buggy=0)
    scandir = os.scandir

    def refusing(path="."):
        if os.fspath(path) == str(locked):
            raise PermissionError(13, "Permission denied", str(path))
        return scandir(path)

    monkeypatch.setattr(os, "scandir", refusing)
    assert main([command, str(locked), *out]) == 2
    err = capsys.readouterr().err
    assert err.count("unreadable dataset") == 4
    assert "cannot list the directory" in err
    assert not (tmp_path / "out").exists()


def test_cli_exit_code_1_for_bad_config(cli_classroom, capsys):
    assert main(["mine", str(cli_classroom), "--min-support", "0"]) == 1
    assert main(["mine", str(cli_classroom), "--min-confidence", "2"]) == 1
    assert main(["mine", str(cli_classroom), "--min-confidence", "abc"]) == 1
    capsys.readouterr()


def test_cli_preset_small_class(cli_classroom, tmp_path):
    out = tmp_path / "r.json"
    assert main(["mine", str(cli_classroom), "--preset", "small-class",
                 "--format", "json", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["config"]["min_support"] == 10
    assert doc["config"]["min_confidence"] == "7/10"


def test_cli_flag_overrides_preset(cli_classroom, tmp_path):
    out = tmp_path / "r.json"
    assert main(["mine", str(cli_classroom), "--preset", "small-class",
                 "--min-support", "15", "--format", "json", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["config"]["min_support"] == 15
    assert doc["config"]["min_confidence"] == "7/10"


def test_cli_env_overrides_defaults(cli_classroom, tmp_path, monkeypatch):
    monkeypatch.setenv("BLOCKMINE_MIN_SUPPORT", "12")
    monkeypatch.setenv("BLOCKMINE_FORMAT", "json")
    out = tmp_path / "r.json"
    assert main(["mine", str(cli_classroom), "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["config"]["min_support"] == 12


def test_cli_flag_beats_env(cli_classroom, tmp_path, monkeypatch):
    monkeypatch.setenv("BLOCKMINE_MIN_SUPPORT", "12")
    out = tmp_path / "r.json"
    assert main(["mine", str(cli_classroom), "--min-support", "25",
                 "--format", "json", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["config"]["min_support"] == 25


def test_cli_env_preset(cli_classroom, tmp_path, monkeypatch):
    monkeypatch.setenv("BLOCKMINE_PRESET", "small-class")
    out = tmp_path / "r.json"
    assert main(["mine", str(cli_classroom), "--format", "json", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["config"]["min_support"] == 10


def test_cli_bad_env_value_is_a_config_error(cli_classroom, capsys, monkeypatch):
    monkeypatch.setenv("BLOCKMINE_MIN_SUPPORT", "lots")
    assert main(["mine", str(cli_classroom)]) == 1
    assert "BLOCKMINE_MIN_SUPPORT" in capsys.readouterr().err


def test_cli_jobs_is_still_validated(cli_classroom, tmp_path, capsys, monkeypatch):
    for command in (["stats"], ["mine"], ["sweep"], ["extract-models", "--out", str(tmp_path)]):
        assert main([command[0], str(cli_classroom), *command[1:], "--jobs", "0"]) == 1
    monkeypatch.setenv("BLOCKMINE_JOBS", "0")
    assert main(["mine", str(cli_classroom)]) == 1
    assert "--jobs must be >= 1" in capsys.readouterr().err


def test_cli_gen_corpus_and_mine_round_trip(tmp_path, capsys):
    from blockmine import write_project_archive

    reference = build_project("ref", [("Cat", [FIG_SCRIPT])])
    write_project_archive(reference, tmp_path / "ref.sb3")
    spec = {
        "reference": "ref.sb3",
        "n_correct": 12,
        "mutations": [
            {"kind": "wrong-block", "target": "motion_movesteps",
             "replacement": "motion_gotoxy", "seed": 9},
        ],
    }
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    out = tmp_path / "generated"
    assert main(["gen-corpus", str(spec_path), "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["mine", str(out), "--min-support", "12",
                 "--min-confidence", "0.9"]) == 0
    text = capsys.readouterr().out
    assert "#1" in text
    assert "mutant_000_wrong_block" in text


def test_cli_unwritable_output_is_exit_1(cli_classroom, tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("a file, not a directory")
    assert main(["mine", str(cli_classroom), "--format", "json",
                 "--out", str(blocker / "sub" / "r.json")]) == 1
    assert "cannot write" in capsys.readouterr().err


def test_text_and_json_reports_name_the_same_anomalies(classroom_result):
    directory, _, result = classroom_result
    report = AnomalyReport(dataset=str(directory), config=MiningConfig(), result=result)
    text = report_to_text(report)
    document = json.loads(report_to_json(report))
    assert len(document["anomalies"]) == document["stats"]["anomalies"]
    assert text.count("    script:  ") == len(document["anomalies"])
    for entry in document["anomalies"]:
        script = entry["script"]
        ident = f"{script['project']}/{script['actor']}[{script['script_index']}]"
        assert f"    script:  {ident}" in text
        assert f"#{entry['rank']}  confidence {entry['confidence']}" in text


@pytest.mark.parametrize(
    "source, value, command",
    [
        ("BLOCKMINE_PRESET", "huge-class", "mine"),
        ("BLOCKMINE_MIN_SUPPORT", "lots", "mine"),
        ("BLOCKMINE_MIN_CONFIDENCE", "most", "mine"),
        ("BLOCKMINE_MIN_SIZE", "2.5", "mine"),
        ("BLOCKMINE_MAX_DEVIATION", "", "mine"),
        ("BLOCKMINE_JOBS", "two", "mine"),
        ("BLOCKMINE_TOP", "ten", "mine"),
        ("BLOCKMINE_TOP", "-1", "mine"),
        ("BLOCKMINE_FORMAT", "xml", "mine"),
        ("BLOCKMINE_SUPPORTS", "5,x", "sweep"),
        ("BLOCKMINE_CONFIDENCES", "0.5,/", "sweep"),
        # Out of range: each names its source, whether variable or flag.
        ("BLOCKMINE_MIN_SUPPORT", "0", "mine"),
        ("BLOCKMINE_MIN_CONFIDENCE", "2", "mine"),
        ("BLOCKMINE_MIN_SIZE", "0", "mine"),
        ("BLOCKMINE_MAX_DEVIATION", "0", "mine"),
        ("--min-support", "0", "mine"),
        ("--min-confidence", "2", "mine"),
        ("--min-size", "0", "mine"),
        ("--max-deviation", "0", "mine"),
        ("--top", "ten", "mine"),
        ("--supports", "0,5", "sweep"),
        # An empty grid axis.
        ("--supports", ",", "sweep"),
        ("--confidences", " , ", "sweep"),
    ],
)
def test_cli_bad_variable_is_named_before_the_dataset_is_read(
    tmp_path, capsys, monkeypatch, source, value, command
):
    argv = [command, str(tmp_path / "missing")]
    if source.startswith("--"):
        argv.append(f"{source}={value}")
    else:
        monkeypatch.setenv(source, value)
    assert main(argv) == 1
    assert f"bad {source}={value!r}: " in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["mine", "--min-confidence", "2"],
        ["mine", "--min-support", "0"],
        ["mine", "--top", "-1"],
        ["mine", "--format", "dot"],
        ["stats", "--jobs", "0"],
        ["sweep", "--supports", "0,5"],
        ["sweep", "--confidences", "0.5,2"],
        ["extract-models"],
    ],
)
def test_cli_config_error_stops_before_the_dataset_is_read(tmp_path, capsys, monkeypatch, argv):
    def iter_project_scripts(directory, skips=None, jobs=1):
        raise AssertionError("the dataset was read")

    monkeypatch.setattr("blockmine.cli.iter_project_scripts", iter_project_scripts)
    assert main([argv[0], str(tmp_path), *argv[1:]]) == 1
    assert "configuration error" in capsys.readouterr().err


def test_cli_top_zero_hides_every_anomaly(cli_classroom, capsys, monkeypatch):
    assert main(["mine", str(cli_classroom), "--top", "0"]) == 0
    assert "1 anomalies (hidden by top=0)" in capsys.readouterr().out
    monkeypatch.setenv("BLOCKMINE_TOP", "0")
    assert main(["mine", str(cli_classroom), "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["anomalies"] == []


def test_cli_environment_beats_preset(cli_classroom, tmp_path, monkeypatch):
    monkeypatch.setenv("BLOCKMINE_MIN_SUPPORT", "12")
    out = tmp_path / "r.json"
    assert main(["mine", str(cli_classroom), "--preset", "small-class",
                 "--format", "json", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["config"]["min_support"] == 12
    assert doc["config"]["min_confidence"] == "7/10"


def test_parser_leaves_absent_options_unset_and_keeps_their_types():
    parser = build_parser()
    args = vars(parser.parse_args(["mine", "d"]))
    assert args.pop("command") == "mine" and args.pop("dataset") == "d"
    assert set(args.values()) == {None}
    args = parser.parse_args(["mine", "d", "--min-support", "5", "--min-confidence", "0.5",
                              "--max-deviation", "2", "--top", "3"])
    assert (args.min_support, args.min_confidence, args.max_deviation, args.top) == (5, "0.5", 2, 3)
    assert parser.parse_args(["sweep", "d", "--supports", "1,2"]).supports == "1,2"
