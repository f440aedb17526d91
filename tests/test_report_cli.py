"""Reporting surfaces and the command line tool."""

from __future__ import annotations

import json
from fractions import Fraction

import pytest

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
def test_cli_exit_code_2_for_every_dataset_command(tmp_path, capsys, command):
    out = ["--out", str(tmp_path / "out")]
    assert main([command, str(tmp_path / "missing"), *out]) == 2
    (tmp_path / "empty").mkdir()
    assert main([command, str(tmp_path / "empty"), *out]) == 2
    (tmp_path / "junk").mkdir()
    (tmp_path / "junk" / "x.sb3").write_bytes(b"garbage")
    assert main([command, str(tmp_path / "junk"), *out]) == 2
    assert capsys.readouterr().err.count("unreadable dataset") == 3
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
    "variable, value, command",
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
    ],
)
def test_cli_bad_variable_is_named_before_the_dataset_is_read(
    tmp_path, capsys, monkeypatch, variable, value, command
):
    monkeypatch.setenv(variable, value)
    assert main([command, str(tmp_path / "missing")]) == 1
    assert variable in capsys.readouterr().err


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
    def iter_dataset(directory):
        raise AssertionError("the dataset was read")

    monkeypatch.setattr("blockmine.cli.iter_dataset", iter_dataset)
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
