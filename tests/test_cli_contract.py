"""The command line's exit-code contract under fuzzed input.

Whatever the subcommand, its flags, the BLOCKMINE_* variables and the state
of the dataset or corpus spec, main(argv) returns 0 (ran to completion),
1 (usage or configuration error) or 2 (dataset unreadable), and it never
raises.
"""

from __future__ import annotations

import io
import json
import os
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockmine import build_project, write_project_archive
from blockmine.cli import _COMMANDS, main
from conftest import FIG_BUGGY_SCRIPT, FIG_SCRIPT

# Good and bad text for every option, each as a flag or a variable.
_VALUES = {
    "preset": ["standard", "small-class", "huge-class"],
    "min_support": ["1", "2", "0", "lots"],
    "min_confidence": ["0.5", "1", "2", "abc", "1/0"],
    "min_size": ["2", "0", "2.5"],
    "max_deviation": ["10", "-1", ""],
    "jobs": ["1", "2", "0", "two"],
    "top": ["3", "0", "-1", "ten"],
    "supports": ["1,2", "0,5", "5,x", ""],
    "confidences": ["0.5,0.9", "0.5,2", "/", ""],
    "format": ["text", "json", "dot", "csv", "structured-text", "xml"],
}
_DATASET_COMMANDS = ["stats", "extract-models", "mine", "sweep"]
_EMPTY_DATASETS = ["missing", "empty", "all-skipped"]
_BAD_SPECS = ["missing", "not-json", "non-list-mutations", "unknown-kind"]


@pytest.fixture(scope="module")
def inputs(tmp_path_factory) -> dict[str, Path]:
    """Tiny datasets and corpus specs, by state."""
    root = tmp_path_factory.mktemp("contract")
    states = ["empty", "all-skipped", "mixed", "clean", "scriptless"]
    paths = {state: root / state for state in states}
    for path in paths.values():
        path.mkdir()
    garbage = b"\x00 not a project"
    (paths["all-skipped"] / "broken.sb3").write_bytes(garbage)
    (paths["mixed"] / "broken.sb3").write_bytes(garbage)
    for i, script in enumerate([FIG_SCRIPT, FIG_SCRIPT, FIG_BUGGY_SCRIPT]):
        name = f"student_{i}"
        project = build_project(name, [("Cat", [script])])
        write_project_archive(project, paths["clean"] / f"{name}.sb3")
        if i < 2:
            write_project_archive(project, paths["mixed"] / f"{name}.sb3")
    # projects that load but hold no script: an empty sprite, a loose reporter
    write_project_archive(build_project("blank", [("Cat", [])]), paths["scriptless"] / "blank.sb3")
    write_project_archive(
        build_project("loose", [("Cat", [["operator_add"]])]), paths["scriptless"] / "loose.sb3"
    )
    paths["missing"] = root / "no-such-directory"

    write_project_archive(build_project("ref", [("Cat", [FIG_SCRIPT])]), root / "ref.sb3")
    mutation = {"kind": "wrong-block", "target": "motion_movesteps",
                "replacement": "motion_gotoxy"}
    specs = {
        "good": {"reference": "ref.sb3", "n_correct": 2, "mutations": [mutation]},
        "non-list-mutations": {"reference": "ref.sb3", "n_correct": 2, "mutations": 5},
        "unknown-kind": {"reference": "ref.sb3", "mutations": [dict(mutation, kind="explode")]},
    }
    for state, spec in specs.items():
        paths[f"spec-{state}"] = root / f"{state}.json"
        paths[f"spec-{state}"].write_text(json.dumps(spec))
    paths["spec-not-json"] = root / "not-json.json"
    paths["spec-not-json"].write_text("{not json")
    paths["spec-missing"] = root / "no-such-spec.json"
    return paths


def _options(names) -> st.SearchStrategy[list[tuple[str, str]]]:
    option = st.sampled_from(sorted(names)).flatmap(
        lambda name: st.tuples(st.just(name), st.sampled_from(_VALUES[name]))
    )
    return st.lists(option, max_size=3)


def _run(argv: list[str], variables: list[tuple[str, str]]) -> int:
    """main(argv) under exactly the given BLOCKMINE_* variables, after
    checking that it returned 0, 1 or 2 and printed no traceback."""
    environment = {k: v for k, v in os.environ.items() if not k.startswith("BLOCKMINE_")}
    environment.update({f"BLOCKMINE_{name.upper()}": value for name, value in variables})
    with mock.patch.dict(os.environ, environment, clear=True), \
            redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()) as err:
        code = main(argv)
    assert code in (0, 1, 2), (argv, variables, err.getvalue())
    assert "Traceback" not in err.getvalue()
    return code


def _flags(options: list[tuple[str, str]]) -> list[str]:
    return [f"--{name.replace('_', '-')}={value}" for name, value in options]


_RARELY = st.sampled_from([False, False, False, True])


@settings(max_examples=150, deadline=None)
@given(
    data=st.data(),
    command=st.sampled_from(_DATASET_COMMANDS),
    dataset=st.sampled_from([*_EMPTY_DATASETS, "mixed", "clean", "scriptless"]),
    variables=_options(_VALUES),
    out=st.booleans(),
    unknown_flag=_RARELY,
)
def test_dataset_commands_exit_0_1_or_2(
    inputs, data, command, dataset, variables, out, unknown_flag
):
    flags = data.draw(_options(set(_COMMANDS[command].names) & set(_VALUES)))
    with tempfile.TemporaryDirectory() as tmp:
        argv = [command, str(inputs[dataset]), *_flags(flags)]
        if out:
            argv.append(f"--out={Path(tmp) / 'out'}")
        if unknown_flag:
            argv.append("--bogus")
        code = _run(argv, variables)
    if dataset in _EMPTY_DATASETS or unknown_flag:
        assert code != 0, argv


@pytest.mark.parametrize("command", _DATASET_COMMANDS)
def test_a_classroom_without_scripts_is_analysed(inputs, command, tmp_path):
    out = tmp_path / "out"
    assert _run([command, str(inputs["scriptless"]), f"--out={out}"], []) == 0
    if command == "stats":
        assert "script models:  0" in out.read_text()
    elif command == "mine":
        headline = "2 solutions, 0 script models, 0 patterns, 0 violations, 0 anomalies"
        assert headline in out.read_text()


@settings(max_examples=60, deadline=None)
@given(
    spec=st.sampled_from([*_BAD_SPECS, "good"]),
    variables=_options(_VALUES),
    out=st.booleans(),
    unknown_flag=_RARELY,
    command=st.sampled_from(["gen-corpus", "gen-corpus", "bogus"]),
)
def test_gen_corpus_exits_0_1_or_2(inputs, spec, variables, out, unknown_flag, command):
    with tempfile.TemporaryDirectory() as tmp:
        argv = [command, str(inputs[f"spec-{spec}"])]
        if out:
            argv.append(f"--out={Path(tmp) / 'out'}")
        if unknown_flag:
            argv.append("--bogus")
        code = _run(argv, variables)
    if spec in _BAD_SPECS or not out or unknown_flag or command == "bogus":
        assert code == 1, argv
    else:
        assert code == 0, argv


def test_gen_corpus_under_a_regular_file_is_one_line_and_exit_1(inputs, tmp_path):
    blocker = tmp_path / "blocker"
    blocker.write_bytes(b"")
    out = blocker / "x"
    with redirect_stdout(io.StringIO()) as stdout, redirect_stderr(io.StringIO()) as err:
        code = main(["gen-corpus", str(inputs["spec-good"]), f"--out={out}"])
    assert code == 1
    assert err.getvalue().startswith(f"blockmine: cannot write output: {out}: ")
    assert err.getvalue().count("\n") == 1 and err.getvalue().endswith("\n")
    assert stdout.getvalue() == ""
    assert list(tmp_path.iterdir()) == [blocker]
