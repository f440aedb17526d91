"""The reports the command line writes as a stream, one section, pattern or
anomaly at a time: the same bytes as the joined report, no whole report
held in memory, and a failed write that leaves no partial file and no
traceback."""

from __future__ import annotations

import errno
import gc
import json
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from blockmine import (
    AnomalyReport,
    MiningConfig,
    OutputUnwritable,
    analyze_dataset,
    load_dataset,
    report_to_document,
    report_to_json,
    report_to_text,
)
from blockmine import cli, report
from conftest import open_ended_projects
from test_anomalies import _classrooms

SRC = Path(__file__).resolve().parent.parent / "src"

# Names with markup, control characters, non-ASCII and astral characters.
_NAMES = st.one_of(
    st.sampled_from(["", "Cat", "é", "猫", "\U0001f431", 'a"b\\c', "line\nbreak", "\t\x00"]),
    st.text(st.characters(exclude_categories=("Cs",)), max_size=6),
)


def _dumps(value: object) -> str:
    return json.dumps(value, sort_keys=True, indent=2, ensure_ascii=True) + "\n"


@st.composite
def _reports(draw):
    """A report of a drawn classroom under drawn project, actor and dataset
    names; its pattern or anomaly list is sometimes emptied."""
    projects, config = draw(_classrooms())
    projects = [
        replace(
            project,
            project_id=f"{draw(_NAMES)}{k}",
            actors=tuple(replace(actor, name=draw(_NAMES)) for actor in project.actors),
        )
        for k, project in enumerate(projects)
    ]
    result = analyze_dataset(projects, config)
    if draw(st.booleans()):
        result = replace(result, patterns=[])
    if draw(st.booleans()):
        result = replace(result, anomalies=[])
    return AnomalyReport(draw(_NAMES), config, result)


@settings(max_examples=100, deadline=None)
@given(_reports(), st.sampled_from([0, 1, 2, None]))
def test_the_json_stream_is_the_canonical_json_of_the_document(built, top):
    expected = _dumps(report_to_document(built, top))
    assert "".join(report._json_chunks(built, top)) == expected
    assert report_to_json(built, top) == expected


@settings(max_examples=100, deadline=None)
@given(_reports(), st.sampled_from([0, 1, 2, None]))
def test_the_text_stream_is_the_joined_text_report(built, top):
    expected = oracles.report_to_text(built, top)
    assert "".join(report._text_chunks(built, top)) == expected
    assert report_to_text(built, top) == expected


def test_each_item_is_its_own_chunk(classroom_dir):
    config = MiningConfig(min_support=5, min_confidence="0.5")
    result = analyze_dataset(load_dataset(classroom_dir), config)
    built = AnomalyReport("classroom", config, result)
    chunks = list(report._json_chunks(built, None))
    # A key per section, a value per scalar section, a piece per pattern
    # and per anomaly, a closing per list and the document's closing.
    assert len(chunks) == 8 + 6 + len(result.patterns) + len(result.anomalies) + 2 + 1
    assert len(list(report._text_chunks(built, None))) == 1 + len(result.anomalies)


def test_the_json_writer_leaves_no_reference_cycle(classroom_dir):
    config = MiningConfig(min_support=5, min_confidence="0.5")
    result = analyze_dataset(load_dataset(classroom_dir), config)
    built = AnomalyReport("classroom", config, result)
    document = report_to_document(built)
    gc.collect()
    gc.disable()
    try:
        report.document_to_json(document)
        "".join(report._json_chunks(built, None))
        assert gc.collect() == 0
    finally:
        gc.enable()


# ----------------------------------------------------------- memory


@pytest.fixture(scope="module")
def open_ended():
    """The analysis of an open-ended classroom whose JSON report is about
    1.9 MB. Its top anomalies are read once here, so that ordering their
    groups on the first read counts as analysis, not as report."""
    config = MiningConfig(min_support=25, min_confidence="1/2")
    result = analyze_dataset(open_ended_projects(150, seed=5), config)
    top = result.anomalies[:10]
    assert len(top) == 10
    return config, result


def test_the_json_report_is_written_without_holding_it(open_ended, tmp_path, monkeypatch):
    config, result = open_ended
    monkeypatch.setattr(cli, "analyze_dataset", lambda projects, config: result)
    out = tmp_path / "report.json"
    argv = ["mine", str(tmp_path), "--min-support", "25", "--min-confidence", "1/2",
            "--format", "json", "--out", str(out)]
    tracemalloc.start()
    try:
        assert cli.main(argv) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    size = out.stat().st_size
    assert size > 1_000_000
    assert out.read_text("utf-8") == report_to_json(AnomalyReport(str(tmp_path), config, result), 10)
    assert peak < size / 4, f"traced peak {peak} bytes for a report of {size}"


# ----------------------------------------------------------- --out failures


class _FailingFile:
    """A text file whose write raises ENOSPC once `writes` writes are done."""

    def __init__(self, file, writes: int) -> None:
        self.file, self.writes = file, writes

    def write(self, text: str) -> int:
        if self.writes == 0:
            raise OSError(errno.ENOSPC, "No space left on device")
        self.writes -= 1
        return self.file.write(text)

    def fileno(self) -> int:
        return self.file.fileno()

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.file.close()


@pytest.mark.parametrize("writes", [0, 1, 5])
def test_a_failed_write_removes_the_partial_report(classroom_dir, tmp_path, monkeypatch, capsys,
                                                   writes):
    opened = []
    real_open = Path.open

    def failing_open(path, mode="r", *args, **kwargs):
        file = real_open(path, mode, *args, **kwargs)
        if "w" in mode:
            file = _FailingFile(file, writes)
            opened.append(file)
        return file

    monkeypatch.setattr(Path, "open", failing_open)
    out = tmp_path / "report.json"
    assert cli.main(["mine", str(classroom_dir), "--format", "json", "--top", "0",
                     "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"blockmine: cannot write output: {out}: [Errno 28] No space left on device\n"
    )
    assert not out.exists()
    assert [f.file.closed for f in opened] == [True]


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_a_report_that_fails_to_render_leaves_no_file(classroom_dir, tmp_path, monkeypatch, fmt):
    name = f"_{fmt}_chunks"
    rendered = getattr(cli, name)
    files = []

    def broken(built, top):
        files.extend(p for p in tmp_path.iterdir())
        yield from list(rendered(built, top))[:3]
        files.extend(p for p in tmp_path.iterdir())
        raise RuntimeError("render failed")

    monkeypatch.setattr(cli, name, broken)
    out = tmp_path / "report.out"
    with pytest.raises(RuntimeError, match="render failed"):
        cli.main(["mine", str(classroom_dir), "--format", fmt, "--out", str(out)])
    assert files == [out, out]  # the stream ran into the open file
    assert not out.exists()


def test_a_write_error_on_a_device_keeps_the_device(tmp_path):
    # A device is not a regular file, so it is not removed.
    path = Path("/dev/full")
    if not path.exists():
        pytest.skip("no /dev/full")
    with pytest.raises(OutputUnwritable, match="/dev/full: .*No space left"):
        cli._write_file(path, ["x" * 100_000])
    assert path.exists()


# ----------------------------------------------------------- unwritable stdout

_STDOUT_COMMANDS = {
    "mine-json": ["mine", "--format", "json"],
    "mine-text": ["mine", "--format", "text"],
    "stats": ["stats"],
    "sweep": ["sweep"],
}


def _blockmine(argv, classroom, *, stdout, flags=(), unbuffered=False):
    env = {k: v for k, v in os.environ.items() if not k.startswith("BLOCKMINE_")}
    env["PYTHONPATH"] = str(SRC)
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return subprocess.Popen(
        [sys.executable, *flags, "-m", "blockmine.cli", argv[0], str(classroom), *argv[1:]],
        stdout=stdout, stderr=subprocess.PIPE, env=env, text=True,
    )


def _assert_one_line(returncode: int, stderr: str, reason: str) -> None:
    assert returncode == 1, stderr
    assert stderr.startswith(f"blockmine: cannot write output: <stdout>: {reason}"), stderr
    assert "Traceback" not in stderr and "Exception ignored" not in stderr, stderr
    assert stderr.count("\n") == 1 and stderr.endswith("\n"), stderr


@pytest.mark.parametrize("argv", _STDOUT_COMMANDS.values(), ids=_STDOUT_COMMANDS)
def test_a_full_stdout_is_one_line_and_exit_1(classroom_dir, argv):
    if not Path("/dev/full").exists():
        pytest.skip("no /dev/full")
    with open("/dev/full", "w") as full:
        proc = _blockmine(argv, classroom_dir, stdout=full,
                          flags=("-X", "dev", "-W", "error::ResourceWarning"))
        _, stderr = proc.communicate(timeout=120)
    _assert_one_line(proc.returncode, stderr, "[Errno 28]")


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv", _STDOUT_COMMANDS.values(), ids=_STDOUT_COMMANDS)
def test_a_closed_pipe_is_one_line_and_exit_1(classroom_dir, argv, unbuffered):
    proc = _blockmine(argv, classroom_dir, stdout=subprocess.PIPE, unbuffered=unbuffered)
    proc.stdout.close()  # the reader is gone before the report is written
    _, stderr = proc.communicate(timeout=120)
    _assert_one_line(proc.returncode, stderr, "[Errno 32]")


def test_a_full_out_device_is_one_line_in_development_mode(classroom_dir):
    # -X dev with ResourceWarning as an error: a file left open would print.
    if not Path("/dev/full").exists():
        pytest.skip("no /dev/full")
    proc = _blockmine(["mine", "--format", "json", "--out", "/dev/full"], classroom_dir,
                      stdout=subprocess.PIPE, flags=("-X", "dev", "-W", "error::ResourceWarning"))
    stdout, stderr = proc.communicate(timeout=120)
    assert proc.returncode == 1 and stdout == ""
    assert stderr == "blockmine: cannot write output: /dev/full: [Errno 28] No space left on device\n"
