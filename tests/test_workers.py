"""Loading a classroom in forked worker processes gives what loading it in
this process gives: the same report bytes, skips and log lines. A worker's
failure is raised here once every worker is reaped.

Every test here that forks lowers ingest.MIN_ARCHIVES_PER_PROCESS, so a
classroom of a few archives is cut into slices, and a forked child loads
every slice but the first.
"""

from __future__ import annotations

import json
import logging
import os
import threading

import pytest

from blockmine import build_project, project_to_document, write_project_archive
from blockmine import ingest
from blockmine.cli import main
from blockmine.ingest import iter_project_scripts
from conftest import FIG_BUGGY_SCRIPT, FIG_SCRIPT, write_classroom

MINING = ["--min-support", "5", "--min-confidence", "0.5"]


def _classroom(directory):
    """14 students (two buggy) and, spread over the slices: a stem
    collision, a broken zip, a project with repaired references and a
    file that is neither zip nor JSON."""
    write_classroom(directory, n_correct=12, n_buggy=2)
    same = build_project("a", [("Cat", [FIG_SCRIPT])])
    write_project_archive(same, directory / "a.sb3")
    write_project_archive(same, directory / "a.json")
    data = bytearray(write_project_archive(same, directory / "student_004x.sb3").read_bytes())
    data[40:60] = bytes(20)  # inside the deflated project.json
    (directory / "student_004x.sb3").write_bytes(bytes(data))
    doc = project_to_document(build_project("r", [("Cat", [FIG_BUGGY_SCRIPT])]))
    for block in doc["targets"][1]["blocks"].values():
        if block["parent"] is not None:
            block["parent"] = "ghost"
    (directory / "student_009r.json").write_text(json.dumps(doc))
    (directory / "zz_notes.json").write_text("not a project")
    return directory


@pytest.fixture(scope="module")
def classroom(tmp_path_factory):
    return _classroom(tmp_path_factory.mktemp("workers"))


@pytest.fixture
def forking(monkeypatch):
    """Fork at every archive, for up to three processes on any machine."""
    monkeypatch.setattr(ingest, "MIN_ARCHIVES_PER_PROCESS", 1)
    monkeypatch.setattr(ingest, "usable_cpus", lambda: 3)


def _count_forks(monkeypatch, most=None):
    """Count os.fork calls; fail, instead of forking, past `most` calls
    (by default usable CPUs - 1)."""
    if most is None:
        most = ingest.usable_cpus() - 1
    real_fork = os.fork
    calls = []

    def counting_fork():
        calls.append(None)
        assert len(calls) <= most, f"fork number {len(calls)}, past {most}"
        return real_fork()

    monkeypatch.setattr(os, "fork", counting_fork)
    return calls


def _outputs(directory, out, jobs):
    """What each dataset command writes, by command."""
    out.mkdir()
    commands = {
        "stats": ["stats", "--format", "json"],
        "mine-json": ["mine", *MINING, "--format", "json"],
        "mine-text": ["mine", *MINING, "--format", "text"],
        "sweep": ["sweep", "--supports", "2,5"],
    }
    written = {}
    for name, argv in commands.items():
        target = out / name
        assert main([argv[0], str(directory), *argv[1:], "--jobs", jobs, "--out", str(target)]) == 0
        written[name] = target.read_bytes()
    models = out / "models"
    assert main(["extract-models", str(directory), "--jobs", jobs, "--out", str(models)]) == 0
    written["extract-models"] = {p.name: p.read_bytes() for p in sorted(models.iterdir())}
    return written


def _skip_lines(caplog):
    return [r.getMessage() for r in caplog.records if r.getMessage().startswith("skipping ")]


def test_forked_scan_writes_the_bytes_of_the_serial_scan(
    classroom, tmp_path, caplog, monkeypatch, forking
):
    caplog.set_level(logging.WARNING, logger="blockmine")
    calls = _count_forks(monkeypatch, most=5 * 2)
    serial = _outputs(classroom, tmp_path / "serial", "1")
    serial_lines = _skip_lines(caplog)
    caplog.clear()
    assert calls == []
    forked = _outputs(classroom, tmp_path / "forked", "3")
    assert len(calls) == 5 * 2  # two workers per command
    assert forked == serial
    assert _skip_lines(caplog) == serial_lines
    # Each of the five runs logs each skip once, in filename order.
    assert [line.split(":")[0] for line in serial_lines] == 5 * [
        "skipping student_004x.sb3", "skipping zz_notes.json"
    ]
    report = json.loads(serial["mine-json"])
    assert report["stats"]["solutions"] == 17 and report["anomalies"]


def test_forked_scan_gives_the_ids_and_skips_of_the_serial_scan(classroom, monkeypatch, forking):
    serial_skips, forked_skips = [], []
    serial = list(iter_project_scripts(classroom, serial_skips, jobs=1))
    calls = _count_forks(monkeypatch)
    forked = list(iter_project_scripts(classroom, forked_skips, jobs=3))
    assert len(calls) == 2
    assert forked == serial
    assert forked_skips == serial_skips
    assert [s.path.name for s in serial_skips] == ["student_004x.sb3", "zz_notes.json"]
    assert "broken zip archive" in serial_skips[0].reason
    assert "neither a zip archive nor JSON" in serial_skips[1].reason
    ids = [s.project_id for s in serial]
    assert ids[:2] == ["a", "a#2"] and "student_009r" in ids
    assert all(script.project_id == s.project_id for s in forked for script, _ in s.scripts)


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_a_worker_failure_is_raised_after_every_worker_is_reaped(
    classroom, tmp_path, monkeypatch, forking
):
    load_project = ingest.load_project

    def failing(path):
        if path.name == "student_013.sb3":  # in the last child's slice
            raise RuntimeError("boom")
        return load_project(path)

    monkeypatch.setattr(ingest, "load_project", failing)
    out = tmp_path / "report.json"
    with pytest.raises(RuntimeError) as raised:
        main(["mine", str(classroom), "--format", "json", "--jobs", "3", "--out", str(out)])
    assert type(raised.value) is RuntimeError and raised.value.args == ("boom",)
    _assert_no_child_left()
    assert not out.exists()


class _TwoArgumentError(Exception):
    def __init__(self, first, second):
        super().__init__(first)


@pytest.mark.parametrize("failure", ["died", "cannot-be-rebuilt", "cannot-be-pickled"])
def test_a_failure_that_cannot_be_sent_names_the_slice(classroom, monkeypatch, forking, failure):
    load_project = ingest.load_project

    def failing(path):
        if path.name == "student_013.sb3":
            if failure == "died":
                os._exit(3)
            if failure == "cannot-be-rebuilt":
                raise _TwoArgumentError("one", "two")
            raise ValueError(lambda: None)
        return load_project(path)

    monkeypatch.setattr(ingest, "load_project", failing)
    with pytest.raises(RuntimeError, match="worker loading student_00.* to zz_notes.json"):
        list(iter_project_scripts(classroom, jobs=3))
    _assert_no_child_left()


def test_a_consumer_that_stops_early_leaves_no_child(classroom, forking):
    scan = iter_project_scripts(classroom, jobs=3)
    next(scan)
    scan.close()
    _assert_no_child_left()


@pytest.mark.parametrize("where", ["flag", "environment"])
def test_jobs_is_capped_by_the_usable_cpus(classroom, tmp_path, monkeypatch, where):
    monkeypatch.setattr(ingest, "MIN_ARCHIVES_PER_PROCESS", 1)
    calls = _count_forks(monkeypatch)
    argv = ["stats", str(classroom), "--out", str(tmp_path / "stats")]
    if where == "flag":
        argv += ["--jobs", "100000"]
    else:
        monkeypatch.setenv("BLOCKMINE_JOBS", "100000")
    assert main(argv) == 0
    assert len(calls) == min(ingest.usable_cpus(), len(list(classroom.iterdir()))) - 1
    _assert_no_child_left()


def test_a_small_classroom_forks_no_worker(tmp_path, monkeypatch):
    write_classroom(tmp_path, n_correct=59, n_buggy=1)
    calls = _count_forks(monkeypatch)
    assert main(["stats", str(tmp_path), "--jobs", "100000", "--out", str(tmp_path / "s")]) == 0
    assert calls == []


@pytest.mark.parametrize("why", ["thread", "no-fork"])
def test_the_scan_stays_in_process_where_forking_is_unsafe(classroom, monkeypatch, forking, why):
    serial = list(iter_project_scripts(classroom, jobs=1))
    if why == "no-fork":
        monkeypatch.delattr(os, "fork")
        assert list(iter_project_scripts(classroom, jobs=3)) == serial
        return
    calls = _count_forks(monkeypatch)
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        assert list(iter_project_scripts(classroom, jobs=3)) == serial
    finally:
        stop.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert calls == []

