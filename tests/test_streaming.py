"""One pass over a streamed classroom gives what the loaded list gives,
and keeps no more than a couple of projects alive at a time."""

from __future__ import annotations

import json
import weakref

import pytest

from blockmine import (
    AnomalyReport,
    DatasetEmpty,
    MiningConfig,
    analyze_dataset,
    build_project,
    extract_models,
    extract_property_sets,
    iter_dataset,
    load_dataset,
    project_payload,
    report_to_json,
    report_to_text,
    scan_dataset,
    write_project_archive,
)
from conftest import FIG_BUGGY_SCRIPT, FIG_SCRIPT, write_classroom

# Low enough that the two buggy scripts of this classroom are reported.
CONFIG = MiningConfig(min_support=5, min_confidence="0.5")


@pytest.fixture(scope="module")
def classroom(tmp_path_factory):
    directory = write_classroom(tmp_path_factory.mktemp("stream"), n_correct=12, n_buggy=2)
    return directory, load_dataset(directory)


def _reports(result):
    report = AnomalyReport("classroom", CONFIG, result)
    return report_to_text(report), report_to_json(report)


def test_analysis_of_a_stream_equals_that_of_the_list(classroom):
    _, projects = classroom
    listed = analyze_dataset(projects, CONFIG)
    streamed = analyze_dataset(iter(projects), CONFIG)
    assert streamed.stats == listed.stats
    assert streamed.stats.solutions == 14 and streamed.stats.anomalies == 2
    assert streamed.property_sets == listed.property_sets
    assert streamed.patterns == listed.patterns
    assert list(streamed.anomalies) == list(listed.anomalies)
    assert _reports(streamed) == _reports(listed)
    assert json.loads(_reports(streamed)[1])["anomalies"]


def test_extraction_of_a_stream_equals_that_of_the_list(classroom):
    _, projects = classroom
    assert extract_property_sets(iter(projects)) == extract_property_sets(projects)
    assert extract_models(iter(projects)) == extract_models(projects)


def test_iter_dataset_gives_the_projects_and_skips_of_scan_dataset(tmp_path):
    write_classroom(tmp_path, n_correct=3, n_buggy=1)
    same = build_project("a", [("Cat", [FIG_SCRIPT])])
    write_project_archive(same, tmp_path / "a.sb3")
    (tmp_path / "a.json").write_bytes(project_payload(same))
    write_project_archive(build_project("a", [("Cat", [FIG_BUGGY_SCRIPT])]), tmp_path / "a.zip")
    (tmp_path / "broken.sb3").write_bytes(b"not an archive")
    (tmp_path / "notes.txt").write_text("not a candidate")

    skips = []
    streamed = list(iter_dataset(tmp_path, skips))
    projects, scanned_skips = scan_dataset(tmp_path)
    assert streamed == projects == load_dataset(tmp_path)
    assert skips == scanned_skips
    assert [p.project_id for p in streamed] == [
        "a", "a#2", "a#3", "student_000", "student_001", "student_002", "student_003"
    ]
    assert [s.path.name for s in skips] == ["broken.sb3"]
    assert list(iter_dataset(tmp_path)) == projects


@pytest.mark.parametrize("case", ["missing", "empty", "all-skipped"])
def test_iter_dataset_raises_dataset_empty(tmp_path, case):
    directory = tmp_path / "dataset"
    if case != "missing":
        directory.mkdir()
    if case == "all-skipped":
        (directory / "junk.sb3").write_bytes(b"junk")
    skips = []
    with pytest.raises(DatasetEmpty):
        list(iter_dataset(directory, skips))
    assert len(skips) == (case == "all-skipped")


def test_analysis_releases_each_project_after_taking_its_shapes(classroom):
    directory, _ = classroom
    refs: list[weakref.ref] = []

    def tracked():
        for k, project in enumerate(iter_dataset(directory)):
            if k >= 2:
                assert refs[k - 2]() is None, f"project {k - 2} still alive at {k}"
            refs.append(weakref.ref(project))
            yield project

    result = analyze_dataset(tracked(), CONFIG)
    assert len(refs) == result.stats.solutions == 14
