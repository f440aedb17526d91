"""Archive parsing: happy paths, malformed input, and warning behavior."""

from __future__ import annotations

import io
import json
import random
import struct
import zipfile

import pytest

from blockmine import (
    ArchiveUnreadable,
    DatasetEmpty,
    MalformedProject,
    build_project,
    enumerate_scripts,
    extract_property_sets,
    load_dataset,
    load_project,
    project_payload,
    project_to_document,
    scan_dataset,
    write_project_archive,
)
from blockmine.cli import main
from blockmine.ingest import MAX_NESTING
from conftest import FIG_PROPS, FIG_SCRIPT, write_classroom


def _write_json_project(path, doc):
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def test_zip_archive_round_trip(tmp_path):
    project = build_project("demo", [("Cat", [FIG_SCRIPT])])
    archive = tmp_path / "demo.sb3"
    write_project_archive(project, archive)
    loaded = load_project(archive)
    assert loaded.project_id == "demo"
    assert [a.name for a in loaded.actors] == ["Stage", "Cat"]
    assert loaded.warnings == ()
    assert loaded.block_count() == 5


def test_bare_json_project(tmp_path):
    project = build_project("demo", [("Cat", [FIG_SCRIPT])])
    path = tmp_path / "demo.json"
    path.write_bytes(project_payload(project))
    loaded = load_project(path)
    assert loaded.project_id == "demo"
    assert loaded.block_count() == 5


def test_garbage_bytes_raise_archive_unreadable(tmp_path):
    path = tmp_path / "broken.sb3"
    path.write_bytes(b"\x00\x01\x02 definitely not a project")
    with pytest.raises(ArchiveUnreadable):
        load_project(path)


def test_missing_file_raises_archive_unreadable(tmp_path):
    with pytest.raises(ArchiveUnreadable):
        load_project(tmp_path / "nope.sb3")


def test_zip_without_project_json_raises_malformed(tmp_path):
    path = tmp_path / "empty.sb3"
    with zipfile.ZipFile(path, "w") as zf:
        zf.writestr("readme.txt", "hello")
    with pytest.raises(MalformedProject):
        load_project(path)


def test_json_without_targets_raises_malformed(tmp_path):
    path = _write_json_project(tmp_path / "odd.json", {"meta": {}})
    with pytest.raises(MalformedProject):
        load_project(path)


def test_dangling_next_reference_cleared_with_warning(tmp_path):
    doc = {
        "targets": [
            {"isStage": True, "name": "Stage", "blocks": {}},
            {
                "isStage": False,
                "name": "Cat",
                "blocks": {
                    "b1": {
                        "opcode": "event_whenflagclicked",
                        "next": "ghost",
                        "parent": None,
                        "topLevel": True,
                        "x": 0,
                        "y": 0,
                    },
                },
            },
        ],
    }
    path = _write_json_project(tmp_path / "dangling.json", doc)
    loaded = load_project(path)
    assert any("ghost" in w for w in loaded.warnings)
    cat = loaded.actor("Cat")
    assert cat.blocks["b1"].next is None
    assert len(enumerate_scripts(loaded)) == 1


def test_variable_style_canvas_entries_dropped(tmp_path):
    doc = {
        "targets": [
            {"isStage": True, "name": "Stage", "blocks": {}},
            {
                "isStage": False,
                "name": "Cat",
                "blocks": {
                    "b1": {
                        "opcode": "event_whenflagclicked",
                        "next": None,
                        "parent": None,
                        "topLevel": True,
                        "x": 0,
                        "y": 0,
                    },
                    "loose": [12, "my variable", "var-id", 10, 20],
                },
            },
        ],
    }
    path = _write_json_project(tmp_path / "canvas.json", doc)
    loaded = load_project(path)
    assert "loose" not in loaded.actor("Cat").blocks
    assert any("loose" in w or "non-object" in w for w in loaded.warnings)


def test_shadow_blocks_not_counted_and_not_scripts(tmp_path):
    project = build_project("demo", [("Cat", [FIG_SCRIPT])])
    archive = tmp_path / "demo.sb3"
    write_project_archive(project, archive)
    loaded = load_project(archive)
    cat = loaded.actor("Cat")
    shadows = [b for b in cat.blocks.values() if b.is_shadow]
    assert shadows, "the key menu should be stored as a shadow block"
    assert loaded.block_count() == sum(
        1 for a in loaded.actors for b in a.blocks.values() if not b.is_shadow
    )
    assert all(not cat.blocks[r].is_shadow for r in cat.script_roots)


def test_duplicate_actor_names_disambiguated(tmp_path):
    doc = {
        "targets": [
            {"isStage": True, "name": "Stage", "blocks": {}},
            {"isStage": False, "name": "Cat", "blocks": {}},
            {"isStage": False, "name": "Cat", "blocks": {}},
        ],
    }
    path = _write_json_project(tmp_path / "twins.json", doc)
    loaded = load_project(path)
    assert [a.name for a in loaded.actors] == ["Stage", "Cat", "Cat#2"]
    assert any("duplicate actor" in w for w in loaded.warnings)


def test_script_order_follows_canvas_position(tmp_path):
    doc = {
        "targets": [
            {"isStage": True, "name": "Stage", "blocks": {}},
            {
                "isStage": False,
                "name": "Cat",
                "blocks": {
                    "low": {
                        "opcode": "event_whenflagclicked",
                        "next": None, "parent": None,
                        "topLevel": True, "x": 10, "y": 300,
                    },
                    "high": {
                        "opcode": "event_whenkeypressed",
                        "next": None, "parent": None,
                        "topLevel": True, "x": 400, "y": 5,
                    },
                },
            },
        ],
    }
    path = _write_json_project(tmp_path / "layout.json", doc)
    loaded = load_project(path)
    assert list(loaded.actor("Cat").script_roots) == ["high", "low"]
    scripts = enumerate_scripts(loaded)
    assert [s.root_block for s in scripts] == ["high", "low"]
    assert [s.script_index for s in scripts] == [0, 1]


def test_lone_reporter_stack_is_not_a_script(tmp_path):
    doc = {
        "targets": [
            {"isStage": True, "name": "Stage", "blocks": {}},
            {
                "isStage": False,
                "name": "Cat",
                "blocks": {
                    "r1": {
                        "opcode": "operator_add",
                        "next": None, "parent": None,
                        "topLevel": True, "x": 0, "y": 0,
                    },
                    "b1": {
                        "opcode": "event_whenflagclicked",
                        "next": None, "parent": None,
                        "topLevel": True, "x": 0, "y": 100,
                    },
                },
            },
        ],
    }
    path = _write_json_project(tmp_path / "reporter.json", doc)
    loaded = load_project(path)
    scripts = enumerate_scripts(loaded)
    assert [s.root_block for s in scripts] == ["b1"]


def test_unknown_opcode_participates_as_command(tmp_path):
    doc = {
        "targets": [
            {"isStage": True, "name": "Stage", "blocks": {}},
            {
                "isStage": False,
                "name": "Cat",
                "blocks": {
                    "b1": {
                        "opcode": "event_whenflagclicked",
                        "next": "b2", "parent": None,
                        "topLevel": True, "x": 0, "y": 0,
                    },
                    "b2": {
                        "opcode": "extension_fancy_block",
                        "next": None, "parent": "b1",
                        "topLevel": False,
                    },
                },
            },
        ],
    }
    path = _write_json_project(tmp_path / "unknown.json", doc)
    loaded = load_project(path)
    scripts = enumerate_scripts(loaded)
    assert len(scripts) == 1
    from blockmine import build_script_model

    model = build_script_model(scripts[0], loaded)
    opcodes = {t[1].opcode for t in model.transitions if t[1] is not None}
    assert "extension_fancy_block" in opcodes


def test_missing_stage_only_warns(tmp_path):
    doc = {"targets": [{"isStage": False, "name": "Cat", "blocks": {}}]}
    path = _write_json_project(tmp_path / "nostage.json", doc)
    loaded = load_project(path)
    assert any("stage" in w.lower() for w in loaded.warnings)


def test_scan_dataset_skips_unreadable_archives(tmp_path):
    write_project_archive(
        build_project("good", [("Cat", [FIG_SCRIPT])]), tmp_path / "good.sb3"
    )
    (tmp_path / "bad.sb3").write_bytes(b"not a project at all")
    projects, skips = scan_dataset(tmp_path)
    assert [p.project_id for p in projects] == ["good"]
    assert len(skips) == 1 and skips[0].path.name == "bad.sb3"


def test_scan_dataset_orders_by_filename(tmp_path):
    for name in ["zeta", "alpha", "mid"]:
        write_project_archive(
            build_project(name, [("Cat", [FIG_SCRIPT])]), tmp_path / f"{name}.sb3"
        )
    projects = load_dataset(tmp_path)
    assert [p.project_id for p in projects] == ["alpha", "mid", "zeta"]


def test_dataset_with_no_loadable_archives_raises(tmp_path):
    (tmp_path / "junk.sb3").write_bytes(b"junk")
    with pytest.raises(DatasetEmpty):
        load_dataset(tmp_path)
    with pytest.raises(DatasetEmpty):
        load_dataset(tmp_path / "missing_subdir")


def test_duplicate_project_stems_disambiguated(tmp_path):
    project = build_project("same", [("Cat", [FIG_SCRIPT])])
    write_project_archive(project, tmp_path / "same.sb3")
    (tmp_path / "same.json").write_bytes(project_payload(project))
    projects = load_dataset(tmp_path)
    assert sorted(p.project_id for p in projects) == ["same", "same#2"]


def test_non_numeric_coordinate_reads_as_zero_and_spares_the_classroom(tmp_path, capsys):
    clean = write_classroom(tmp_path / "clean", n_correct=3, n_buggy=1)
    with_bad = write_classroom(tmp_path / "with_bad", n_correct=3, n_buggy=1)
    doc = project_to_document(build_project("odd", [("Cat", [FIG_SCRIPT])]))
    top = next(b for b in doc["targets"][1]["blocks"].values() if b["topLevel"])
    top["x"] = "left"
    top["y"] = [1, 2]
    with zipfile.ZipFile(with_bad / "odd.sb3", "w") as zf:
        zf.writestr("project.json", json.dumps(doc))

    odd = load_project(with_bad / "odd.sb3")
    cat = odd.actor("Cat")
    root = cat.blocks[cat.script_roots[0]]
    assert (root.x, root.y) == (0.0, 0.0)
    assert sum("coordinate" in w for w in odd.warnings) == 2

    assert main(["mine", str(with_bad), "--min-support", "2", "--format", "json"]) == 0
    capsys.readouterr()
    before = {ps.source: ps.properties for ps in extract_property_sets(load_dataset(clean))}
    after = {ps.source: ps.properties for ps in extract_property_sets(load_dataset(with_bad))}
    assert {s: p for s, p in after.items() if s.project_id != "odd"} == before
    assert [p for s, p in after.items() if s.project_id == "odd"] == [FIG_PROPS]


REPEAT_SCRIPT = ["event_whenflagclicked", ("control_repeat", ["motion_movesteps"])]


def _cyclic(edit):
    """A one-sprite project whose blocks `edit` rewires into a cycle; the
    blocks are b1.. in script order (see project_to_document)."""
    doc = project_to_document(build_project("cyclic", [("Cat", [FIG_SCRIPT, REPEAT_SCRIPT])]))
    edit(doc["targets"][1]["blocks"])
    return doc


def _if_is_its_own_substack(blocks):
    blocks["b3"]["inputs"]["SUBSTACK"] = [2, "b3"]


def _if_body_is_the_forever(blocks):
    blocks["b3"]["inputs"]["SUBSTACK"] = [2, "b2"]


def _repeat_body_continues_into_the_repeat(blocks):
    blocks["b9"]["next"] = "b8"


def _assert_only_skipped(tmp_path, capsys, name, data):
    """Writing `data` as archive `name` next to a small classroom makes
    that one archive a skip record and leaves the report unchanged."""
    clean = write_classroom(tmp_path / "clean", n_correct=3, n_buggy=1)
    with_bad = write_classroom(tmp_path / "with_bad", n_correct=3, n_buggy=1)
    (with_bad / name).write_bytes(data)

    projects, skips = scan_dataset(with_bad)
    assert [s.path.name for s in skips] == [name]
    assert projects == load_dataset(clean)

    assert main(["mine", str(with_bad), "--min-support", "1", "--format", "json"]) == 0
    with_bad_report = json.loads(capsys.readouterr().out)
    assert main(["mine", str(clean), "--min-support", "1", "--format", "json"]) == 0
    clean_report = json.loads(capsys.readouterr().out)
    del with_bad_report["dataset"], clean_report["dataset"]
    assert with_bad_report == clean_report


@pytest.mark.parametrize(
    "edit",
    [_if_is_its_own_substack, _if_body_is_the_forever, _repeat_body_continues_into_the_repeat],
)
def test_a_block_cycle_skips_only_its_archive(tmp_path, capsys, edit):
    bad = _write_json_project(tmp_path / "cyclic.json", _cyclic(edit))
    with pytest.raises(MalformedProject, match="twice"):
        load_project(bad)
    _assert_only_skipped(tmp_path, capsys, "cyclic.json", bad.read_bytes())


def test_an_acyclic_project_with_the_same_blocks_loads(tmp_path):
    path = _write_json_project(tmp_path / "fine.json", _cyclic(lambda blocks: None))
    assert load_project(path).warnings == ()


def _zip_bytes(payload: bytes, compression: int = zipfile.ZIP_DEFLATED) -> bytearray:
    buffer = io.BytesIO()
    with zipfile.ZipFile(buffer, "w", compression=compression) as zf:
        zf.writestr("project.json", payload)
    return bytearray(buffer.getvalue())


_VALID_PAYLOAD = project_payload(build_project("ok", [("Cat", [FIG_SCRIPT])]))


def _edited_zip(edit) -> bytes:
    """A deflated zip of a valid project after edit(data, central, end);
    its local header is at 0, its central directory entry at `central`
    and its end record at `end`."""
    data = _zip_bytes(_VALID_PAYLOAD)
    edit(data, data.find(b"PK\x01\x02"), data.rfind(b"PK\x05\x06"))
    return bytes(data)


def _corrupt_deflate_stream(data, central, end):
    start = 30 + len("project.json")  # the compressed bytes follow the local header
    data[start:start + 5] = b"\xff" * 5


def _encrypted(data, central, end):
    struct.pack_into("<H", data, 6, 0x1)
    struct.pack_into("<H", data, central + 8, 0x1)


def _compression_method_99(data, central, end):
    struct.pack_into("<H", data, 8, 99)
    struct.pack_into("<H", data, central + 10, 99)


def _member_before_the_archive_start(data, central, end):
    struct.pack_into("<I", data, end + 16, central + 36)  # central directory offset


def _member_runs_past_the_end(data, central, end):
    struct.pack_into("<H", data, 28, len(data))  # local extra field length


@pytest.mark.parametrize(
    "data, error",
    [
        (_edited_zip(_corrupt_deflate_stream), ArchiveUnreadable),
        (_edited_zip(_encrypted), ArchiveUnreadable),
        (_edited_zip(_compression_method_99), ArchiveUnreadable),
        (_edited_zip(_member_before_the_archive_start), ArchiveUnreadable),
        (_edited_zip(_member_runs_past_the_end), ArchiveUnreadable),
        (bytes(_zip_bytes(b"[" * 100_000 + b"]" * 100_000)), MalformedProject),
        (b"[" * 100_000 + b"]" * 100_000, MalformedProject),
    ],
    ids=["corrupt-deflate", "encrypted", "compression-99", "negative-offset", "truncated",
         "deep-json-in-zip", "deep-bare-json"],
)
def test_an_undecodable_archive_skips_only_itself(tmp_path, capsys, data, error):
    bad = tmp_path / "bad.sb3"
    bad.write_bytes(data)
    with pytest.raises(error):
        load_project(bad)
    _assert_only_skipped(tmp_path, capsys, "bad.sb3", data)


@pytest.mark.parametrize(
    "compression",
    [zipfile.ZIP_STORED, zipfile.ZIP_DEFLATED, zipfile.ZIP_BZIP2, zipfile.ZIP_LZMA],
)
def test_damaged_zip_bytes_raise_only_load_errors(tmp_path, compression):
    base = _zip_bytes(_VALID_PAYLOAD, compression)
    rng = random.Random(compression)
    path = tmp_path / "damaged.sb3"
    for _ in range(1000):
        data = bytearray(base)
        for _ in range(rng.randint(1, 4)):
            data[rng.randrange(len(data))] = rng.randrange(256)
        path.write_bytes(bytes(data[: rng.randint(len(data) // 2, len(data))]))
        try:
            load_project(path)
        except (ArchiveUnreadable, MalformedProject):
            pass


def _nested_ifs(depth: int) -> dict:
    """A project whose one script is a hat and `depth` nested if blocks
    around a move block."""
    blocks = {"hat": {"opcode": "event_whenflagclicked", "next": "if1", "topLevel": True}}
    for level in range(1, depth + 1):
        body = f"if{level + 1}" if level < depth else "move"
        blocks[f"if{level}"] = {"opcode": "control_if", "inputs": {"SUBSTACK": [2, body]}}
    blocks["move"] = {"opcode": "motion_movesteps"}
    return {"targets": [
        {"name": "Stage", "isStage": True, "blocks": {}},
        {"name": "Cat", "isStage": False, "blocks": blocks},
    ]}


def test_nesting_past_the_limit_skips_only_its_archive(tmp_path, capsys):
    bad = _write_json_project(tmp_path / "deep.json", _nested_ifs(3000))
    with pytest.raises(MalformedProject, match="deeper than"):
        load_project(bad)
    with pytest.raises(MalformedProject, match="deeper than"):
        load_project(_write_json_project(tmp_path / "over.json", _nested_ifs(MAX_NESTING + 1)))
    _assert_only_skipped(tmp_path, capsys, "deep.json", bad.read_bytes())


@pytest.mark.parametrize("depth", [100, MAX_NESTING])
def test_nesting_up_to_the_limit_is_modelled(tmp_path, depth):
    project = load_project(_write_json_project(tmp_path / "deep.json", _nested_ifs(depth)))
    [properties] = extract_property_sets([project])
    names = {(p.first.opcode, p.second.opcode) for p in properties.properties}
    assert ("event_whenflagclicked", "motion_movesteps") in names
    assert ("control_if", "control_if") in names
