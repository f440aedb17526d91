"""Output checks that do not trust the mining or anomaly layers.

Property sets come from the ingest, model and properties layers; every
claim the report makes about patterns, deviations and confidences is then
recounted here by brute force. `invariant_digest` hashes the part of a
report that every seed of a workload shares (seeds only relabel opcodes
and reorder students), so it can be pinned once for all seeds.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from fractions import Fraction
from pathlib import Path

from blockmine import extract_property_sets, load_dataset

Prop = tuple[str, str]
ScriptKey = tuple[str, str, int]


def script_properties(dataset: Path) -> dict[ScriptKey, frozenset[Prop]]:
    sets = extract_property_sets(load_dataset(dataset))
    return {
        (ps.source.project_id, ps.source.actor_name, ps.source.script_index): frozenset(
            (p.first.key(), p.second.key()) for p in ps.properties
        )
        for ps in sets
    }


def _props(documents: list[dict]) -> frozenset[Prop]:
    return frozenset((d["first"], d["second"]) for d in documents)


def naive_closed_patterns(sets: list[frozenset[Prop]], min_support: int) -> dict:
    """Every nonempty closed set with support >= min_support, by brute force.

    Closed sets are exactly the intersections of transactions, so the
    family is grown one distinct transaction at a time.
    """
    distinct = set(sets)
    family: set[frozenset[Prop]] = set()
    for t in distinct:
        family |= {f & t for f in family} | {t}
    family.discard(frozenset())
    supports = {f: sum(1 for s in sets if f <= s) for f in family}
    return {f: n for f, n in supports.items() if n >= min_support}


def _ident(key: ScriptKey) -> str:
    return f"{key[0]}/{key[1]}[{key[2]}]"


def check_mine_report(
    text: str, scripts: dict[ScriptKey, frozenset[Prop]], mutants: set[str] | None = None
) -> list[str]:
    """Problems found in a `mine --format json` report; empty when it holds.

    With `mutants`, every flagged script must belong to one of those
    projects.
    """
    doc = json.loads(text)
    problems: list[str] = []
    config, stats = doc["config"], doc["stats"]
    if stats["models"] != len(scripts):
        problems.append(f"stats.models {stats['models']} != {len(scripts)} scripts")
    if stats["patterns"] != len(doc["patterns"]):
        problems.append("stats.patterns disagrees with the pattern list")

    # Equal to the naive family means: each support is a naive count, each
    # pattern is the intersection of its supporters, and none is missing.
    sets = list(scripts.values())
    reported: dict[frozenset[Prop], int] = {}
    for i, pattern in enumerate(doc["patterns"]):
        props = _props(pattern["properties"])
        reported[props] = pattern["support"]
        if (pattern["size"], pattern["supporter_count"]) != (len(props), pattern["support"]):
            problems.append(f"pattern {i}: size or supporter count disagrees")
    if len(reported) != len(doc["patterns"]):
        problems.append("a pattern is reported twice")
    naive = naive_closed_patterns(sets, config["min_support"])
    for props in set(naive) | set(reported):
        if naive.get(props) != reported.get(props):
            problems.append(
                f"pattern of {len(props)} properties: reported support"
                f" {reported.get(props)}, naive {naive.get(props)}"
            )

    # Every violation and anomaly, recounted from the naive patterns.
    classes: dict[tuple[frozenset[Prop], frozenset[Prop]], list[ScriptKey]] = {}
    for props in naive:
        if len(props) < config["min_pattern_size"]:
            continue
        for key, s in scripts.items():
            deviation = props - s
            if deviation and len(deviation) <= config["max_deviation_level"] and props & s:
                classes.setdefault((props, deviation), []).append(key)
    min_confidence = Fraction(config["min_confidence"])
    ranked = []
    for (props, deviation), keys in classes.items():
        confidence = Fraction(naive[props], naive[props] + len(keys))
        if confidence >= min_confidence:
            ranked += [(-confidence, -naive[props], len(deviation), _ident(k)) for k in keys]
    ranked.sort()
    violations = sum(len(keys) for keys in classes.values())
    if (stats["violations"], stats["anomalies"]) != (violations, len(ranked)):
        problems.append(
            f"stats report {stats['violations']} violations and {stats['anomalies']} anomalies,"
            f" naive counts are {violations} and {len(ranked)}"
        )
    if mutants is not None:
        clones = sorted({ident.split("/")[0] for *_, ident in ranked} - mutants)
        if clones:
            problems.append(f"verbatim clones flagged: {clones[:5]}")

    shown = []
    for anomaly in doc["anomalies"]:
        script = anomaly["script"]
        key = (script["project"], script["actor"], script["script_index"])
        where = f"anomaly {anomaly['rank']} ({_ident(key)})"
        if key not in scripts:
            problems.append(f"{where}: no such script")
            continue
        deviation = _props(anomaly["deviation"])
        satisfied = _props(anomaly["satisfied"])
        pattern = deviation | satisfied
        support = anomaly["pattern"]["support"]
        if reported.get(pattern) != support or anomaly["pattern"]["size"] != len(pattern):
            problems.append(f"{where}: deviation + satisfied is not a reported pattern")
        if deviation != pattern - scripts[key] or satisfied != pattern & scripts[key]:
            problems.append(f"{where}: deviation is not the pattern minus the script")
        v = sum(1 for s in sets if pattern - s == deviation)
        confidence = Fraction(anomaly["confidence_exact"])
        if anomaly["same_deviation_count"] != v or confidence != Fraction(support, support + v):
            problems.append(f"{where}: confidence is not s/(s+v) with v={v}")
        shown.append((-confidence, -support, len(deviation), _ident(key)))
    if shown != ranked[: len(shown)]:
        problems.append("shown anomalies are not the top of the naive ranking")
    return problems


def check_sweep_csv(text: str) -> list[str]:
    """Cell counts must not grow with support or with confidence."""
    rows = list(csv.DictReader(io.StringIO(text)))
    counts = {
        (int(r["min_support"]), Fraction(r["min_confidence"])): int(r["anomalies"])
        for r in rows
    }
    supports = sorted({s for s, _ in counts})
    confidences = sorted({c for _, c in counts})
    problems = []
    if not rows or len(counts) != len(supports) * len(confidences):
        problems.append("sweep grid is empty or incomplete")
        return problems
    for s in supports:
        for c in confidences:
            for s2 in supports:
                for c2 in confidences:
                    if s2 >= s and c2 >= c and counts[(s2, c2)] > counts[(s, c)]:
                        problems.append(f"count grows from ({s}, {c}) to ({s2}, {c2})")
    return problems


def invariant_digest(text: str, is_sweep: bool) -> str:
    """sha256 of what every seed of one workload reports alike.

    Sweep counts are invariant as they stand. In a mine report, the
    opcodes, script names and the order among equally ranked anomalies
    change with the seed; stats, pattern supports and sizes, and each
    shown anomaly's confidence, class size, pattern support and deviation
    size do not.
    """
    if not is_sweep:
        doc = json.loads(text)
        text = json.dumps(
            [
                doc["config"],
                doc["stats"],
                [(p["support"], p["size"], p["supporter_count"]) for p in doc["patterns"]],
                [
                    (
                        a["confidence_exact"],
                        a["same_deviation_count"],
                        a["pattern"]["support"],
                        len(a["deviation"]),
                    )
                    for a in doc["anomalies"]
                ],
            ],
            sort_keys=True,
        )
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
