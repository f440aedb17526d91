"""Command line interface.

Subcommands:
  stats           headline numbers for a dataset
  extract-models  write one model artifact per script (DOT or structured text)
  mine            run detection and report the ranked anomalies
  sweep           anomaly counts over a support x confidence grid
  gen-corpus      write a synthetic classroom from a corpus spec file

Every flag has a BLOCKMINE_* environment variable fallback (flag beats
environment beats preset beats built-in default). Exit codes: 0 ran to
completion, 1 usage or configuration error, 2 dataset unreadable.
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction
from pathlib import Path
from typing import Sequence

from .anomalies import parameter_sweep
from .errors import (
    ArchiveUnreadable,
    DatasetEmpty,
    InvalidConfig,
    MalformedProject,
    OutputUnwritable,
)
from .corpus import generate_corpus, load_corpus_spec
from .ingest import load_dataset, load_project
from .mining import MiningConfig, PRESETS
from .model import ScriptModel
from .report import (
    AnomalyReport,
    analyze_dataset,
    anomaly_dot_documents,
    document_to_json,
    extract_models,
    extract_property_sets,
    model_artifacts,
    report_to_json,
    report_to_text,
    stats_to_document,
    stats_to_text,
    sweep_to_csv,
    sweep_to_document,
)

_ENV_PREFIX = "BLOCKMINE_"

# Default grid for the sweep subcommand.
_DEFAULT_SUPPORTS = "1,5,10,15,20"
_DEFAULT_CONFIDENCES = "0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9"


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage; this tool reserves 2 for
    # unreadable datasets, so usage problems are rerouted to exit code 1.
    def error(self, message: str) -> None:  # type: ignore[override]
        raise _UsageError(message)


def _env(name: str) -> str | None:
    return os.environ.get(_ENV_PREFIX + name)


def _pick(flag_value, env_name: str, fallback, convert):
    if flag_value is not None:
        return flag_value
    raw = _env(env_name)
    if raw is not None:
        try:
            return convert(raw)
        except (ValueError, ZeroDivisionError) as exc:
            raise InvalidConfig(f"bad {_ENV_PREFIX}{env_name}={raw!r}: {exc}") from exc
    return fallback


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--preset",
        choices=sorted(PRESETS),
        default=None,
        help="named parameter preset; explicit flags override its values",
    )
    parser.add_argument("--min-support", type=int, default=None, metavar="N",
                        help="scripts a pattern must occur in (default 20)")
    parser.add_argument("--min-confidence", default=None, metavar="C",
                        help="confidence threshold in (0,1] (default 0.9)")
    parser.add_argument("--min-size", type=int, default=None, metavar="N",
                        help="smallest pattern checked for violations (default 2)")
    parser.add_argument("--max-deviation", type=int, default=None, metavar="N",
                        help="largest deviation reported (default 10000)")


def _add_jobs_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--jobs", type=int, default=None, metavar="N",
                        help="accepted for compatibility; extraction is serial")


def _resolve_config(args: argparse.Namespace) -> MiningConfig:
    preset_name = args.preset if args.preset is not None else _env("PRESET")
    if preset_name is not None and preset_name not in PRESETS:
        raise InvalidConfig(
            f"unknown preset {preset_name!r} (expected one of: {', '.join(sorted(PRESETS))})"
        )
    base = PRESETS[preset_name] if preset_name else MiningConfig()
    return MiningConfig(
        min_support=_pick(args.min_support, "MIN_SUPPORT", base.min_support, int),
        min_pattern_size=_pick(args.min_size, "MIN_SIZE", base.min_pattern_size, int),
        max_deviation_level=_pick(
            args.max_deviation, "MAX_DEVIATION", base.max_deviation_level, int
        ),
        min_confidence=_pick(
            _parse_confidence(args.min_confidence),
            "MIN_CONFIDENCE",
            base.min_confidence,
            _parse_confidence,
        ),
    )


def _parse_confidence(raw: str | None) -> Fraction | None:
    if raw is None:
        return None
    try:
        return Fraction(raw)
    except (ValueError, ZeroDivisionError) as exc:
        raise InvalidConfig(f"not a confidence value: {raw!r}") from exc


def _check_jobs(args: argparse.Namespace) -> None:
    """Validate --jobs / BLOCKMINE_JOBS; the value has no other effect."""
    jobs = _pick(getattr(args, "jobs", None), "JOBS", 1, int)
    if jobs < 1:
        raise InvalidConfig(f"--jobs must be >= 1, got {jobs}")


def _resolve_opt(args: argparse.Namespace, attr: str, env: str, default):
    return _pick(getattr(args, attr, None), env, default, str)


def _write_text(path: Path, text: str) -> None:
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
    except OSError as exc:
        raise OutputUnwritable(f"{path}: {exc}") from exc


def _write_artifacts(out_dir: Path, artifacts: Sequence[tuple[str, str]]) -> None:
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise OutputUnwritable(f"{out_dir}: {exc}") from exc
    for name, text in artifacts:
        _write_text(out_dir / name, text)


def _emit(args: argparse.Namespace, text: str) -> None:
    out = _resolve_opt(args, "out", "OUT", None)
    if out is None:
        sys.stdout.write(text)
    else:
        _write_text(Path(out), text)


def cmd_stats(args: argparse.Namespace) -> int:
    projects = load_dataset(args.dataset)
    config = _resolve_config(args)
    _check_jobs(args)
    result = analyze_dataset(projects, config)
    fmt = _resolve_opt(args, "format", "FORMAT", "text")
    if fmt == "json":
        _emit(args, document_to_json(stats_to_document(result.stats)))
    elif fmt == "text":
        _emit(args, stats_to_text(result.stats))
    else:
        raise InvalidConfig(f"stats cannot render format {fmt!r}")
    return 0


def cmd_extract_models(args: argparse.Namespace) -> int:
    projects = load_dataset(args.dataset)
    _check_jobs(args)
    models: list[ScriptModel] = extract_models(projects)
    fmt = _resolve_opt(args, "format", "FORMAT", "dot")
    if fmt not in ("dot", "structured-text"):
        raise InvalidConfig(f"extract-models cannot render format {fmt!r}")
    out = _resolve_opt(args, "out", "OUT", None)
    if out is None:
        raise InvalidConfig("extract-models needs --out DIRECTORY")
    artifacts = model_artifacts(models, fmt=fmt)
    _write_artifacts(Path(out), artifacts)
    sys.stdout.write(f"wrote {len(artifacts)} model files to {out}\n")
    return 0


def cmd_mine(args: argparse.Namespace) -> int:
    projects = load_dataset(args.dataset)
    config = _resolve_config(args)
    _check_jobs(args)
    result = analyze_dataset(projects, config)
    report = AnomalyReport(dataset=str(args.dataset), config=config, result=result)
    top = _pick(args.top, "TOP", 10, int)
    fmt = _resolve_opt(args, "format", "FORMAT", "text")
    if fmt == "text":
        _emit(args, report_to_text(report, top=top))
    elif fmt == "json":
        _emit(args, report_to_json(report, top=top))
    elif fmt == "dot":
        out = _resolve_opt(args, "out", "OUT", None)
        if out is None:
            raise InvalidConfig("mine --format dot needs --out DIRECTORY")
        documents = anomaly_dot_documents(result.anomalies, top=top)
        _write_artifacts(Path(out), documents)
        sys.stdout.write(f"wrote {len(documents)} anomaly graphs to {out}\n")
    else:
        raise InvalidConfig(f"mine cannot render format {fmt!r}")
    return 0


def _parse_int_list(raw: str) -> list[int]:
    try:
        values = [int(part) for part in raw.split(",") if part.strip() != ""]
    except ValueError as exc:
        raise InvalidConfig(f"not an integer list: {raw!r}") from exc
    if not values:
        raise InvalidConfig(f"empty value list: {raw!r}")
    return values


def _parse_confidence_list(raw: str) -> list[Fraction]:
    values = []
    for part in raw.split(","):
        part = part.strip()
        if part == "":
            continue
        parsed = _parse_confidence(part)
        assert parsed is not None
        values.append(parsed)
    if not values:
        raise InvalidConfig(f"empty value list: {raw!r}")
    return values


def cmd_sweep(args: argparse.Namespace) -> int:
    projects = load_dataset(args.dataset)
    supports = _parse_int_list(
        _pick(args.supports, "SUPPORTS", _DEFAULT_SUPPORTS, str)
    )
    confidences = _parse_confidence_list(
        _pick(args.confidences, "CONFIDENCES", _DEFAULT_CONFIDENCES, str)
    )
    fixed = MiningConfig(
        min_support=min(supports),
        min_pattern_size=_pick(args.min_size, "MIN_SIZE", 2, int),
        max_deviation_level=_pick(args.max_deviation, "MAX_DEVIATION", 10000, int),
        min_confidence=min(confidences),
    )
    _check_jobs(args)
    property_sets = extract_property_sets(projects)
    cells = parameter_sweep(property_sets, supports, confidences, fixed)
    fmt = _resolve_opt(args, "format", "FORMAT", "csv")
    if fmt == "csv":
        _emit(args, sweep_to_csv(cells))
    elif fmt == "json":
        _emit(args, document_to_json(sweep_to_document(cells)))
    else:
        raise InvalidConfig(f"sweep cannot render format {fmt!r}")
    return 0


def cmd_gen_corpus(args: argparse.Namespace) -> int:
    spec = load_corpus_spec(args.spec)
    reference = load_project(spec.reference)
    out = _resolve_opt(args, "out", "OUT", None)
    if out is None:
        raise InvalidConfig("gen-corpus needs --out DIRECTORY")
    written = generate_corpus(reference, spec.n_correct, spec.mutations, out)
    sys.stdout.write(f"wrote {len(written)} archives to {out}\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="blockmine",
        description="Find unusual solutions in a directory of Scratch 3 projects.",
    )
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    p_stats = sub.add_parser("stats", help="dataset headline numbers")
    p_stats.add_argument("dataset", help="directory of .sb3 archives")
    _add_config_flags(p_stats)
    _add_jobs_flag(p_stats)
    p_stats.add_argument("--format", choices=["text", "json"], default=None)
    p_stats.add_argument("--out", default=None, metavar="FILE")
    p_stats.set_defaults(func=cmd_stats)

    p_extract = sub.add_parser("extract-models", help="write one model per script")
    p_extract.add_argument("dataset")
    _add_jobs_flag(p_extract)
    p_extract.add_argument("--format", choices=["dot", "structured-text"], default=None)
    p_extract.add_argument("--out", default=None, metavar="DIR")
    p_extract.set_defaults(func=cmd_extract_models)

    p_mine = sub.add_parser("mine", help="detect and rank anomalies")
    p_mine.add_argument("dataset")
    _add_config_flags(p_mine)
    _add_jobs_flag(p_mine)
    p_mine.add_argument("--top", type=int, default=None, metavar="N",
                        help="how many anomalies to report (default 10)")
    p_mine.add_argument("--format", choices=["text", "json", "dot"], default=None)
    p_mine.add_argument("--out", default=None, metavar="PATH")
    p_mine.set_defaults(func=cmd_mine)

    p_sweep = sub.add_parser("sweep", help="anomaly counts over a parameter grid")
    p_sweep.add_argument("dataset")
    _add_jobs_flag(p_sweep)
    p_sweep.add_argument("--supports", default=None, metavar="LIST",
                         help=f"comma-separated supports (default {_DEFAULT_SUPPORTS})")
    p_sweep.add_argument("--confidences", default=None, metavar="LIST",
                         help="comma-separated confidences (default 0.1..0.9)")
    p_sweep.add_argument("--min-size", type=int, default=None, metavar="N")
    p_sweep.add_argument("--max-deviation", type=int, default=None, metavar="N")
    p_sweep.add_argument("--format", choices=["csv", "json"], default=None)
    p_sweep.add_argument("--out", default=None, metavar="FILE")
    p_sweep.set_defaults(func=cmd_sweep)

    p_gen = sub.add_parser("gen-corpus", help="write a synthetic classroom")
    p_gen.add_argument("spec", help="corpus spec JSON file")
    p_gen.add_argument("--out", default=None, metavar="DIR")
    p_gen.set_defaults(func=cmd_gen_corpus)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "func", None) is None:
            parser.print_usage(sys.stderr)
            sys.stderr.write("blockmine: error: a subcommand is required\n")
            return 1
        return args.func(args)
    except _UsageError as exc:
        sys.stderr.write(f"blockmine: error: {exc}\n")
        return 1
    except InvalidConfig as exc:
        sys.stderr.write(f"blockmine: configuration error: {exc}\n")
        return 1
    except OutputUnwritable as exc:
        sys.stderr.write(f"blockmine: cannot write output: {exc}\n")
        return 1
    except (DatasetEmpty, ArchiveUnreadable, MalformedProject) as exc:
        sys.stderr.write(f"blockmine: unreadable dataset: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
