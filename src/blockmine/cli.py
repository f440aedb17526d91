"""Command line interface.

Subcommands:
  stats           headline numbers for a dataset
  extract-models  write one model artifact per script (DOT or structured text)
  mine            run detection and report the ranked anomalies
  sweep           anomaly counts over a support x confidence grid
  gen-corpus      write a synthetic classroom from a corpus spec file

Every flag has a BLOCKMINE_* environment variable fallback (flag beats
environment beats preset beats built-in default). All of them are resolved
and checked before any input is read. Exit codes: 0 ran to completion,
1 usage or configuration error, 2 dataset unreadable.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass, replace
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable, Iterator, Sequence

from .anomalies import parameter_sweep
from .errors import (
    ArchiveUnreadable,
    DatasetEmpty,
    InvalidConfig,
    MalformedProject,
    OutputUnwritable,
)
from .corpus import generate_corpus, load_corpus_spec
from .ingest import ProjectScripts, iter_project_scripts, load_project, usable_cpus
from .mining import MiningConfig, PRESETS, as_confidence
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


def _supports(text: str) -> list[int]:
    values = [int(part) for part in text.split(",") if part.strip()]
    if not values or min(values) < 1:
        raise ValueError("expected comma-separated positive integers")
    return values


def _confidences(text: str) -> list[Fraction]:
    values = [as_confidence(part.strip(), "confidence") for part in text.split(",")
              if part.strip()]
    if not values:
        raise ValueError("expected comma-separated numbers in (0, 1]")
    return values


@dataclass(frozen=True)
class _Option:
    """One flag `--<name>` with its fallback variable BLOCKMINE_<NAME>.

    `parse` turns text from the command line, the environment or `default`
    into the value the commands read; a value below `minimum` is refused.
    An option with a `field` takes its default from the preset, or else
    from MiningConfig(), which checks the value itself.
    """

    name: str
    parse: Callable[[str], Any]
    help: str
    metavar: str | None = None
    default: Any = None
    field: str | None = None
    choices: tuple[str, ...] = ()
    minimum: int | None = None

    @property
    def flag(self) -> str:
        return "--" + self.name.replace("_", "-")

    @property
    def env(self) -> str:
        return _ENV_PREFIX + self.name.upper()

    def fallback(self, preset: MiningConfig) -> Any:
        return getattr(preset, self.field) if self.field else self.default


_OPTIONS = {
    option.name: option
    for option in (
        _Option("preset", str, "named parameter preset; explicit flags override its values",
                choices=tuple(sorted(PRESETS))),
        _Option("min_support", int, "scripts a pattern must occur in", "N",
                field="min_support"),
        _Option("min_confidence", Fraction, "confidence threshold in (0,1]", "C",
                field="min_confidence"),
        _Option("min_size", int, "smallest pattern checked for violations", "N",
                field="min_pattern_size"),
        _Option("max_deviation", int, "largest deviation reported", "N",
                field="max_deviation_level"),
        _Option("jobs", int, "most processes that load archives; only large classrooms fork",
                "N", default=usable_cpus(), minimum=1),
        _Option("top", int, "how many anomalies to report", "N", default=10, minimum=0),
        _Option("supports", _supports, "comma-separated supports", "LIST",
                default="1,5,10,15,20"),
        _Option("confidences", _confidences, "comma-separated confidences", "LIST",
                default="0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9"),
        _Option("format", str, "output format"),
        _Option("out", str, "output file, or directory for one file per item", "PATH"),
    )
}


@dataclass(frozen=True)
class _Command:
    run: Callable[[argparse.Namespace], int]
    help: str
    operand: tuple[str, str]  # positional argument: name, help
    names: tuple[str, ...]  # keys of _OPTIONS
    formats: tuple[str, ...] = ()  # --format choices; the first is the default

    def options(self) -> list[_Option]:
        return [
            replace(_OPTIONS[name], choices=self.formats, default=self.formats[0])
            if name == "format" else _OPTIONS[name]
            for name in self.names
        ]


def _resolve(args: argparse.Namespace, command: _Command) -> None:
    """Set each option of the command on `args`: the flag, else the
    environment, else the preset, else the default; parsed and checked.
    Adds `args.config`, the MiningConfig of the mining options given."""
    preset = MiningConfig()
    config: dict[str, Any] = {}
    for option in command.options():
        value, source = getattr(args, option.name), option.flag
        if value is None and option.env in os.environ:
            value, source = os.environ[option.env], option.env
        if value is None:
            value = option.fallback(preset)
        if isinstance(value, str):
            try:
                value = option.parse(value)
            except (ValueError, ZeroDivisionError, InvalidConfig) as exc:
                raise InvalidConfig(f"bad {source}={value!r}: {exc}") from exc
        if option.choices and value is not None and value not in option.choices:
            raise InvalidConfig(
                f"bad {source}={value!r}: expected one of {', '.join(option.choices)}"
            )
        if option.minimum is not None and value < option.minimum:
            raise InvalidConfig(
                f"bad {source}={value!r}: {option.flag} must be >= {option.minimum}"
            )
        setattr(args, option.name, value)
        if option.name == "preset" and value is not None:
            preset = PRESETS[value]
        if option.field:
            config[option.field] = value
    args.config = MiningConfig(**config)


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
    if args.out is None:
        sys.stdout.write(text)
    else:
        _write_text(Path(args.out), text)


def _projects(args: argparse.Namespace) -> Iterator[ProjectScripts]:
    return iter_project_scripts(args.dataset, jobs=args.jobs)


def cmd_stats(args: argparse.Namespace) -> int:
    stats = analyze_dataset(_projects(args), args.config).stats
    if args.format == "json":
        _emit(args, document_to_json(stats_to_document(stats)))
    else:
        _emit(args, stats_to_text(stats))
    return 0


def cmd_extract_models(args: argparse.Namespace) -> int:
    if args.out is None:
        raise InvalidConfig("extract-models needs --out DIRECTORY")
    artifacts = model_artifacts(extract_models(_projects(args)), fmt=args.format)
    _write_artifacts(Path(args.out), artifacts)
    sys.stdout.write(f"wrote {len(artifacts)} model files to {args.out}\n")
    return 0


def cmd_mine(args: argparse.Namespace) -> int:
    if args.format == "dot" and args.out is None:
        raise InvalidConfig("mine --format dot needs --out DIRECTORY")
    result = analyze_dataset(_projects(args), args.config)
    report = AnomalyReport(dataset=str(args.dataset), config=args.config, result=result)
    if args.format == "text":
        _emit(args, report_to_text(report, top=args.top))
    elif args.format == "json":
        _emit(args, report_to_json(report, top=args.top))
    else:
        documents = anomaly_dot_documents(result.anomalies, top=args.top)
        _write_artifacts(Path(args.out), documents)
        sys.stdout.write(f"wrote {len(documents)} anomaly graphs to {args.out}\n")
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    property_sets = extract_property_sets(_projects(args))
    cells = parameter_sweep(property_sets, args.supports, args.confidences, args.config)
    if args.format == "csv":
        _emit(args, sweep_to_csv(cells))
    else:
        _emit(args, document_to_json(sweep_to_document(cells)))
    return 0


def cmd_gen_corpus(args: argparse.Namespace) -> int:
    if args.out is None:
        raise InvalidConfig("gen-corpus needs --out DIRECTORY")
    spec = load_corpus_spec(args.spec)
    reference = load_project(spec.reference)
    written = generate_corpus(reference, spec.n_correct, spec.mutations, args.out)
    sys.stdout.write(f"wrote {len(written)} archives to {args.out}\n")
    return 0


_DATASET = ("dataset", "directory of .sb3 archives")
# The preset comes first: the options after it take their defaults from it.
_MINING = ("preset", "min_support", "min_confidence", "min_size", "max_deviation")

_COMMANDS = {
    "stats": _Command(cmd_stats, "dataset headline numbers", _DATASET,
                      (*_MINING, "jobs", "format", "out"), ("text", "json")),
    "extract-models": _Command(cmd_extract_models, "write one model per script", _DATASET,
                               ("jobs", "format", "out"), ("dot", "structured-text")),
    "mine": _Command(cmd_mine, "detect and rank anomalies", _DATASET,
                     (*_MINING, "jobs", "top", "format", "out"), ("text", "json", "dot")),
    "sweep": _Command(cmd_sweep, "anomaly counts over a parameter grid", _DATASET,
                      ("jobs", "supports", "confidences", "min_size", "max_deviation",
                       "format", "out"), ("csv", "json")),
    "gen-corpus": _Command(cmd_gen_corpus, "write a synthetic classroom",
                           ("spec", "corpus spec JSON file"), ("out",)),
}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage; this tool reserves 2 for
    # unreadable datasets, so usage problems are rerouted to exit code 1.
    def error(self, message: str) -> None:  # type: ignore[override]
        raise _UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    """The argument parser. An option not given on the command line is None
    in the parsed namespace; integer flags arrive as int, the rest as text."""
    parser = _Parser(
        prog="blockmine",
        description="Find unusual solutions in a directory of Scratch 3 projects.",
    )
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")
    default = MiningConfig()
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        p.add_argument(command.operand[0], help=command.operand[1])
        for option in command.options():
            shown = option.fallback(default)
            where = option.env if shown is None else f"{option.env}, default {shown}"
            p.add_argument(
                option.flag,
                type=int if option.parse is int else None,
                choices=option.choices or None,
                default=None,
                metavar=option.metavar,
                help=f"{option.help} ({where})",
            )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            parser.print_usage(sys.stderr)
            sys.stderr.write("blockmine: error: a subcommand is required\n")
            return 1
        command = _COMMANDS[args.command]
        _resolve(args, command)
        return command.run(args)
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
