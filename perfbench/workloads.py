"""The benchmark's workloads: a classroom shape plus one CLI invocation.

Each layout (opcode pool sizes and layout seed) was picked so that the
workload loads the layers its `why` names; see README.md for the shares.
"""

from __future__ import annotations

from dataclasses import dataclass

from classroom import Shape

# Name of the classroom directory, relative to the run's working directory.
# Reports embed the dataset argument, so it must not depend on the checkout.
DATASET = "classroom"


@dataclass(frozen=True)
class Workload:
    name: str
    shape: Shape
    argv: tuple[str, ...]
    why: str

    @property
    def is_sweep(self) -> bool:
        return self.argv[0] == "sweep"

    def cli_argv(self, out: str) -> list[str]:
        return [self.argv[0], DATASET, *self.argv[1:], "--out", out]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="clone-class",
            shape=Shape(
                projects=3000, sprites=1, scripts_per_sprite=1, min_blocks=8, max_blocks=14,
                hats=4, commands=16, single_edit_mutants=5, layout_seed=2,
            ),
            argv=("mine", "--jobs", "2", "--format", "json"),
            why=(
                "MOOC-scale clone classroom (3000 x 1 script of 8-14 blocks, 5 single-edit"
                " mutants), default config, --jobs 2: ingest, model and properties do most work"
            ),
        ),
        Workload(
            name="mutant-class",
            shape=Shape(
                projects=60, sprites=2, scripts_per_sprite=4, min_blocks=3, max_blocks=7,
                hats=1, commands=3, max_edits=2, layout_seed=3,
            ),
            argv=("mine", "--min-support", "40", "--min-confidence", "0.5", "--format", "json"),
            why=(
                "60 students x 2 sprites x 4 scripts of 3-7 blocks, 0-2 edits each, support 40,"
                " confidence 0.5: listing and ranking violations (anomalies) does ~90% of the work"
            ),
        ),
        Workload(
            name="deep-sweep",
            shape=Shape(
                projects=30, sprites=2, scripts_per_sprite=4, min_blocks=14, max_blocks=20,
                hats=4, commands=24, max_edits=2, layout_seed=2,
            ),
            argv=("sweep", "--supports", "20,25", "--max-deviation", "1"),
            why=(
                "30 students x 8 long scripts (14-20 blocks, ~600 distinct properties), sweep"
                " over supports 20,25 x 9 confidences: closed-pattern mining does most work"
            ),
        ),
    )
}
