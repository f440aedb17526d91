"""Block identity and opcode classification for the Scratch 3 palette.

Classification drives everything downstream: hats and plain commands become
single transitions in a script model, control opcodes open branches or loops,
cap opcodes terminate a stack, and reporters are abstracted away entirely.
The table itself ships as a versioned data file (data/opcodes.json) so the
palette can be audited and extended without touching code.
"""

from __future__ import annotations

import json
from enum import Enum, unique
from functools import cache
from importlib import resources
from typing import NamedTuple


@unique
class BlockKind(Enum):
    """Structural role of an opcode inside a script."""

    HAT = "hat"
    COMMAND = "command"
    IF_THEN = "if_then"
    IF_ELSE = "if_else"
    FOREVER = "forever"
    LOOP_BOUNDED = "loop_bounded"
    LOOP_UNTIL = "loop_until"
    CAP = "cap"
    REPORTER = "reporter"
    UNKNOWN = "unknown"


# Opcodes whose label carries a procedure prototype name.
PROCEDURE_OPCODES = frozenset({"procedures_call", "procedures_definition"})


@cache
def _load_table() -> dict:
    data = resources.files("blockmine.data").joinpath("opcodes.json").read_text("utf-8")
    table = json.loads(data)
    return table


def table_version() -> int:
    """Version number of the shipped opcode classification table."""
    return int(_load_table()["version"])


@cache
def classify_opcode(opcode: str) -> BlockKind:
    """Classify an opcode string; opcodes outside the table are UNKNOWN.

    Pure function of the opcode: the same string always maps to the same
    kind regardless of where the block appears.
    """
    entry = _load_table()["opcodes"].get(opcode)
    if entry is None:
        return BlockKind.UNKNOWN
    return BlockKind(entry["kind"])


def is_menu_opcode(opcode: str) -> bool:
    """True for dropdown-menu shadow reporters (never real program content)."""
    entry = _load_table()["opcodes"].get(opcode)
    return bool(entry and entry.get("menu"))


def opcode_display_name(opcode: str) -> str:
    """Human-readable block name; falls back to a cleaned-up opcode."""
    entry = _load_table()["opcodes"].get(opcode)
    if entry and "name" in entry:
        return entry["name"]
    # "ext_doSomethingNice" reads better as "do something nice" than raw.
    tail = opcode.split("_", 1)[-1] if "_" in opcode else opcode
    return tail.replace("_", " ")


class BlockLabel(NamedTuple):
    """Normalized identity of a command block: opcode with inputs abstracted.

    `detail` distinguishes custom procedures (the prototype name) so that
    calls to different procedures do not collapse into one label. A label
    is an immutable tuple, so it hashes, compares and sorts by
    (opcode, detail) in C; copy one with `label._replace(...)`.
    """

    opcode: str
    detail: str = ""

    @property
    def display(self) -> str:
        base = opcode_display_name(self.opcode)
        if self.detail:
            return f"{base} {self.detail!r}"
        return base

    def __str__(self) -> str:
        return self.display

    def key(self) -> str:
        """Stable serialization key: opcode, plus detail when present."""
        return f"{self.opcode}:{self.detail}" if self.detail else self.opcode
