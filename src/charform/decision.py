"""Three-valued decision results.

Decision procedures over rational function fields are incomplete, so every
such predicate answers Decided(true), Decided(false) or Unknown.  Unknown is
never silently collapsed to false.
"""

from __future__ import annotations

from typing import Any, NamedTuple


class Unknown:
    """Sentinel for answers beyond a search or degree budget."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "Unknown"


UNKNOWN = Unknown()


class Decision(NamedTuple):
    """Outcome of a three-valued predicate, optionally carrying a witness."""

    state: str  # "true" | "false" | "unknown"
    witness: Any = None

    @property
    def is_true(self) -> bool:
        return self.state == "true"

    @property
    def is_false(self) -> bool:
        return self.state == "false"

    @property
    def is_unknown(self) -> bool:
        return self.state == "unknown"

    @property
    def decided(self) -> bool:
        return self.state != "unknown"

    def __repr__(self):
        if self.state == "unknown":
            return "Unknown()"
        return f"Decided({self.state})"


def decided(value: bool, witness: Any = None) -> Decision:
    return Decision("true" if value else "false", witness)


def unknown(witness: Any = None) -> Decision:
    return Decision("unknown", witness)
