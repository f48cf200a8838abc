"""Golden outputs of the pinned runs, one JSON file per family.

A pinned test module declares its family once, as a module attribute::

    GOLDEN = Family("policy", [f"seed{seed}/{arm}" for ...])

and its tests compare what a run produced through the ``golden`` fixture
(``tests/conftest.py``), ``golden(key, actual)``.  The comparison is exact
``==`` on the JSON form of ``actual`` (tuples become lists; floats
round-trip exactly).  Every comparison first checks that the family's file
holds no key outside the declared ones, so a stale key fails whichever of
the family's tests runs, also in a single-file or ``-k`` run.

``python -m tests.golden`` reruns the pinned modules with a recording
plugin, rewrites the files and prints what moved (see ``__main__``).  A
regeneration is a declared output change: its change log pastes the
printed table and cites the claim that justifies it.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

__all__ = [
    "GOLDEN_DIR",
    "PINNED_MODULES",
    "RECORDER",
    "Family",
    "GoldenError",
    "Recorder",
    "dumps",
]

GOLDEN_DIR = Path(__file__).resolve().parent

#: The test modules whose expected values live here, one family each.
PINNED_MODULES = (
    "tests.integration.test_binding_budget_parity",
    "tests.test_cycle_structure",
    "tests.test_paper_scale_digest",
    "tests.test_policy_parity",
    "tests.test_serve_structure",
    "tests.test_truth_parity",
)

REGENERATE = "PYTHONPATH=src python -m tests.golden"


class GoldenError(AssertionError):
    """A golden file is missing, malformed or out of step with its tests."""


def _normalize(value):
    """``value`` as it reads back from a golden file."""
    return json.loads(json.dumps(value, allow_nan=False))


def dumps(values: dict) -> str:
    """The canonical text of a golden file."""
    return json.dumps(values, sort_keys=True, indent=2, allow_nan=False) + "\n"


class Recorder:
    """Collects actual values instead of comparing them (regeneration)."""

    def __init__(self) -> None:
        self.families: dict[str, Family] = {}
        self.values: dict[str, dict] = {}
        self.conflicts: list[str] = []

    def record(self, family: "Family", key: str, value) -> None:
        self.families[family.name] = family
        values = self.values.setdefault(family.name, {})
        if key in values and values[key] != value:
            self.conflicts.append(f"{family.name}[{key}]")
        values[key] = value

    def pytest_configure(self, config) -> None:
        config.stash[RECORDER] = self


RECORDER = pytest.StashKey[Recorder]()


class Family:
    """One golden file and the keys its tests read."""

    def __init__(self, name: str, keys, directory: Path = GOLDEN_DIR) -> None:
        self.name = name
        self.keys = tuple(keys)
        self.path = Path(directory) / f"{name}.json"
        self._values: dict | None = None

    def load(self) -> dict:
        """The file's values; raises :class:`GoldenError` if unusable."""
        try:
            text = self.path.read_text()
        except FileNotFoundError:
            raise GoldenError(
                f"golden file {self.path} is missing; run {REGENERATE}"
            ) from None
        try:
            values = json.loads(text)
        except json.JSONDecodeError as exc:
            raise GoldenError(
                f"golden file {self.path} is not valid JSON: {exc}"
            ) from None
        if not isinstance(values, dict):
            raise GoldenError(
                f"golden file {self.path} must hold one JSON object, "
                f"got {type(values).__name__}"
            )
        return values

    def values(self) -> dict:
        """The file's values once its keys are checked against the tests'."""
        if self._values is None:
            values = self.load()
            unread = sorted(set(values) - set(self.keys))
            if unread:
                raise GoldenError(
                    f"golden file {self.path} has keys no test reads: "
                    f"{', '.join(unread)}"
                )
            self._values = values
        return self._values

    def check(self, key: str, actual, recorder: Recorder | None = None) -> None:
        """Fail unless ``actual`` equals the golden value of ``key``."""
        if key not in self.keys:
            raise GoldenError(f"{self.name}[{key}] is not a declared key")
        actual = _normalize(actual)
        if recorder is not None:
            recorder.record(self, key, actual)
            return
        values = self.values()
        if key not in values:
            raise GoldenError(
                f"{self.path} has no value for {self.name}[{key}]; "
                f"run {REGENERATE}"
            )
        if actual != values[key]:
            raise GoldenError(
                f"{self.name}[{key}] differs from {self.path}:\n"
                + "\n".join(_differences(values[key], actual))
            )


def _differences(expected, actual, where: str = "") -> list[str]:
    """One line per differing field, down to the first differing item."""
    if isinstance(expected, dict) and isinstance(actual, dict):
        lines = []
        for field in sorted(set(expected) | set(actual), key=str):
            path = f"{where}.{field}" if where else str(field)
            if field not in actual:
                lines.append(f"  {path}: expected {expected[field]!r}, missing")
            elif field not in expected:
                lines.append(f"  {path}: not expected, got {actual[field]!r}")
            elif expected[field] != actual[field]:
                lines += _differences(expected[field], actual[field], path)
        return lines
    if isinstance(expected, list) and isinstance(actual, list):
        for index, (old, new) in enumerate(zip(expected, actual)):
            if old != new:
                return _differences(old, new, f"{where}[{index}]")
        return [
            f"  {where}: expected {len(expected)} items, got {len(actual)}"
        ]
    return [f"  {where or 'value'}: expected {expected!r}, got {actual!r}"]
