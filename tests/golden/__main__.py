"""Regenerate ``tests/golden``: ``PYTHONPATH=src python -m tests.golden``.

Runs the pinned test modules through pytest in this process with a
recording plugin: each ``golden(key, actual)`` records ``actual`` instead
of comparing it, and every other assertion of those tests still runs.
When all of them pass and every declared key was recorded, each family's
file is rewritten in canonical form and an old -> new table is printed,
one row per field (nested fields dotted; lists shown by length and a
short sha256 unless they hold only numbers).  Rows marked ``*`` changed.
Nothing is written when a test fails.  Takes no arguments.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import sys

import pytest

from tests.golden import GOLDEN_DIR, PINNED_MODULES, GoldenError, Recorder, dumps

ABSENT = object()


def _brief(value) -> str:
    if value is ABSENT:
        return "-"
    if isinstance(value, str):
        return value if len(value) <= 24 else value[:12] + "..."
    if isinstance(value, list):
        if all(isinstance(v, (int, float)) for v in value):
            return json.dumps(value)
        sha = hashlib.sha256(json.dumps(value).encode()).hexdigest()
        return f"{len(value)} items, sha256 {sha[:8]}"
    return json.dumps(value)


def _leaves(value, prefix: str = ""):
    """``(dotted field, leaf)`` pairs; dicts are walked, lists are leaves."""
    if isinstance(value, dict) and value:
        for field in sorted(value):
            name = f"{prefix}.{field}" if prefix else field
            yield from _leaves(value[field], name)
    else:
        yield prefix or "value", value


def table_rows(family: str, old: dict, new: dict) -> list[tuple]:
    """``(changed, family, key, field, shown)`` for every field of every key."""
    rows = []
    for key in sorted(set(old) | set(new)):
        before = dict(_leaves(old[key])) if key in old else {}
        after = dict(_leaves(new[key])) if key in new else {}
        for field in sorted(set(before) | set(after)):
            a = before.get(field, ABSENT)
            b = after.get(field, ABSENT)
            changed = a is ABSENT or b is ABSENT or a != b
            shown = f"{_brief(a)} -> {_brief(b)}" if changed else _brief(b)
            rows.append((changed, family, key, field, shown))
    return rows


def render(rows: list[tuple]) -> str:
    header = ("", "family", "key", "field", "value (old -> new if changed)")
    cells = [header] + [("*" if r[0] else "", *r[1:]) for r in rows]
    widths = [max(len(c[i]) for c in cells) for i in range(4)]
    lines = [
        "  ".join(c[i].ljust(widths[i]) for i in range(4)) + "  " + c[4]
        for c in cells
    ]
    changed = sum(1 for r in rows if r[0])
    lines.append(f"{changed} of {len(rows)} rows changed")
    return "\n".join(line.rstrip() for line in lines)


def _old_values(family) -> dict:
    if not family.path.exists():
        return {}
    try:
        return family.load()
    except GoldenError as exc:
        print(f"{exc}; rewriting it", file=sys.stderr)
        return {}


def main(argv: list[str]) -> int:
    if argv:
        print("usage: python -m tests.golden (takes no arguments)", file=sys.stderr)
        return 2
    root = GOLDEN_DIR.parents[1]
    paths = [str(root / f"{name.replace('.', '/')}.py") for name in PINNED_MODULES]
    recorder = Recorder()
    code = pytest.main(["-q", "-p", "no:cacheprovider", *paths], plugins=[recorder])
    if code != pytest.ExitCode.OK:
        print(
            f"the pinned tests failed (pytest exit {int(code)}); "
            "tests/golden is unchanged",
            file=sys.stderr,
        )
        return 1
    families = [importlib.import_module(name).GOLDEN for name in PINNED_MODULES]
    problems = [f"{c} was recorded with two values" for c in recorder.conflicts]
    for family in families:
        recorded = recorder.values.get(family.name, {})
        problems += [
            f"{family.name}[{key}] is declared but no test read it"
            for key in family.keys if key not in recorded
        ]
    if problems:
        print("\n".join(problems + ["tests/golden is unchanged"]), file=sys.stderr)
        return 1
    rows = []
    for family in families:
        new = recorder.values[family.name]
        rows += table_rows(family.name, _old_values(family), new)
        if not family.path.exists() or family.path.read_text() != dumps(new):
            family.path.write_text(dumps(new))
            print(f"wrote {family.path.relative_to(root)}", file=sys.stderr)
    print(render(rows))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
