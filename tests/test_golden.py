"""The golden store itself: ``tests/golden`` and its regeneration plugin."""

import importlib
import json
import math

import pytest

from tests.golden import (
    GOLDEN_DIR,
    PINNED_MODULES,
    Family,
    GoldenError,
    Recorder,
    dumps,
)
from tests.golden.__main__ import main, render, table_rows

pytest_plugins = ["pytester"]


@pytest.fixture
def demo(tmp_path):
    """A two-key family whose file holds both keys."""
    (tmp_path / "demo.json").write_text(
        dumps({"a": {"digest": "ab12", "counts": [1, 2]}, "b": {"f1": 0.5}})
    )
    return Family("demo", ["a", "b"], directory=tmp_path)


class TestCheck:
    def test_equal_value_passes(self, demo):
        demo.check("a", {"counts": (1, 2), "digest": "ab12"})
        demo.check("b", {"f1": 0.5})

    def test_wrong_value_names_family_key_and_field(self, demo):
        with pytest.raises(GoldenError, match=r"demo\[a\]") as excinfo:
            demo.check("a", {"digest": "ab12", "counts": [1, 3]})
        assert "counts[1]: expected 2, got 3" in str(excinfo.value)

    def test_comparison_is_exact(self, demo):
        with pytest.raises(GoldenError, match=r"demo\[b\]"):
            demo.check("b", {"f1": math.nextafter(0.5, 1.0)})

    def test_unread_key_fails(self, tmp_path):
        (tmp_path / "demo.json").write_text(
            dumps({"a": 1, "stale": 2, "gone": 3})
        )
        family = Family("demo", ["a"], directory=tmp_path)
        with pytest.raises(GoldenError, match="no test reads: gone, stale"):
            family.check("a", 1)

    def test_undeclared_key_fails(self, demo):
        with pytest.raises(GoldenError, match=r"demo\[c\] is not a declared"):
            demo.check("c", 1)

    def test_declared_key_without_value_fails(self, tmp_path):
        (tmp_path / "demo.json").write_text(dumps({"a": 1}))
        family = Family("demo", ["a", "b"], directory=tmp_path)
        with pytest.raises(GoldenError, match=r"no value for demo\[b\]"):
            family.check("b", 1)

    def test_missing_file_fails(self, tmp_path):
        family = Family("demo", ["a"], directory=tmp_path)
        with pytest.raises(GoldenError, match="demo.json is missing"):
            family.check("a", 1)

    @pytest.mark.parametrize(
        "text, message",
        [("{not json", "not valid JSON"), ("[1, 2]", "one JSON object")],
        ids=["syntax", "not-an-object"],
    )
    def test_malformed_file_fails(self, tmp_path, text, message):
        (tmp_path / "demo.json").write_text(text)
        family = Family("demo", ["a"], directory=tmp_path)
        with pytest.raises(GoldenError, match=message):
            family.check("a", 1)

    def test_recorder_records_instead_of_comparing(self, demo):
        recorder = Recorder()
        demo.check("a", {"digest": "cd34"}, recorder)
        demo.check("a", {"digest": "ef56"}, recorder)
        assert recorder.values == {"demo": {"a": {"digest": "ef56"}}}
        assert recorder.conflicts == ["demo[a]"]


@pytest.mark.parametrize("module", PINNED_MODULES)
def test_store_holds_exactly_what_the_pinned_module_reads(module):
    """Holds without running the pinned tests: no stale or missing key."""
    family = importlib.import_module(module).GOLDEN
    values = family.load()
    assert sorted(values) == sorted(family.keys)
    assert family.path.read_text() == dumps(values)


def test_every_golden_file_belongs_to_a_pinned_module():
    names = {importlib.import_module(m).GOLDEN.name for m in PINNED_MODULES}
    assert {path.stem for path in GOLDEN_DIR.glob("*.json")} == names


class TestRegeneration:
    def test_table_marks_changed_rows(self):
        old = {"k": {"digest": "a" * 64, "guards": {"snapshots": 3}}}
        new = {"k": {"digest": "b" * 64, "guards": {"snapshots": 3}},
               "n": {"f1": 0.5}}
        rows = table_rows("fam", old, new)
        assert [(r[0], r[2], r[3]) for r in rows] == [
            (True, "k", "digest"),
            (False, "k", "guards.snapshots"),
            (True, "n", "f1"),
        ]
        assert rows[0][4] == "aaaaaaaaaaaa... -> bbbbbbbbbbbb..."
        assert render(rows).endswith("2 of 3 rows changed")
        assert render(table_rows("fam", new, new)).endswith(
            "0 of 3 rows changed"
        )

    def test_takes_no_arguments(self, capsys):
        assert main(["--update"]) == 2
        assert "takes no arguments" in capsys.readouterr().err

    def test_plugin_records_through_the_golden_fixture(
        self, pytester, tmp_path
    ):
        """The fixture compares by default and records under the plugin."""
        store = tmp_path / "store"
        store.mkdir()
        (store / "demo.json").write_text(dumps({"a": [1, 2]}))
        pytester.makeconftest("from tests.conftest import golden  # noqa")
        pytester.makepyfile(test_demo=f"""
            from tests.golden import Family

            GOLDEN = Family("demo", ["a"], directory={str(store)!r})

            def test_a(golden):
                golden("a", (1, 3))
        """)
        result = pytester.runpytest_inprocess("-p", "no:cacheprovider")
        result.assert_outcomes(failed=1)
        result.stdout.fnmatch_lines(["*demo[[]a[]] differs*"])
        recorder = Recorder()
        result = pytester.runpytest_inprocess(
            "-p", "no:cacheprovider", plugins=[recorder]
        )
        result.assert_outcomes(passed=1)
        assert recorder.values == {"demo": {"a": [1, 3]}}
        assert json.loads((store / "demo.json").read_text()) == {"a": [1, 2]}
