"""Compare result sets of the benchmark.

Usage (from the repository root)::

    python3 bench/compare.py BASE_DIR OTHER_DIR [OTHER_DIR ...]

Each directory is one result set: the JSON files ``bench/run.py --out DIR``
wrote (traced results are skipped).  For every workload and end-to-end
metric of ``BENCHMARK.json`` it prints each set's median and quartiles,
then judges every other set against the first:

- ``REGRESSION`` when the median is worse than the base median by more
  than the metric's bound;
- ``unresolved`` when either set's own interquartile range, as a share of
  its median, exceeds the bound, unless every run of the other set reads
  better than every base run;
- ``ok`` otherwise.

It also checks that runs with the same seed produced the same unit
digests, within and across sets.  Exits 1 on a regression, a digest
mismatch or a workload missing from a set.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_set(directory: Path) -> dict[str, list[dict]]:
    """Untraced results of one set, by workload."""
    results: dict[str, list[dict]] = {}
    for path in sorted(directory.glob("*.json")):
        result = json.loads(path.read_text())
        if not result.get("trace"):
            results.setdefault(result["workload"], []).append(result)
    return results


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile) as ``statistics`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def worsening(base: float, other: float, better: str) -> float:
    """How much worse ``other`` is than ``base``, as a share of ``base``."""
    change = (other - base) / base
    return change if better == "lower" else -change


def verdict(base: list[float], other: list[float], spec: dict) -> str:
    bound = spec["bound"]
    lower = spec["better"] == "lower"
    wide = any(
        (q3 - q1) / med > bound
        for q1, med, q3 in (quartiles(base), quartiles(other)) if med
    )
    if wide:
        all_better = max(other) < min(base) if lower else min(other) > max(base)
        return "better" if all_better else "unresolved"
    change = worsening(quartiles(base)[1], quartiles(other)[1], spec["better"])
    return f"REGRESSION {change:+.1%}" if change > bound else "ok"


def digest_mismatches(sets: list[tuple[str, dict[str, list[dict]]]]) -> list[str]:
    """Units whose digest differs between runs of the same workload and seed."""
    seen: dict[tuple[str, int, str], tuple[str, str]] = {}
    problems = []
    for set_name, results in sets:
        for workload, runs in results.items():
            for run in runs:
                for unit, digest in run["digests"].items():
                    key = (workload, run["seed"], unit)
                    first = seen.setdefault(key, (set_name, digest))
                    if first[1] != digest:
                        problems.append(
                            f"{workload} seed {run['seed']} {unit}: {first[0]} "
                            f"{first[1][:12]} != {set_name} {digest[:12]}"
                        )
    return problems


def compare(sets: list[tuple[str, dict[str, list[dict]]]], benchmark: dict) -> tuple[list[str], bool]:
    """The report lines, and whether the sets agree."""
    lines = []
    ok = True
    base = sets[0][1]
    for workload in sorted(base):
        lines.append(f"{workload}")
        for spec in benchmark["end_to_end"]:
            name = spec["name"]
            cells = []
            verdicts = []
            base_values = [r["metrics"][name]["value"] for r in base[workload]]
            for index, (set_name, results) in enumerate(sets):
                if workload not in results:
                    cells.append(f"{set_name}: missing")
                    ok = False
                    continue
                values = [r["metrics"][name]["value"] for r in results[workload]]
                q1, med, q3 = quartiles(values)
                cells.append(f"{set_name}: {med:.5g} [{q1:.5g}, {q3:.5g}] n={len(values)}")
                if index:
                    v = verdict(base_values, values, spec)
                    ok &= not v.startswith("REGRESSION")
                    verdicts.append(f"{set_name} {v}")
            lines.append(f"  {name:14s} " + " | ".join(cells) + "  -> " + ", ".join(verdicts))
    problems = digest_mismatches(sets)
    lines.extend(f"DIGEST MISMATCH {p}" for p in problems)
    if not problems:
        lines.append("digests: identical for every shared workload, seed and unit")
    return lines, ok and not problems


def main() -> int:
    args = sys.argv[1:]
    if len(args) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    sets = [(a, load_set(Path(a))) for a in args]
    lines, ok = compare(sets, benchmark)
    print("\n".join(lines))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
