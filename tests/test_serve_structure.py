"""Pins the durable output of the serving layer, record by record.

``serve.journal`` is the fleet's crash-recovery source of truth: every
window rollover, admission, burst, quarantine and drain appends one
checksummed record carrying a post-mutation pool and health snapshot.
Each record's embedded sha256, and the per-event and combined
run-outcome digests, are compared exactly with
``tests/golden/serve_structure.json``, so a refactor of the service that
reorders, drops or alters any admission, ladder or pool mutation fails
here with the first divergent record.

Three fleets are covered: a durable, contended 3-event surge with a
mid-run imagery burst; the durable chaos drill (``loadgen.chaos_plan()``
on the last event: quarantine, recovery probes, terminal park); and a
contended fleet whose final tick record is dropped before ``resume``,
so the swallowed admission is reconstructed, and which then drains.
"""

import json

import pytest

from repro.eval.runner import prepare
from repro.serve import CrowdLearnService, loadgen

from tests.golden import Family


@pytest.fixture(scope="module")
def setup():
    return prepare(seed=0, fast=True)


def journal_records(serve_dir):
    """``kind:sha256[:16]`` of every serve-journal record, in order."""
    lines = (serve_dir / "serve.journal").read_text().splitlines()
    out = []
    for line in lines:
        entry = json.loads(line)
        out.append(f"{entry['record']['kind']}:{entry['sha256'][:16]}")
    return out


#: Per fleet: every serve-journal record's ``kind:sha256[:16]``, each
#: event's run-outcome digest and the combined digest.
GOLDEN = Family("serve_structure", ["surge", "chaos", "reconstructed"])


def pinned_fleet(service, serve_dir) -> dict:
    """What the golden file holds for one fleet."""
    return {
        "records": journal_records(serve_dir),
        "digests": service.digests(),
        "combined": service.combined_digest(),
    }


class TestServeStructure:
    def test_durable_contended_surge(self, setup, tmp_path, golden):
        service = loadgen.build_service(
            setup, n_events=3, serve_dir=tmp_path
        )
        loadgen.drive(service)
        service.close()
        golden("surge", pinned_fleet(service, tmp_path))

    def test_durable_chaos_fleet(self, setup, tmp_path, golden):
        service = loadgen.build_service(
            setup,
            n_events=3,
            serve_dir=tmp_path,
            unmetered=True,
            fault_plans={"event-03": loadgen.chaos_plan()},
        )
        loadgen.drive(service)
        service.close()
        assert service.quarantined_events() == ["event-03"]
        golden("chaos", pinned_fleet(service, tmp_path))

    def test_reconstructed_tick_then_drain(self, setup, tmp_path, golden):
        service = loadgen.build_service(
            setup, n_events=3, serve_dir=tmp_path
        )
        for _ in range(5):
            service.step()
        # Drop the final tick record: the event checkpoint is durable but
        # the service append was lost, so resume must reconstruct it.
        journal = tmp_path / "serve.journal"
        lines = journal.read_text().splitlines()
        assert json.loads(lines[-1])["record"]["kind"] == "tick"
        journal.write_text("\n".join(lines[:-1]) + "\n")

        resumed = CrowdLearnService.resume(tmp_path, setup=setup)
        last = json.loads(journal.read_text().splitlines()[-1])["record"]
        assert last["kind"] == "tick" and last["reconstructed"] is True
        resumed.drain()
        resumed.close()
        golden("reconstructed", pinned_fleet(resumed, tmp_path))
