"""Pins the durable output of the serving layer, record by record.

``serve.journal`` is the fleet's crash-recovery source of truth: every
window rollover, admission, burst, quarantine and drain appends one
checksummed record carrying a post-mutation pool and health snapshot.
Each record's embedded sha256 is compared against a literal list, and
the per-event and combined run-outcome digests against literals, so a
refactor of the service that reorders, drops or alters any admission,
ladder or pool mutation fails here with the first divergent record.

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


SURGE_RECORDS = [
    "window:15802b39c8013854",
    "tick:ad439df4bf0d8035",
    "tick:445e6694e95e850c",
    "tick:b08b6cdb9ee3ff11",
    "ingest:72420f7e0aa66281",
    "window:f4afcb83b9328d5c",
    "tick:759c0ff2184c185f",
    "tick:a3ed846199f68afe",
    "tick:65c98178494ba947",
    "window:1f6c4a0416f84ca4",
    "tick:91e0df15899187a7",
    "tick:81a4fd19f7682e9a",
    "tick:5f792eada6626beb",
    "window:9b632720cabd2039",
    "tick:42d003723f710225",
    "tick:cdd32d885ead08d1",
    "tick:e650bbafd4f9b883",
    "window:7629c6f87a24a626",
    "tick:3ae1f26f40bff478",
    "tick:56ebdb15602d9c03",
    "tick:68ece13cf88140ec",
    "window:4cdb74b635b23956",
    "tick:ba85070be684850f",
    "tick:0d3b9f52c666e36e",
    "tick:38df89ace00cf8eb",
    "window:f2a1e4c5fec2e838",
    "tick:d876997c9a9606a1",
    "tick:7997da8a2d8c6d65",
    "tick:0e5f18402f6ffd29",
    "window:dbc29cbababc18a8",
    "tick:16e8c0a9b8060547",
    "tick:c061a8bdcc5dbb90",
    "drained:ed6778671a235d51",
    "tick:1791cf5ab88fed4a",
    "drained:5354250dd7a24ad5",
    "window:90f86d3a164aaefe",
    "tick:f3cafe265dd6e0a5",
    "window:92cfc2e94f36ed98",
    "tick:f2356610653d21ac",
    "drained:7f0c6d2058f46a41",
]

SURGE_DIGESTS = {
    "event-01": (
        "758b9fd5e29f3b506adacae209c788b4646c5194af440208c2650f47603f03ca"
    ),
    "event-02": (
        "b9ff1f19745af177480cb588fc707352c6a98f3b8931aaa64736661f73dbaa66"
    ),
    "event-03": (
        "61511bc380e0a1e30c6bf42f5997d6e8212156dcf7748d50dd2ea8e4ab95844b"
    ),
}

SURGE_COMBINED = (
    "40e3f301d955be6f940116fd4d8925aac7e7c3fe68bd8e6ce79c525c20397fe9"
)

CHAOS_RECORDS = [
    "window:7629627583264bd5",
    "tick:48b2914065e8a0e4",
    "tick:73458f9f9d922ff1",
    "tick:899c9d33f2ccf582",
    "ingest:a2dd8455ffa83f46",
    "window:1dce1ce27cc8ea8f",
    "tick:a4557d409278243a",
    "tick:ce22875c7cd3e165",
    "tick:7cdc0d21fb18613b",
    "window:5a4258de6060c7d0",
    "tick:ffa23ee02e6b91ee",
    "tick:012662dae2ebeff6",
    "tick:d4abc16adb370cd9",
    "quarantine:4ae29b24895215c8",
    "window:1ff198e5958f886a",
    "tick:7c37b5faec91290b",
    "tick:3eec93e0f28f70aa",
    "window:6f89a2a94117c946",
    "tick:bc5a957f2a2c88ca",
    "tick:ae3d37fc50ca363e",
    "tick:1de8a62bf95aae34",
    "quarantine:5d4e5bc5fc35aac1",
    "window:837743f5cd108903",
    "tick:f5d1cbbbe2bbc0a4",
    "tick:53a032ea80ce0034",
    "window:0d8218f13cc4ca9e",
    "tick:3c494921b50ff32a",
    "tick:22bcc1b0e4cf9e64",
    "tick:b7bb58024f7aad28",
    "quarantine:3e59250d8f0920c1",
    "window:906b5bb38cda89cb",
    "tick:6052ee01442f551a",
    "tick:4fe9305f2f0dce7d",
    "drained:d6bfaf7b0495de4a",
    "window:bf2939ff77e0524a",
    "tick:fea855dc4659047a",
    "window:aaf0f8ad9c5601df",
    "tick:ad5b7c95312c6cf8",
    "drained:20ab6f075d906642",
]

CHAOS_DIGESTS = {
    "event-01": (
        "0b839fffda6a6ea95c57c0a950f6b49b17987b355bfdedb738f9cfe2424bc889"
    ),
    "event-02": (
        "96a9621c148be11254554f49fe8af330d763e4b3d1a2fa70250b0d3b4f1f24f3"
    ),
    "event-03": (
        "f8f2c0adfa01afa77848b54190a0723d6209ea72321005ce5aecb9aaec5042fe"
    ),
}

CHAOS_COMBINED = (
    "c63f73cde48d78b98b1483bbf838edfba8fb4ebfffd63fa4fc951a6f28f8b4d5"
)

RECONSTRUCTED_RECORDS = [
    "window:15802b39c8013854",
    "tick:ad439df4bf0d8035",
    "tick:445e6694e95e850c",
    "tick:b08b6cdb9ee3ff11",
    "window:dc246db8fe18adb2",
    "tick:95c581ea6be1113a",
    "tick:a8b3b53649d48c72",
    "tick:ae196d054ed75081",
    "window:e48dc79b165102c5",
    "tick:92928c76037bc0a3",
    "tick:afb1a5dedea6e130",
    "tick:212fc6d2597cdcdc",
    "window:052907c599d44bef",
    "tick:d5e7718cb918b105",
    "tick:1f918ad881aa1174",
    "tick:725cd78223bfe6c5",
    "window:a3098141247d790a",
    "tick:f2bf37554282016c",
    "tick:989619e1f2d95510",
    "tick:e8472e567da0a272",
    "window:120e112ad0b6ceb6",
    "tick:900ffcf2aaa2b072",
    "tick:d109d228678de9ab",
    "tick:501ea7ed94df973f",
    "window:671e830efc862921",
    "tick:baaa7b1ff7f19a32",
    "tick:5c7e4f21aa60f3ea",
    "tick:a79b7820075edc30",
    "window:4d0dc8ecd47e9a23",
    "tick:3c4cd47646babc1d",
    "drained:554a9f6decf376ea",
    "tick:9a5236ac0a330e5e",
    "drained:0134b4e234d74003",
    "tick:cddbd1eb218cf8e8",
    "drained:108765461b87a68f",
]

RECONSTRUCTED_DIGESTS = {
    "event-01": (
        "303ff903a78e71ccf8b452fa55aa2e4638c8ebfa7017de0414cbbc15a81046f1"
    ),
    "event-02": (
        "b9ff1f19745af177480cb588fc707352c6a98f3b8931aaa64736661f73dbaa66"
    ),
    "event-03": (
        "61511bc380e0a1e30c6bf42f5997d6e8212156dcf7748d50dd2ea8e4ab95844b"
    ),
}

RECONSTRUCTED_COMBINED = (
    "ab57cd65e52b08e95f3624785126a1fabeacaee6b3d3eccd5817f8c0b4349492"
)


class TestServeStructure:
    def test_durable_contended_surge(self, setup, tmp_path):
        service = loadgen.build_service(
            setup, n_events=3, serve_dir=tmp_path
        )
        loadgen.drive(service)
        service.close()
        assert journal_records(tmp_path) == SURGE_RECORDS
        assert service.digests() == SURGE_DIGESTS
        assert service.combined_digest() == SURGE_COMBINED

    def test_durable_chaos_fleet(self, setup, tmp_path):
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
        assert journal_records(tmp_path) == CHAOS_RECORDS
        assert service.digests() == CHAOS_DIGESTS
        assert service.combined_digest() == CHAOS_COMBINED

    def test_reconstructed_tick_then_drain(self, setup, tmp_path):
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
        assert journal_records(tmp_path) == RECONSTRUCTED_RECORDS
        assert resumed.digests() == RECONSTRUCTED_DIGESTS
        assert resumed.combined_digest() == RECONSTRUCTED_COMBINED
