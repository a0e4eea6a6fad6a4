"""The dispatch lifecycle matches the recorded golden fixture.

See :mod:`tests.dsa.dispatch_golden` for what is recorded and how to
re-record it.
"""

import json

from tests.dsa import dispatch_golden as golden


def test_manifest_pins_fixture():
    data = golden.FIXTURE.read_bytes()
    expected, name = golden.MANIFEST.read_text().split()
    assert name == golden.FIXTURE.name
    assert golden.digest(data) == expected


def test_dispatch_lifecycle_matches_fixture():
    assert golden.encode(golden.record_all()) == golden.FIXTURE.read_bytes()


def test_fixture_reaches_intended_configurations():
    """Guard against a re-record that silently loses coverage."""
    summary = json.loads(golden.FIXTURE.read_bytes())
    for name, body in summary.items():
        assert body["finding"] is None, name
        opcodes = {row[6] for row in body["tickets"]}
        assert {"DRAIN", "BATCH"} <= opcodes, name
    batch_engines = {
        row[2]
        for row in summary["batch-spread"]["tickets"]
        if row[1] is None and row[2] is not None
    }
    assert batch_engines == {0, 1, 2}
    two_group_engines = {row[2] for row in summary["two-groups"]["tickets"]}
    assert {0, 1, 2, 3} <= two_group_engines
