"""What the pool members' schedulers account is pinned to a golden.

``member_accounting_golden.json`` holds, for the two pooled scenarios
of :mod:`tests.obs.test_observation_golden` (a parity pool with a
device kill and a write-back tier; open-loop serving on the same kind
of pool with a live monitor attached):

* each member's ``stream_report()``, ``stream_cache_report()`` and
  ``stream_fault_report()``;
* the pool owner's same three reports;
* the owner's ``device_report()``;
* the device-scoped ``dN.sched.*`` entries of the metrics snapshot.

Floats are written as ``float.hex()``, so any change to how a sub-op
is admitted, timed or accounted on its member moves the golden.
Regenerate with
``PYTHONPATH=src python tests/cluster/test_member_accounting_golden.py``
only when such a change is intended.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

from tests.obs.test_observation_golden import pool_scenario, serving_scenario

GOLDEN_PATH = Path(__file__).parent / "member_accounting_golden.json"

_DEVICE_SCHED = re.compile(r"^d\d+\.sched\.")


def _hexed(value):
    """``value`` with every float as ``float.hex()`` (JSON-stable)."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return {str(key): _hexed(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_hexed(item) for item in value]
    return value


def _reports(scheduler) -> dict:
    return {
        "streams": scheduler.stream_report(),
        "cache": scheduler.stream_cache_report(),
        "faults": scheduler.stream_fault_report(),
    }


def accounting(system, registry) -> dict:
    snapshot = registry.snapshot()
    return _hexed({
        "members": [_reports(member.scheduler)
                    for member in system._member_systems()],
        "owner": _reports(system.scheduler),
        "devices": system.device_report(),
        "sched_metrics": {
            section: {name: entry for name, entry in entries.items()
                      if _DEVICE_SCHED.match(name)}
            for section, entries in snapshot.items()},
    })


def run_pool() -> dict:
    system, _, registry = pool_scenario()
    return accounting(system, registry)


def run_serving() -> dict:
    system, _, registry, _ = serving_scenario()
    return accounting(system, registry)


SCENARIOS = {"pool/software-nds": run_pool,
             "serving/software-nds": run_serving}

GOLDEN = (json.loads(GOLDEN_PATH.read_text())
          if GOLDEN_PATH.exists() else {})


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_member_accounting_golden(name):
    assert json.loads(json.dumps(SCENARIOS[name]())) == GOLDEN[name]


def test_golden_pins_member_sched_metrics():
    """The golden is not vacuous: both scenarios ran sub-ops on more
    than one member, and the scoped probes recorded them."""
    for name in SCENARIOS:
        entry = GOLDEN[name]
        busy = [member for member in entry["members"] if member["streams"]]
        assert len(busy) >= 2, name
        assert any(key.endswith(".sched.ops")
                   for key in entry["sched_metrics"]["counters"]), name


def test_members_keep_no_sub_op():
    """Sub-ops run once through each member's ``run_subop``: the member
    accounts them on its streams but keeps none in ``executed``."""
    system, _, _ = pool_scenario()
    for member in system._member_systems():
        scheduler = member.scheduler
        assert scheduler.executed == []
        assert sum(handle.ops for handle in scheduler.streams.values()) > 0


if __name__ == "__main__":
    GOLDEN_PATH.write_text(json.dumps(
        {name: run() for name, run in sorted(SCENARIOS.items())},
        indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")
