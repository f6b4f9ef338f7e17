"""The events a seed draws, pinned for both fault-plan formats.

The determinism tests compare two draws with each other; these values
were recorded once, so a change that draws different events (or
serializes them differently) on both sides still fails. The chaos
parity suites depend on these exact events.
"""

import hashlib
import json

import pytest

from repro.gpusim import FaultPlan, load_fault_plan
from repro.netchaos import NetFaultPlan, load_net_fault_plan

#: a device document mixing explicit events with integer-valued rates
DEVICE_DOCUMENT = {
    "schema": "repro-fault-plan/1",
    "seed": 5,
    "events": [
        {"device": 0, "on": "launch", "ordinal": 400, "kind": "device-lost"},
        {"device": 1, "on": "alloc", "ordinal": 401, "kind": "flaky-alloc"},
    ],
    "rates": {
        "devices": 2, "horizon": 64, "transient_kernel": 0.05,
        "device_lost": 0, "flaky_alloc": 1,
    },
}

#: a wire document mixing explicit events, integer partition bounds and
#: integer-valued rates (``delay_s`` 1 is drawn as the float 1.0)
WIRE_DOCUMENT = {
    "schema": "repro-net-fault-plan/1",
    "seed": 4,
    "events": [
        {"conn": 5, "direction": "c2s", "frame": 0, "kind": "cut", "at_byte": 3},
    ],
    "partitions": [{"start_s": 2, "duration_s": 1}],
    "rates": {
        "conns": 2, "frames": 128, "delay": 0.05, "stall": 0.05, "cut": 0,
        "delay_s": 1,
    },
}

PLANS = {
    "device-rates": lambda: FaultPlan.from_rates(
        7, devices=3, horizon=2000, transient_kernel=0.01, device_lost=0.001,
        flaky_alloc=0.01,
    ),
    "wire-rates": lambda: NetFaultPlan.from_rates(
        11, conns=3, frames=256, delay=0.02, stall=0.02, duplicate=0.02,
        truncate=0.02, cut=0.02, partitions=[{"start_s": 1.0, "duration_s": 0.5}],
    ),
    "device-document": lambda: FaultPlan.from_dict(DEVICE_DOCUMENT),
    "wire-document": lambda: NetFaultPlan.from_dict(WIRE_DOCUMENT),
}

#: plan -> (events, digest of ``to_dict()``, digest of the saved bytes)
RECORDED = {
    "device-rates": (119, "1a47c37218618679", "1ed479041c38b3f6"),
    "wire-rates": (156, "03bd1d65792cc8ff", "345c2115ab0da203"),
    "device-document": (135, "f3361036cef57fb6", "b6409670f22f95df"),
    "wire-document": (51, "62a5de6ad880c9d3", "be7311ed9b92fd6a"),
}


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


@pytest.mark.parametrize("name", sorted(PLANS))
def test_plan_matches_recording(name, tmp_path):
    count, dict_digest, file_digest = RECORDED[name]
    plan = PLANS[name]()
    assert len(plan) == count
    assert _digest(json.dumps(plan.to_dict(), sort_keys=True).encode()) == dict_digest
    path = tmp_path / "plan.json"
    plan.save(path)
    assert _digest(path.read_bytes()) == file_digest


@pytest.mark.parametrize(
    "document,load",
    [(DEVICE_DOCUMENT, load_fault_plan), (WIRE_DOCUMENT, load_net_fault_plan)],
    ids=["device", "wire"],
)
def test_documents_load_from_files(document, load, tmp_path):
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(document))
    plan = load(path)
    kind = type(plan)
    assert plan.to_dict() == kind.from_dict(document).to_dict()


def test_integer_rate_draws_a_float_delay():
    plan = PLANS["wire-document"]()
    delays = [e.delay_s for e in plan.events if e.kind in ("delay", "stall")]
    assert delays and all(type(d) is float and d == 1.0 for d in delays)
