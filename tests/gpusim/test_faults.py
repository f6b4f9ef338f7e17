"""Fault-injection layer: determinism, ordinal keying, zero overhead."""

import json

import numpy as np
import pytest

from repro.errors import (
    DeviceLostError,
    FaultPlanError,
    FlakyAllocError,
    TransientDeviceError,
    TransientKernelError,
)
from repro.gpusim import Device, FaultEvent, FaultInjector, FaultPlan, load_fault_plan
from repro.gpusim.spec import DeviceSpec


def small_spec():
    return DeviceSpec(memory_bytes=1 << 20)


# ----------------------------------------------------------------------
# FaultEvent / FaultPlan validation
# ----------------------------------------------------------------------


def test_event_rejects_unknown_kind():
    with pytest.raises(FaultPlanError):
        FaultEvent(0, "launch", 0, "meteor-strike")


def test_event_rejects_wrong_hook():
    with pytest.raises(FaultPlanError):
        FaultEvent(0, "alloc", 0, "transient-kernel")
    with pytest.raises(FaultPlanError):
        FaultEvent(0, "launch", 0, "flaky-alloc")


@pytest.mark.parametrize(
    "device,ordinal",
    [(0, 2.5), (0.5, 0), (True, 0), (0, False), (0, "3"), (-1, 0), (0, -1)],
)
def test_event_rejects_an_address_that_is_not_a_non_negative_int(device, ordinal):
    with pytest.raises(FaultPlanError, match="non-negative integers"):
        FaultEvent(device, "launch", ordinal, "transient-kernel")


def test_device_lost_fires_on_either_hook():
    FaultEvent(0, "launch", 0, "device-lost")
    FaultEvent(0, "alloc", 0, "device-lost")


def test_plan_rejects_duplicate_slot():
    e = {"device": 0, "on": "launch", "ordinal": 3, "kind": "transient-kernel"}
    with pytest.raises(FaultPlanError):
        FaultPlan([e, dict(e, kind="device-lost")])


def test_plan_rejects_bad_rates():
    with pytest.raises(FaultPlanError):
        FaultPlan.from_rates(1, transient_kernel=1.5)
    with pytest.raises(FaultPlanError):
        FaultPlan.from_rates(1, devices=0)


# ----------------------------------------------------------------------
# determinism
# ----------------------------------------------------------------------


def test_from_rates_is_deterministic():
    kw = dict(
        devices=3,
        horizon=400,
        transient_kernel=0.02,
        device_lost=0.005,
        flaky_alloc=0.01,
    )
    a = FaultPlan.from_rates(42, **kw)
    b = FaultPlan.from_rates(42, **kw)
    assert [e.to_dict() for e in a.events] == [e.to_dict() for e in b.events]
    assert len(a.events) > 0


def test_from_rates_per_device_substreams():
    # adding a device must not reshuffle the existing devices' events
    one = FaultPlan.from_rates(9, devices=1, horizon=300, transient_kernel=0.05)
    two = FaultPlan.from_rates(9, devices=2, horizon=300, transient_kernel=0.05)
    dev0_of_two = [e.to_dict() for e in two.events if e.device == 0]
    assert [e.to_dict() for e in one.events] == dev0_of_two


def test_different_seeds_differ():
    kw = dict(horizon=500, transient_kernel=0.05)
    a = FaultPlan.from_rates(1, **kw)
    b = FaultPlan.from_rates(2, **kw)
    assert [e.to_dict() for e in a.events] != [e.to_dict() for e in b.events]


def test_plan_round_trip(tmp_path):
    plan = FaultPlan.from_rates(
        11, devices=2, horizon=200, transient_kernel=0.03, flaky_alloc=0.02
    )
    path = tmp_path / "plan.json"
    plan.save(path)
    loaded = load_fault_plan(path)
    assert loaded.seed == plan.seed
    assert [e.to_dict() for e in loaded.events] == [e.to_dict() for e in plan.events]


def test_load_rejects_bad_schema(tmp_path):
    path = tmp_path / "plan.json"
    path.write_text(json.dumps({"schema": "repro-fault-plan/99", "events": []}))
    with pytest.raises(FaultPlanError):
        load_fault_plan(path)


def test_load_rejects_unknown_keys(tmp_path):
    path = tmp_path / "plan.json"
    path.write_text(json.dumps({"events": [], "surprise": 1}))
    with pytest.raises(FaultPlanError):
        load_fault_plan(path)


def test_load_rejects_malformed_files(tmp_path):
    path = tmp_path / "plan.json"
    # bad JSON, bytes that are not UTF-8, an over-long integer
    for data in (b"{nope", b"\xff\xfe", b"9" * 5000):
        path.write_bytes(data)
        with pytest.raises(FaultPlanError, match="not valid JSON"):
            load_fault_plan(path)
    with pytest.raises(FaultPlanError, match="cannot read"):
        load_fault_plan(tmp_path / "absent.json")


def test_load_rejects_malformed_fields(tmp_path):
    path = tmp_path / "plan.json"
    for doc, match in (
        ({"seed": None}, "'seed' must be"),
        ({"seed": 1.5}, "'seed' must be"),
        ({"seed": 0, "events": ["ab"]}, "events must be objects"),
        ({"seed": 0, "events": [[["device", 0]]]}, "events must be objects"),
        ({"seed": 0, "rates": {"devices": "x"}}, "rates 'devices'"),
        ({"seed": 0, "rates": {"horizon": float("inf")}}, "rates 'horizon'"),
        ({"seed": 0, "rates": {"horizon": 1e30}}, "'horizon' must be an integer"),
        ({"seed": 0, "rates": {"devices": 2.7}}, "'devices' must be an integer"),
        ({"seed": 0, "rates": {"devices": 64, "horizon": 100000}}, "past the cap"),
        ({"seed": 0, "rates": {"devices": 0}}, "devices must be at least 1"),
        ({"seed": 0, "rates": {"transient_kernel": 1.5}}, "rate must be in"),
        (
            {"events": [{"device": 0, "on": "launch", "ordinal": 0, "kind": "nope"}]},
            "unknown fault kind 'nope'",
        ),
        (
            {"events": [{"device": 0, "on": "launch", "ordinal": 2.5,
                         "kind": "transient-kernel"}]},
            "ordinal must be non-negative integers",
        ),
        (
            {"events": [{"device": True, "on": "launch", "ordinal": 0,
                         "kind": "transient-kernel"}]},
            "ordinal must be non-negative integers",
        ),
    ):
        path.write_text(json.dumps(doc))
        with pytest.raises(FaultPlanError, match=match) as info:
            load_fault_plan(path)
        # every refusal names the plan file
        assert str(info.value).startswith(f"{path}: ")


def test_rates_key_materializes(tmp_path):
    path = tmp_path / "plan.json"
    path.write_text(
        json.dumps(
            {
                "seed": 5,
                "rates": {"transient_kernel": 0.05, "horizon": 300},
            }
        )
    )
    loaded = load_fault_plan(path)
    direct = FaultPlan.from_rates(5, horizon=300, transient_kernel=0.05)
    assert [e.to_dict() for e in loaded.events] == [e.to_dict() for e in direct.events]


# ----------------------------------------------------------------------
# injector semantics on a live device
# ----------------------------------------------------------------------


def test_launch_ordinal_keying():
    plan = FaultPlan([FaultEvent(0, "launch", 2, "transient-kernel")])
    d = Device(small_spec())
    d.set_fault_injector(plan.injector_for(0))
    d.launch(n_threads=4, name="k0")
    d.launch(n_threads=4, name="k1")
    with pytest.raises(TransientKernelError):
        d.launch(n_threads=4, name="k2")
    # transient: the very next launch succeeds
    d.launch(n_threads=4, name="k2-retry")
    assert d.fault_injector.injected["transient-kernel"] == 1


def test_empty_launches_do_not_advance_ordinals():
    plan = FaultPlan([FaultEvent(0, "launch", 1, "transient-kernel")])
    d = Device(small_spec())
    d.set_fault_injector(plan.injector_for(0))
    d.launch(n_threads=4, name="k0")  # ordinal 0
    d.launch(n_threads=0, name="empty")  # charges nothing, no ordinal
    d.launch(thread_costs=np.array([], dtype=np.int64), name="empty2")
    with pytest.raises(TransientKernelError):
        d.launch(n_threads=4, name="k1")  # ordinal 1


def test_alloc_ordinal_keying():
    plan = FaultPlan([FaultEvent(0, "alloc", 1, "flaky-alloc")])
    d = Device(small_spec())
    d.set_fault_injector(plan.injector_for(0))
    d.alloc(8, label="a0")
    with pytest.raises(FlakyAllocError):
        d.alloc(8, label="a1")
    # transient: retry succeeds and the pool was never charged
    arr = d.alloc(8, label="a1-retry")
    assert arr.nbytes > 0


def test_from_host_counts_as_alloc():
    plan = FaultPlan([FaultEvent(0, "alloc", 1, "flaky-alloc")])
    d = Device(small_spec())
    d.set_fault_injector(plan.injector_for(0))
    d.from_host(np.arange(4, dtype=np.int32))  # ordinal 0
    with pytest.raises(FlakyAllocError):
        d.from_host(np.arange(4, dtype=np.int32))  # ordinal 1


def test_flaky_alloc_is_transient_not_oom():
    assert issubclass(FlakyAllocError, TransientDeviceError)
    assert not issubclass(FlakyAllocError, MemoryError)


def test_device_lost_is_sticky():
    plan = FaultPlan([FaultEvent(0, "launch", 1, "device-lost")])
    d = Device(small_spec())
    d.set_fault_injector(plan.injector_for(0))
    d.launch(n_threads=4, name="k0")
    with pytest.raises(DeviceLostError):
        d.launch(n_threads=4, name="k1")
    assert d.lost
    with pytest.raises(DeviceLostError):
        d.launch(n_threads=4, name="k2")
    with pytest.raises(DeviceLostError):
        d.alloc(8)
    with pytest.raises(DeviceLostError):
        d.from_host(np.arange(2, dtype=np.int32))


def test_device_lost_on_alloc_hook():
    plan = FaultPlan([FaultEvent(0, "alloc", 0, "device-lost")])
    d = Device(small_spec())
    d.set_fault_injector(plan.injector_for(0))
    with pytest.raises(DeviceLostError):
        d.alloc(8)
    assert d.lost


def test_injector_for_other_device_is_none():
    plan = FaultPlan([FaultEvent(1, "launch", 0, "transient-kernel")])
    assert plan.injector_for(0) is None
    assert isinstance(plan.injector_for(1), FaultInjector)


def test_injector_ordinals_survive_device_replacement():
    # the pool re-installs the same injector on a replacement device;
    # later events must still land at their planned absolute ordinals
    plan = FaultPlan(
        [
            FaultEvent(0, "launch", 1, "device-lost"),
            FaultEvent(0, "launch", 3, "transient-kernel"),
        ]
    )
    inj = plan.injector_for(0)
    d = Device(small_spec())
    d.set_fault_injector(inj)
    d.launch(n_threads=4, name="k0")  # ordinal 0
    with pytest.raises(DeviceLostError):
        d.launch(n_threads=4, name="k1")  # ordinal 1 -> lost
    fresh = Device(small_spec())
    fresh.set_fault_injector(inj)
    fresh.launch(n_threads=4, name="k2")  # ordinal 2
    with pytest.raises(TransientKernelError):
        fresh.launch(n_threads=4, name="k3")  # ordinal 3


# ----------------------------------------------------------------------
# zero overhead by default
# ----------------------------------------------------------------------


def test_no_injector_model_times_exact():
    costs = np.arange(1, 513, dtype=np.int64)
    plain = Device(small_spec())
    hooked = Device(small_spec())
    hooked.set_fault_injector(None)
    for d in (plain, hooked):
        d.alloc(64, label="buf")
        d.launch(thread_costs=costs, name="work")
        d.launch(n_threads=100, thread_costs=3, name="uniform")
    assert plain.model_time_s == hooked.model_time_s
    assert plain.stats() == hooked.stats()


def test_benign_injector_does_not_change_model_time():
    # an injector whose events never fire observes but never charges
    plan = FaultPlan([FaultEvent(0, "launch", 10_000, "transient-kernel")])
    costs = np.arange(1, 257, dtype=np.int64)
    plain = Device(small_spec())
    hooked = Device(small_spec())
    hooked.set_fault_injector(plan.injector_for(0))
    for d in (plain, hooked):
        d.launch(thread_costs=costs, name="work")
    assert plain.model_time_s == hooked.model_time_s
