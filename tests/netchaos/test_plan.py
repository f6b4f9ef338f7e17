"""Schema, validation, and determinism of ``repro-net-fault-plan/1``."""

import json

import pytest

from repro.errors import NetFaultPlanError
from repro.netchaos import (
    DIRECTIONS,
    NET_FAULT_KINDS,
    NET_FAULT_PLAN_SCHEMA,
    NetFaultEvent,
    NetFaultPlan,
    Partition,
    load_net_fault_plan,
)


class TestEventValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(NetFaultPlanError, match="unknown net fault kind"):
            NetFaultEvent(conn=0, direction="c2s", frame=0, kind="gremlin")

    def test_unknown_direction_rejected(self):
        with pytest.raises(NetFaultPlanError, match="unknown direction"):
            NetFaultEvent(conn=0, direction="up", frame=0, kind="delay")

    def test_negative_address_rejected(self):
        with pytest.raises(NetFaultPlanError, match="non-negative"):
            NetFaultEvent(conn=-1, direction="c2s", frame=0, kind="cut")

    @pytest.mark.parametrize(
        "conn,frame", [(0, 1.5), (0.5, 0), (True, 0), (0, False), ("0", 0)]
    )
    def test_address_must_be_an_int(self, conn, frame):
        with pytest.raises(NetFaultPlanError, match="non-negative integers"):
            NetFaultEvent(conn=conn, direction="c2s", frame=frame, kind="duplicate")

    @pytest.mark.parametrize("at_byte", [1.5, True, -1])
    def test_split_offset_must_be_an_int(self, at_byte):
        with pytest.raises(NetFaultPlanError, match="at_byte"):
            NetFaultEvent(
                conn=0, direction="s2c", frame=0, kind="cut", at_byte=at_byte
            )

    @pytest.mark.parametrize("kind", ["delay", "stall"])
    def test_timed_kinds_need_positive_delay(self, kind):
        with pytest.raises(NetFaultPlanError, match="positive delay_s"):
            NetFaultEvent(conn=0, direction="c2s", frame=0, kind=kind)

    def test_cut_needs_no_delay(self):
        event = NetFaultEvent(conn=0, direction="s2c", frame=3, kind="cut",
                              at_byte=10)
        assert event.at_byte == 10

    def test_partition_validation(self):
        with pytest.raises(NetFaultPlanError, match="duration_s"):
            Partition(start_s=1.0, duration_s=0.0)
        with pytest.raises(NetFaultPlanError, match="start_s"):
            Partition(start_s=-1.0, duration_s=1.0)
        assert Partition(start_s=1.0, duration_s=2.0).end_s == 3.0


class TestPlanConstruction:
    def test_duplicate_address_rejected(self):
        events = [
            NetFaultEvent(conn=0, direction="c2s", frame=1, kind="duplicate"),
            NetFaultEvent(conn=0, direction="c2s", frame=1, kind="cut"),
        ]
        with pytest.raises(NetFaultPlanError, match="duplicate net fault"):
            NetFaultPlan(events)

    def test_event_lookup(self):
        plan = NetFaultPlan([
            NetFaultEvent(conn=1, direction="s2c", frame=2, kind="cut"),
        ])
        assert plan.event_for(1, "s2c", 2).kind == "cut"
        assert plan.event_for(1, "c2s", 2) is None
        assert plan.event_for(0, "s2c", 2) is None
        assert len(plan) == 1

    def test_partition_lookup_sorted_windows(self):
        plan = NetFaultPlan(partitions=[
            {"start_s": 5.0, "duration_s": 1.0},
            {"start_s": 1.0, "duration_s": 0.5},
        ])
        assert plan.partition_at(1.2).start_s == 1.0
        assert plan.partition_at(1.5) is None  # half-open window
        assert plan.partition_at(5.9).start_s == 5.0
        assert plan.partition_at(0.0) is None

    def test_events_accept_dicts(self):
        plan = NetFaultPlan([
            {"conn": 0, "direction": "c2s", "frame": 0, "kind": "delay",
             "delay_s": 0.1},
        ])
        assert plan.events[0].delay_s == 0.1


class TestFromRates:
    def test_same_seed_same_plan(self):
        kwargs = dict(conns=3, frames=128, delay=0.1, stall=0.05,
                      duplicate=0.1, truncate=0.02, cut=0.02)
        a = NetFaultPlan.from_rates(seed=11, **kwargs)
        b = NetFaultPlan.from_rates(seed=11, **kwargs)
        assert [e.to_dict() for e in a.events] == [e.to_dict() for e in b.events]
        c = NetFaultPlan.from_rates(seed=12, **kwargs)
        assert [e.to_dict() for e in a.events] != [e.to_dict() for e in c.events]

    def test_substreams_are_independent_per_conn(self):
        """Adding a connection never reshuffles existing streams."""
        small = NetFaultPlan.from_rates(seed=5, conns=2, frames=256,
                                        duplicate=0.2, cut=0.05)
        large = NetFaultPlan.from_rates(seed=5, conns=4, frames=256,
                                        duplicate=0.2, cut=0.05)
        small_events = [e.to_dict() for e in small.events]
        large_prefix = [e.to_dict() for e in large.events if e.conn < 2]
        assert small_events == large_prefix

    def test_one_fault_per_frame_and_rate_sanity(self):
        plan = NetFaultPlan.from_rates(seed=3, conns=2, frames=512,
                                       delay=0.3, stall=0.3, duplicate=0.3,
                                       truncate=0.3, cut=0.3)
        seen = set()
        for e in plan.events:
            key = (e.conn, e.direction, e.frame)
            assert key not in seen
            seen.add(key)
            assert e.kind in NET_FAULT_KINDS
            assert e.direction in DIRECTIONS
        # at ~79% combined hit rate the streams must carry plenty
        assert len(plan.events) > 1000

    def test_rate_validation(self):
        with pytest.raises(NetFaultPlanError, match="rate must be in"):
            NetFaultPlan.from_rates(seed=0, cut=1.5)
        with pytest.raises(NetFaultPlanError, match="conns"):
            NetFaultPlan.from_rates(seed=0, conns=0)
        with pytest.raises(NetFaultPlanError, match="delay_s"):
            NetFaultPlan.from_rates(seed=0, delay_s=0.0)


class TestSerialization:
    def test_roundtrip(self, tmp_path):
        plan = NetFaultPlan.from_rates(
            seed=9, conns=2, frames=64, duplicate=0.2, cut=0.1,
            partitions=[{"start_s": 0.5, "duration_s": 0.25}],
        )
        path = tmp_path / "plan.json"
        plan.save(path)
        loaded = load_net_fault_plan(path)
        assert loaded.to_dict() == plan.to_dict()
        assert loaded.to_dict()["schema"] == NET_FAULT_PLAN_SCHEMA

    def test_rates_key_materializes(self, tmp_path):
        path = tmp_path / "rates.json"
        path.write_text(json.dumps({
            "schema": NET_FAULT_PLAN_SCHEMA,
            "seed": 7,
            "rates": {"conns": 2, "frames": 64, "duplicate": 0.2},
        }))
        loaded = load_net_fault_plan(path)
        direct = NetFaultPlan.from_rates(seed=7, conns=2, frames=64,
                                         duplicate=0.2)
        assert [e.to_dict() for e in loaded.events] == \
            [e.to_dict() for e in direct.events]

    def test_bad_schema_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema": "repro-net-fault-plan/999"}))
        with pytest.raises(NetFaultPlanError, match="unsupported schema"):
            load_net_fault_plan(path)

    def test_unknown_keys_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema": NET_FAULT_PLAN_SCHEMA,
                                    "chaos": True}))
        with pytest.raises(NetFaultPlanError, match="unknown key"):
            load_net_fault_plan(path)

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        # bad JSON, bytes that are not UTF-8, an over-long integer
        for data in (b"{nope", b"\xff\xfe", b"9" * 5000):
            path.write_bytes(data)
            with pytest.raises(NetFaultPlanError, match="not valid JSON"):
                load_net_fault_plan(path)

    def test_malformed_fields_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        for doc, match in (
            ({"seed": None}, "'seed' must be"),
            ({"seed": "7"}, "'seed' must be"),
            ({"seed": 0, "events": ["ab"]}, "events must be objects"),
            ({"seed": 0, "rates": {"conns": "x"}}, "rates 'conns'"),
            ({"seed": 0, "rates": {"frames": None}}, "rates 'frames'"),
            ({"seed": 0, "rates": {"frames": 1e30}}, "'frames' must be an integer"),
            ({"seed": 0, "rates": {"conns": 1.5}}, "'conns' must be an integer"),
            ({"seed": 0, "rates": {"conns": 600, "frames": 1024}}, "past the cap"),
            ({"seed": 0, "rates": {"conns": 0}}, "conns must be at least 1"),
            ({"seed": 0, "rates": {"cut": 1.5}}, "rate must be in"),
            (
                {"events": [{"conn": 0, "direction": "c2s", "frame": 0,
                             "kind": "nope"}]},
                "unknown net fault kind 'nope'",
            ),
            ({"partitions": [{"start_s": 0.0, "duration_s": 0.0}]}, "duration_s"),
            (
                {"events": [{"conn": 0, "direction": "c2s", "frame": 1.5,
                             "kind": "duplicate"}]},
                "frame must be non-negative integers",
            ),
        ):
            path.write_text(json.dumps(doc))
            with pytest.raises(NetFaultPlanError, match=match) as info:
                load_net_fault_plan(path)
            # every refusal names the plan file
            assert str(info.value).startswith(f"{path}: ")

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(NetFaultPlanError, match="cannot read"):
            load_net_fault_plan(tmp_path / "absent.json")
