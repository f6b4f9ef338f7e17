"""Checkpoint/resume of the windowed search."""

import json

import numpy as np
import pytest

from repro.core import MaxCliqueSolver, SolverConfig, config_fingerprint
from repro.core.checkpoint import (
    CHECKPOINT_SCHEMA,
    SearchCheckpoint,
    load_checkpoint,
)
from repro.errors import CheckpointError, DeviceLostError
from repro.gpusim import Device, FaultEvent, FaultPlan
from repro.gpusim.spec import DeviceSpec
from repro.graph import generators as gen

MIB = 1 << 20


@pytest.fixture(scope="module")
def community():
    return gen.caveman_social(6, 40, p_in=0.35, seed=3)


@pytest.fixture(scope="module")
def spec():
    return DeviceSpec(memory_bytes=8 * MIB)


@pytest.fixture(scope="module")
def windowed_config():
    return SolverConfig(window_size=256)


@pytest.fixture(scope="module")
def baseline(community, spec, windowed_config):
    device = Device(spec)
    result = MaxCliqueSolver(community, windowed_config, device).solve()
    return result, device.stats().kernel_launches


# ----------------------------------------------------------------------
# schema round trip + validation
# ----------------------------------------------------------------------


class TestSchema:
    def test_round_trip(self, tmp_path):
        ckpt = SearchCheckpoint(
            graph_fingerprint="g" * 64,
            config_fingerprint="cfg",
            omega=5,
            best_clique=[1, 2, 3, 4, 5],
            pending=[(10, 20), (20, 40)],
            windows_done=3,
            total_windows=5,
        )
        path = tmp_path / "ckpt.json"
        ckpt.save(path)
        loaded = load_checkpoint(path)
        assert loaded == ckpt

    def test_schema_stamped(self):
        assert SearchCheckpoint().to_dict()["schema"] == CHECKPOINT_SCHEMA

    def test_rejects_wrong_schema(self):
        with pytest.raises(CheckpointError):
            SearchCheckpoint.from_dict({"schema": "repro-checkpoint/99"})

    def test_rejects_unknown_keys(self):
        with pytest.raises(CheckpointError):
            SearchCheckpoint.from_dict(
                {"schema": CHECKPOINT_SCHEMA, "surprise": 1}
            )

    def test_rejects_bad_pending(self):
        for pending in ([[1]], [[2, 1]], [[-1, 3]], ["ab"], [[1.5, 2]]):
            with pytest.raises(CheckpointError):
                SearchCheckpoint.from_dict(
                    {"schema": CHECKPOINT_SCHEMA, "pending": pending}
                )

    def test_rejects_corrupt_file(self, tmp_path):
        path = tmp_path / "bad.json"
        # bad JSON, bytes that are not UTF-8, an over-long integer,
        # nesting past the recursion limit
        for data in (b"{not json", b"\xff\xfe", b"9" * 5000, b"[" * 100_000):
            path.write_bytes(data)
            with pytest.raises(CheckpointError, match="not valid JSON"):
                load_checkpoint(path)

    def test_validate_for(self):
        ckpt = SearchCheckpoint(graph_fingerprint="aaa", config_fingerprint="bbb")
        ckpt.validate_for("aaa", "bbb")  # must not raise
        with pytest.raises(CheckpointError):
            ckpt.validate_for("zzz", "bbb")
        with pytest.raises(CheckpointError):
            ckpt.validate_for("aaa", "zzz")

    def test_unstamped_checkpoint_validates_anywhere(self):
        # the core layer leaves fingerprints empty; empty means unchecked
        SearchCheckpoint().validate_for("anything", "anything")

    def test_exhausted(self):
        assert SearchCheckpoint().exhausted
        assert not SearchCheckpoint(pending=[(0, 5)]).exhausted


# ----------------------------------------------------------------------
# sink capture during a windowed solve
# ----------------------------------------------------------------------


class TestSinkCapture:
    def test_sink_called_per_window(self, community, spec, windowed_config, baseline):
        result, _ = baseline
        sinks = []
        MaxCliqueSolver(
            community, windowed_config, Device(spec), checkpoint_sink=sinks.append
        ).solve()
        assert len(sinks) == len(result.windows)
        # monotone progress, fingerprints stamped, final one exhausted
        done = [c.windows_done for c in sinks]
        assert done == sorted(done) and done[-1] == len(result.windows)
        assert all(c.graph_fingerprint == community.fingerprint() for c in sinks)
        assert all(
            c.config_fingerprint == config_fingerprint(windowed_config)
            for c in sinks
        )
        assert sinks[-1].exhausted
        assert sinks[-1].omega == result.clique_number

    def test_no_sink_no_overhead(self, community, spec, windowed_config, baseline):
        _, launches = baseline
        device = Device(spec)
        MaxCliqueSolver(community, windowed_config, device).solve()
        assert device.stats().kernel_launches == launches

    def test_sink_does_not_change_model_time(
        self, community, spec, windowed_config, baseline
    ):
        result, _ = baseline
        device = Device(spec)
        sunk = MaxCliqueSolver(
            community, windowed_config, device, checkpoint_sink=lambda c: None
        ).solve()
        assert sunk.model_time_s == result.model_time_s

    def test_fanout_rejects_checkpointing(self, community, spec):
        config = SolverConfig(window_size=256, window_fanout=2)
        with pytest.raises(CheckpointError):
            MaxCliqueSolver(
                community, config, Device(spec), checkpoint_sink=lambda c: None
            ).solve()


# ----------------------------------------------------------------------
# interrupt + resume equivalence
# ----------------------------------------------------------------------


class TestResume:
    def _interrupt(self, community, spec, config, at_launch):
        plan = FaultPlan([FaultEvent(0, "launch", at_launch, "device-lost")])
        device = Device(spec)
        device.set_fault_injector(plan.injector_for(0))
        with pytest.raises(DeviceLostError) as err:
            MaxCliqueSolver(community, config, device).solve()
        return err.value.checkpoint

    def test_lost_device_carries_checkpoint(
        self, community, spec, windowed_config, baseline
    ):
        _, launches = baseline
        ckpt = self._interrupt(community, spec, windowed_config, launches // 2)
        assert ckpt is not None
        assert 0 < ckpt.windows_done < ckpt.total_windows
        assert not ckpt.exhausted
        assert ckpt.graph_fingerprint == community.fingerprint()
        assert ckpt.config_fingerprint == config_fingerprint(windowed_config)

    def test_resume_matches_uninterrupted(
        self, community, spec, windowed_config, baseline
    ):
        result, launches = baseline
        ckpt = self._interrupt(community, spec, windowed_config, launches // 2)
        resumed = MaxCliqueSolver(
            community, windowed_config, Device(spec), checkpoint=ckpt
        ).solve()
        assert resumed.clique_number == result.clique_number
        assert np.array_equal(resumed.cliques, result.cliques)
        # only the remaining windows ran
        assert len(resumed.windows) == len(ckpt.pending)

    def test_resume_through_json(self, community, spec, windowed_config, baseline):
        result, launches = baseline
        ckpt = self._interrupt(community, spec, windowed_config, launches // 2)
        rt = SearchCheckpoint.from_dict(json.loads(json.dumps(ckpt.to_dict())))
        resumed = MaxCliqueSolver(
            community, windowed_config, Device(spec), checkpoint=rt
        ).solve()
        assert resumed.clique_number == result.clique_number
        assert np.array_equal(resumed.cliques, result.cliques)

    def test_resume_rejects_other_graph(
        self, community, spec, windowed_config, baseline
    ):
        _, launches = baseline
        ckpt = self._interrupt(community, spec, windowed_config, launches // 2)
        other = gen.caveman_social(5, 30, p_in=0.4, seed=9)
        with pytest.raises(CheckpointError):
            MaxCliqueSolver(
                other, windowed_config, Device(spec), checkpoint=ckpt
            ).solve()

    def test_resume_rejects_other_config(
        self, community, spec, windowed_config, baseline
    ):
        _, launches = baseline
        ckpt = self._interrupt(community, spec, windowed_config, launches // 2)
        with pytest.raises(CheckpointError):
            MaxCliqueSolver(
                community,
                SolverConfig(window_size=128),
                Device(spec),
                checkpoint=ckpt,
            ).solve()

    def test_host_only_knobs_do_not_invalidate(
        self, community, spec, windowed_config, baseline
    ):
        result, launches = baseline
        ckpt = self._interrupt(community, spec, windowed_config, launches // 2)
        retuned = SolverConfig(window_size=256, chunk_pairs=1 << 10)
        resumed = MaxCliqueSolver(
            community, retuned, Device(spec), checkpoint=ckpt
        ).solve()
        assert resumed.clique_number == result.clique_number

    def test_exhausted_checkpoint_returns_its_best(
        self, community, spec, windowed_config
    ):
        sinks = []
        result = MaxCliqueSolver(
            community, windowed_config, Device(spec), checkpoint_sink=sinks.append
        ).solve()
        final = sinks[-1]
        assert final.exhausted
        replay = MaxCliqueSolver(
            community, windowed_config, Device(spec), checkpoint=final
        ).solve()
        assert replay.clique_number == result.clique_number
        assert len(replay.windows) == 0  # no window re-ran

    def test_early_interrupt_has_no_completed_windows(
        self, community, spec, windowed_config
    ):
        # lost on the very first charged launch: checkpoint exists but
        # records zero completed windows (resume restarts from scratch)
        ckpt = self._interrupt(community, spec, windowed_config, 0)
        assert ckpt is None or ckpt.windows_done == 0
