"""SolveService end-to-end: caching, admission, the degradation ladder."""

import pytest

from repro.core.config import SolverConfig
from repro.core.solver import MaxCliqueSolver
from repro.errors import DeviceOOMError
from repro.gpusim import Device, DeviceSpec
from repro.graph import generators as gen
from repro.service import SolveService
from repro.trace import JsonTracer

MIB = 1 << 20


@pytest.fixture(scope="module")
def community():
    """Small community graph solved comfortably at any sane budget."""
    return gen.caveman_social(6, 40, p_in=0.35, seed=3)


@pytest.fixture(scope="module")
def community_omega(community):
    return MaxCliqueSolver(community, SolverConfig(), Device()).solve().clique_number


@pytest.fixture(scope="module")
def monster():
    """fb-comm-20x130-sized graph: full search OOMs below ~100 GiB
    projected, windowed succeeds at a few MiB."""
    return gen.caveman_social(20, 130, p_in=0.48, seed=11)


class TestBasics:
    def test_single_job_ok(self, community, community_omega):
        service = SolveService()
        record = service.solve(community)
        assert record.ok and record.status == "ok"
        assert record.clique_number == community_omega
        assert record.attempts == 1
        assert record.admission == "full"
        assert record.cache_hit is False
        assert record.device == 0
        assert record.model_time_s > 0.0
        assert record.result is not None

    def test_record_carries_stage_breakdown(self, community):
        record = SolveService().solve(community)
        assert set(record.stage_model_times) >= {"csr_upload", "setup", "bfs"}
        assert record.model_time_s == pytest.approx(
            sum(record.stage_model_times.values())
        )

    def test_job_ids_and_pending(self, community):
        service = SolveService()
        assert service.submit_graph(community) == "job-0"
        assert service.submit_graph(community, job_id="mine") == "mine"
        assert service.pending == 2
        records = service.run()
        assert service.pending == 0
        assert [r.job_id for r in records] == ["job-0", "mine"]

    def test_submit_graph_rejects_conflicting_args(self, community):
        with pytest.raises(ValueError):
            SolveService().submit_graph(
                community, SolverConfig(), heuristic="none"
            )

    def test_to_dict_is_json_safe(self, community):
        import json

        record = SolveService().solve(community)
        payload = record.to_dict()
        json.dumps(payload)  # must not raise
        assert payload["status"] == "ok"
        assert "result" not in payload
        assert payload["stage_model_times_s"] == record.stage_model_times


class TestCache:
    def test_duplicate_request_hits_cache(self, community):
        tracer = JsonTracer()
        service = SolveService(tracer=tracer)
        service.submit_graph(community)
        service.submit_graph(community)
        first, second = service.run()
        assert first.cache_hit is False and second.cache_hit is True
        # the hit charges zero device model time and runs nothing
        assert second.model_time_s == 0.0
        assert second.attempts == 0
        assert second.admission == "cache"
        assert second.clique_number == first.clique_number
        assert second.stage_model_times == first.stage_model_times
        assert tracer.counters["service.cache.hits"] == 1
        assert tracer.counters["service.cache.misses"] == 1
        # device clock did not move for the cached job
        assert service.pool.total_model_s == pytest.approx(first.model_time_s)

    def test_equal_content_different_instance_hits(self, community):
        twin = gen.caveman_social(6, 40, p_in=0.35, seed=3)
        service = SolveService()
        service.submit_graph(community)
        service.submit_graph(twin)
        assert [r.cache_hit for r in service.run()] == [False, True]

    def test_different_config_misses(self, community):
        service = SolveService()
        service.submit_graph(community)
        service.submit_graph(community, heuristic="none")
        assert [r.cache_hit for r in service.run()] == [False, False]

    def test_cache_disabled(self, community):
        service = SolveService(cache_size=0)
        service.submit_graph(community)
        service.submit_graph(community)
        assert [r.cache_hit for r in service.run()] == [False, False]

    def test_failed_jobs_not_cached(self, community):
        def explode(request, attempt, config):
            raise DeviceOOMError(requested=1, in_use=0, budget=0)

        service = SolveService(fault_hook=explode, max_attempts=2)
        assert service.solve(community).status == "failed"
        service.fault_hook = None
        record = service.solve(community)
        assert record.status == "ok" and record.cache_hit is False


class TestAdmission:
    def test_over_budget_graph_admitted_windowed(self, monster):
        # the full search OOMs at this budget (the admission estimate
        # projects ~90 GiB); the service must land it windowed instead
        service = SolveService(spec=DeviceSpec(memory_bytes=4 * MIB))
        record = service.solve(monster)
        assert record.status == "ok"
        assert record.admission == "windowed"
        assert record.attempts == 1  # admitted right the first time
        assert record.clique_number == 10
        assert record.degraded  # single clique, not full enumeration
        assert "windowed" in record.stage_model_times

    def test_hopeless_budget_rejected(self, monster):
        tracer = JsonTracer()
        service = SolveService(
            spec=DeviceSpec(memory_bytes=MIB), tracer=tracer
        )
        record = service.solve(monster)
        assert record.status == "rejected"
        assert not record.ok
        assert record.attempts == 0  # refused before any launch
        assert record.device is None
        assert "exceeds" in record.admission_reason
        assert service.pool.total_model_s == 0.0
        assert tracer.counters["service.admit.reject"] == 1
        assert tracer.counters["service.jobs.rejected"] == 1

    def test_summary_counts(self, community, monster):
        service = SolveService(spec=DeviceSpec(memory_bytes=8 * MIB))
        service.submit_graph(community)
        service.submit_graph(community)
        service.submit_graph(monster)
        service.run()
        summary = service.summary()
        assert summary.total == 3
        assert summary.ok == 3
        assert summary.cache_hits == 1
        assert summary.rejected == summary.failed == 0
        assert summary.model_time_s > 0.0
        assert summary.to_dict()["devices"] == 1


class TestDegradationLadder:
    def test_injected_oom_retries_windowed(self, community, community_omega):
        """First attempt OOMs; the ladder lands the job windowed."""
        failed = []

        def fail_first(request, attempt, config):
            if attempt == 1:
                failed.append(request.job_id)
                raise DeviceOOMError(requested=MIB, in_use=0, budget=MIB)

        tracer = JsonTracer()
        service = SolveService(fault_hook=fail_first, tracer=tracer)
        record = service.solve(community)
        assert failed == [record.job_id]
        assert record.status == "ok"
        assert record.attempts == 2
        assert record.degraded
        assert record.clique_number == community_omega
        assert "windowed" in record.stage_model_times
        assert tracer.counters["service.retries"] == 1

    def test_max_attempts_exhausts(self, community):
        def always(request, attempt, config):
            raise DeviceOOMError(requested=MIB, in_use=0, budget=MIB)

        service = SolveService(fault_hook=always, max_attempts=2)
        record = service.solve(community)
        assert record.status == "failed"
        assert record.attempts == 2
        assert "DeviceOOMError" in record.error
        assert record.clique_number is None

    def test_real_oom_degrades_without_injection(self, monster):
        """A genuinely over-budget *windowed* request (caller pinned a
        huge window) OOMs for real and is retried smaller."""
        service = SolveService(spec=DeviceSpec(memory_bytes=4 * MIB))
        record = service.solve(
            monster, SolverConfig(window_size=200000, enumerate_all=False)
        )
        assert record.status == "ok"
        assert record.attempts >= 2
        assert record.degraded
        assert record.clique_number == 10


class TestPoolScheduling:
    def test_jobs_spread_across_devices(self, community):
        other = gen.caveman_social(6, 40, p_in=0.35, seed=4)
        service = SolveService(devices=2)
        service.submit_graph(community)
        service.submit_graph(other)
        records = service.run()
        assert sorted(r.device for r in records) == [0, 1]
        summary = service.summary()
        assert summary.makespan_model_s < summary.model_time_s

    def test_sef_runs_cheap_job_first(self, community):
        tiny = gen.road_grid(5, 5)
        service = SolveService(policy="sef")
        service.submit_graph(community, label="big")
        service.submit_graph(tiny, label="small")
        records = service.run()
        assert [r.label for r in records] == ["small", "big"]

    def test_service_span_emitted(self, community):
        tracer = JsonTracer()
        service = SolveService(tracer=tracer)
        service.solve(community)
        spans = [s for s in tracer.spans if s.name == "service.job"]
        assert len(spans) == 1
        assert spans[0].category == "service"
        assert spans[0].attrs["admission"] == "full"


class TestCacheHygiene:
    def test_degraded_record_not_cached(self, community):
        """A degraded answer must not be served for the pristine key."""

        def fail_first(request, attempt, config):
            if request.job_id == "job-0" and attempt == 1:
                raise DeviceOOMError(requested=MIB, in_use=0, budget=MIB)

        service = SolveService(fault_hook=fail_first)
        degraded = service.solve(community)
        assert degraded.status == "ok" and degraded.degraded

        # identical request again: the degraded record must NOT answer it
        service.fault_hook = None
        clean = service.solve(community)
        assert clean.cache_hit is False
        assert not clean.degraded
        assert clean.clique_number == degraded.clique_number

        # the clean record IS cached for the third round
        assert service.solve(community).cache_hit is True


class TestDeviceHygiene:
    def test_retry_starts_from_clean_device_state(self, monster):
        """Each ladder attempt sees zero residual allocations and a
        reset peak -- shared-device accounting must not leak across a
        failed attempt."""
        snapshots = []
        service = SolveService(spec=DeviceSpec(memory_bytes=4 * MIB))
        device = service.pool.devices[0]

        def spy(request, attempt, config):
            snapshots.append(
                (attempt, device.pool.in_use_bytes, device.pool.peak_bytes)
            )

        service.fault_hook = spy
        record = service.solve(
            monster, SolverConfig(window_size=200000, enumerate_all=False)
        )
        assert record.status == "ok"
        assert len(snapshots) >= 2  # a real OOM forced at least one retry
        assert all(in_use == 0 for _, in_use, _ in snapshots)
        assert all(peak == 0 for _, _, peak in snapshots)
        # nothing leaked past the job either
        assert device.pool.in_use_bytes == 0


class TestLadderEdges:
    def test_max_attempts_one_never_consults_ladder(self, community):
        def explode(request, attempt, config):
            raise DeviceOOMError(requested=MIB, in_use=0, budget=MIB)

        tracer = JsonTracer()
        service = SolveService(
            fault_hook=explode, max_attempts=1, tracer=tracer
        )

        def forbidden(config, error):  # pragma: no cover - must not run
            raise AssertionError("ladder consulted despite max_attempts=1")

        service.degradation.next_config = forbidden
        record = service.solve(community)
        assert record.status == "failed"
        assert record.attempts == 1
        assert not record.degraded
        assert "service.retries" not in tracer.counters

    def test_adaptive_single_sublist_oom_is_terminal(self):
        """Adaptive windowing splits down to single sublists; a sublist
        whose own subtree exceeds the budget still OOMs, and the
        service records a clean terminal failure (OOM is a workload
        outcome, not a device fault)."""
        dense = gen.planted_clique(300, 40, avg_degree=2.0, seed=5)
        service = SolveService(spec=DeviceSpec(memory_bytes=2 * MIB))
        record = service.solve(
            dense,
            SolverConfig(
                window_size=32,
                adaptive_windowing=True,
                enumerate_all=False,
                heuristic="none",
            ),
        )
        assert record.status == "failed"
        assert "DeviceOOMError" in record.error
        # already at the ladder's bottom rung: one attempt, no retry
        assert record.attempts == 1
        # the breaker must not trip on OOM
        assert service.pool.health[0].state == "healthy"
        assert service.pool.health[0].total_faults == 0
        # nothing leaked out of the failed job
        assert service.pool.devices[0].pool.in_use_bytes == 0


class TestTimeout:
    def test_default_timeout_applies(self, monster):
        service = SolveService(
            spec=DeviceSpec(memory_bytes=64 * MIB),
            default_timeout_s=1e-6,
            max_attempts=1,
        )
        record = service.solve(monster, SolverConfig(heuristic="none"))
        assert record.status == "failed"
        assert "SolveTimeoutError" in record.error

    def test_per_request_timeout_overrides_default(self, community):
        service = SolveService(default_timeout_s=1e-6)
        record = service.solve(community, timeout_s=60.0)
        assert record.status == "ok"

    @pytest.mark.parametrize("timeout_s", [0, -1.0, float("inf"), True])
    def test_bad_default_timeout_refused_at_construction(self, timeout_s):
        with pytest.raises(ValueError, match="default_timeout_s"):
            SolveService(default_timeout_s=timeout_s)


class TestStatsSnapshot:
    def test_fresh_service(self):
        snap = SolveService(devices=2).stats_snapshot()
        assert snap["jobs"]["total"] == 0
        assert snap["pending"] == 0
        assert snap["cache"] == {
            "hits": 0, "misses": 0, "evictions": 0, "size": 0, "capacity": 128,
        }
        assert snap["pool"]["devices"] == 2
        assert snap["pool"]["device_faults"] == 0
        assert len(snap["pool"]["health"]) == 2

    def test_counts_outcomes_and_cache(self, community):
        service = SolveService()
        service.solve(community)
        service.solve(community)  # identical: result-cache hit
        service.submit_graph(community, config=SolverConfig(heuristic="none"))
        snap = service.stats_snapshot()
        assert snap["jobs"]["total"] == 2
        assert snap["jobs"]["ok"] == 2
        assert snap["jobs"]["cache_hits"] == 1
        assert snap["cache"]["hits"] == 1
        assert snap["cache"]["misses"] == 1
        assert snap["cache"]["size"] == 1
        assert snap["pending"] == 1  # the submitted-but-unrun job
        assert snap["model_time_s"] > 0.0

    def test_snapshot_is_a_copy(self, community):
        service = SolveService()
        service.solve(community)
        snap = service.stats_snapshot()
        snap["jobs"]["total"] = 999
        snap["pool"]["health"].clear()
        fresh = service.stats_snapshot()
        assert fresh["jobs"]["total"] == 1
        assert len(fresh["pool"]["health"]) == 1

    def test_concurrent_reads_while_batch_runs(self, community):
        """stats_snapshot must be callable from another thread mid-run."""
        import threading
        import time as _time

        service = SolveService(
            fault_hook=lambda request, attempt, config: _time.sleep(0.05)
        )
        for _ in range(4):
            service.submit_graph(community)
        snaps = []
        stop = threading.Event()

        def _poll():
            while not stop.is_set():
                snaps.append(service.stats_snapshot())
                _time.sleep(0.01)

        poller = threading.Thread(target=_poll)
        poller.start()
        try:
            service.run()
        finally:
            stop.set()
            poller.join(5.0)
        assert snaps, "poller never ran"
        totals = [s["jobs"]["total"] for s in snaps]
        assert totals == sorted(totals)  # monotone, never corrupt
        final = service.stats_snapshot()
        assert final["jobs"]["total"] == 4
        assert final["jobs"]["ok"] == 4
