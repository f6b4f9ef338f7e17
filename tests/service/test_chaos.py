"""Chaos harness: seeded faults must never change an answer.

A fault plan injects transient kernel faults, flaky allocations, and
device loss into the pool; the service absorbs them through same-config
retries, checkpoint resume, and migration. Every test here asserts the
chaos run is EQUIVALENT to the fault-free run -- same statuses, same
omega, same counts, same witness cliques -- with only the fault/retry/
migration accounting differing.
"""

import numpy as np
import pytest

from repro.core import MaxCliqueSolver, SolverConfig
from repro.errors import DeviceLostError, TransientKernelError
from repro.gpusim import Device, FaultEvent, FaultPlan
from repro.gpusim.spec import DeviceSpec
from repro.graph import generators as gen
from repro.service import DegradationPolicy, DevicePool, SolveService
from repro.service.pool import HEALTHY, PROBATION, QUARANTINED
from repro.trace import JsonTracer

MIB = 1 << 20


@pytest.fixture(scope="module")
def community():
    return gen.caveman_social(6, 40, p_in=0.35, seed=3)


@pytest.fixture(scope="module")
def planted():
    return gen.planted_clique(600, 9, avg_degree=5.0, seed=7)


@pytest.fixture(scope="module")
def spec():
    return DeviceSpec(memory_bytes=8 * MIB)


@pytest.fixture(scope="module")
def community_launches(community, spec):
    """Charged launches of the fault-free windowed community solve."""
    device = Device(spec)
    MaxCliqueSolver(community, SolverConfig(window_size=256), device).solve()
    return device.stats().kernel_launches


def _run(jobs, spec, fault_plan=None, devices=2, **svc_kwargs):
    tracer = JsonTracer()
    svc = SolveService(
        devices=devices,
        spec=spec,
        cache_size=0,
        tracer=tracer,
        fault_plan=fault_plan,
        **svc_kwargs,
    )
    for graph, config in jobs:
        svc.submit_graph(graph, config)
    records = svc.run()
    return records, tracer, svc


def _signatures(records):
    """Everything about a run that faults must NOT change."""
    return [
        (
            r.job_id,
            r.status,
            r.clique_number,
            r.num_maximum_cliques,
            r.enumerated_all,
            None if r.result is None else np.asarray(r.result.cliques).tolist(),
        )
        for r in records
    ]


class TestChaosEquivalence:
    def test_device_lost_migrates_and_matches(
        self, community, spec, community_launches
    ):
        jobs = [(community, SolverConfig(window_size=256))]
        clean, _, _ = _run(jobs, spec)
        plan = FaultPlan(
            [FaultEvent(0, "launch", community_launches // 3, "device-lost")]
        )
        chaos, tracer, svc = _run(jobs, spec, fault_plan=plan)

        assert _signatures(chaos) == _signatures(clean)
        assert chaos[0].migrations == 1
        assert chaos[0].device == 1  # landed on the healthy device
        assert tracer.counters["service.faults.device_lost"] == 1
        assert tracer.counters["device.0.faults.device_lost"] == 1
        assert tracer.counters["service.migrations"] == 1
        assert tracer.counters["service.checkpoint.resumes"] >= 1
        spans = [s for s in tracer.spans if s.name == "service.migrations"]
        assert len(spans) == 1
        assert spans[0].attrs["from_device"] == 0
        assert spans[0].attrs["to_device"] == 1
        assert spans[0].attrs["resumed_from_checkpoint"] is True
        # the lost device tripped its breaker
        assert svc.pool.health[0].state == QUARANTINED
        assert svc.summary().migrations == 1

    def test_transient_kernel_resumes_mid_sweep(
        self, community, spec, community_launches
    ):
        jobs = [(community, SolverConfig(window_size=256))]
        clean, _, _ = _run(jobs, spec)
        plan = FaultPlan(
            [
                FaultEvent(
                    0, "launch", community_launches // 2, "transient-kernel"
                )
            ]
        )
        chaos, tracer, svc = _run(jobs, spec, fault_plan=plan)

        assert _signatures(chaos) == _signatures(clean)
        assert chaos[0].transient_retries == 1
        assert chaos[0].migrations == 0
        assert tracer.counters["service.faults.transient_kernel"] == 1
        assert tracer.counters["service.retries.transient"] == 1
        # mid-sweep fault: the retry resumed from a completed window
        # instead of restarting the sweep
        assert tracer.counters["service.checkpoint.resumes"] >= 1
        assert tracer.counters["search.checkpoint.resumed"] >= 1
        # one transient fault must not trip the breaker
        assert svc.pool.health[0].state == HEALTHY

    def test_flaky_alloc_retries_and_matches(self, community, spec):
        jobs = [(community, SolverConfig(window_size=256))]
        clean, _, _ = _run(jobs, spec)
        plan = FaultPlan([FaultEvent(0, "alloc", 4, "flaky-alloc")])
        chaos, tracer, _ = _run(jobs, spec, fault_plan=plan)

        assert _signatures(chaos) == _signatures(clean)
        assert chaos[0].transient_retries == 1
        assert not chaos[0].degraded  # flaky alloc is not an OOM rung
        assert tracer.counters["service.faults.flaky_alloc"] == 1
        assert tracer.counters["device.0.faults.flaky_alloc"] == 1

    def test_mixed_plan_multi_job(
        self, community, planted, spec, community_launches
    ):
        jobs = [
            (community, SolverConfig(window_size=256)),
            (planted, SolverConfig(window_size=512)),
            (planted, SolverConfig(enumerate_all=False)),
        ]
        clean, _, _ = _run(jobs, spec)
        plan = FaultPlan(
            [
                FaultEvent(0, "launch", community_launches // 3, "device-lost"),
                FaultEvent(1, "launch", 5, "transient-kernel"),
                FaultEvent(1, "alloc", 9, "flaky-alloc"),
            ]
        )
        chaos, tracer, svc = _run(jobs, spec, fault_plan=plan)

        assert all(r.status == "ok" for r in chaos)
        assert _signatures(chaos) == _signatures(clean)
        summary = svc.summary()
        assert summary.migrations >= 1
        assert summary.transient_retries >= 2
        assert summary.device_faults == 3
        assert tracer.counters["service.migrations"] >= 1
        assert tracer.counters["service.checkpoint.resumes"] >= 1

    @pytest.mark.parametrize("seed", [11, 22, 33])
    def test_seeded_rate_plans_match(self, community, planted, spec, seed):
        jobs = [
            (community, SolverConfig(window_size=256)),
            (planted, SolverConfig(window_size=512)),
            # concurrent windows: the fused launch schedule
            (community, SolverConfig(window_size=128, window_fanout=3)),
        ]
        clean, _, _ = _run(jobs, spec)
        plan = FaultPlan.from_rates(
            seed,
            devices=2,
            horizon=2000,
            transient_kernel=0.01,
            flaky_alloc=0.02,
            device_lost=0.002,
        )
        # generous budgets: the harness asserts the service can absorb
        # every injected fault, not that the budgets are tight
        chaos, _, svc = _run(
            jobs,
            spec,
            fault_plan=plan,
            degradation=DegradationPolicy(
                max_transient_retries=64, max_migrations=16
            ),
        )

        assert _signatures(chaos) == _signatures(clean)
        # the plan must actually have fired, or this test proves nothing
        assert svc.summary().device_faults >= 1
        fused = chaos[2]
        assert fused.transient_retries + fused.migrations >= 1

    def test_fault_free_plan_is_invisible(self, community, spec):
        jobs = [(community, SolverConfig(window_size=256))]
        clean, _, clean_svc = _run(jobs, spec)
        # faults far beyond the run's ordinal range: never fire
        plan = FaultPlan([FaultEvent(0, "launch", 10**9, "device-lost")])
        chaos, tracer, svc = _run(jobs, spec, fault_plan=plan)

        assert _signatures(chaos) == _signatures(clean)
        assert chaos[0].model_time_s == clean[0].model_time_s
        assert svc.summary().device_faults == 0
        assert "service.faults.device_lost" not in tracer.counters


class TestChaosBudgets:
    def test_transient_budget_exhaustion_fails_job(self, community, spec):
        # four faults on successive launches against a budget of three
        plan = FaultPlan(
            [
                FaultEvent(0, "launch", k, "transient-kernel")
                for k in (5, 6, 7, 8)
            ]
        )
        chaos, _, _ = _run(
            jobs=[(community, SolverConfig(window_size=256))],
            spec=spec,
            devices=1,
            fault_plan=plan,
            degradation=DegradationPolicy(max_transient_retries=3),
        )
        assert chaos[0].status == "failed"
        assert chaos[0].transient_retries == 3
        assert "TransientKernelError" in chaos[0].error

    def test_migration_budget_exhaustion_fails_job(self, community, spec):
        plan = FaultPlan(
            [
                FaultEvent(0, "launch", 5, "device-lost"),
                FaultEvent(1, "launch", 5, "device-lost"),
            ]
        )
        chaos, _, _ = _run(
            jobs=[(community, SolverConfig(window_size=256))],
            spec=spec,
            fault_plan=plan,
            degradation=DegradationPolicy(max_migrations=1),
        )
        assert chaos[0].status == "failed"
        assert chaos[0].migrations == 1
        assert "DeviceLostError" in chaos[0].error


class TestThreadedChaosParity:
    """Chaos runs under ``executor="threaded"`` are byte-equivalent to serial.

    Installed fault injectors (and the recording tracer) make the
    threaded executor run the batch on the serial executor, so every retry,
    migration, and breaker transition must land identically -- only
    host wall time may differ.
    """

    @staticmethod
    def _strip_wall(record):
        d = record.to_dict()
        d.pop("wall_time_s", None)
        return d

    def _run_pair(self, jobs, spec, fault_plan, **svc_kwargs):
        serial = _run(jobs, spec, fault_plan=fault_plan, **svc_kwargs)
        threaded = _run(
            jobs,
            spec,
            fault_plan=fault_plan,
            executor="threaded",
            workers=2,
            **svc_kwargs,
        )
        s_recs, s_tracer, s_svc = serial
        t_recs, t_tracer, t_svc = threaded
        assert [self._strip_wall(r) for r in t_recs] == [
            self._strip_wall(r) for r in s_recs
        ]
        assert t_tracer.counters == s_tracer.counters
        assert [s.name for s in t_tracer.spans] == [s.name for s in s_tracer.spans]
        assert [h.state for h in t_svc.pool.health] == [
            h.state for h in s_svc.pool.health
        ]
        t_sum, s_sum = t_svc.summary().to_dict(), s_svc.summary().to_dict()
        t_sum.pop("wall_time_s", None)
        s_sum.pop("wall_time_s", None)
        assert t_sum == s_sum
        return s_recs, t_recs, t_svc

    def test_device_lost_migration_parity(
        self, community, spec, community_launches
    ):
        jobs = [(community, SolverConfig(window_size=256))]
        plan = FaultPlan(
            [FaultEvent(0, "launch", community_launches // 3, "device-lost")]
        )
        _s, chaos, svc = self._run_pair(jobs, spec, plan)
        assert chaos[0].migrations == 1
        assert svc.pool.health[0].state == QUARANTINED

    def test_mixed_fault_plan_parity(
        self, community, planted, spec, community_launches
    ):
        jobs = [
            (community, SolverConfig(window_size=256)),
            (planted, SolverConfig(window_size=512)),
            (planted, SolverConfig(enumerate_all=False)),
        ]
        plan = FaultPlan(
            [
                FaultEvent(0, "launch", community_launches // 3, "device-lost"),
                FaultEvent(1, "launch", 5, "transient-kernel"),
                FaultEvent(1, "alloc", 9, "flaky-alloc"),
            ]
        )
        _s, chaos, svc = self._run_pair(jobs, spec, plan)
        assert all(r.status == "ok" for r in chaos)
        assert svc.summary().device_faults == 3

    def test_seeded_rate_plan_parity(self, community, planted, spec):
        jobs = [
            (community, SolverConfig(window_size=256)),
            (planted, SolverConfig(window_size=512)),
        ]
        plan = FaultPlan.from_rates(
            17,
            devices=2,
            horizon=2000,
            transient_kernel=0.01,
            flaky_alloc=0.02,
            device_lost=0.002,
        )
        _s, _t, svc = self._run_pair(
            jobs,
            spec,
            plan,
            degradation=DegradationPolicy(
                max_transient_retries=64, max_migrations=16
            ),
        )
        assert svc.summary().device_faults >= 1

    def test_budget_exhaustion_parity(self, community, spec):
        plan = FaultPlan(
            [
                FaultEvent(0, "launch", k, "transient-kernel")
                for k in (5, 6, 7, 8)
            ]
        )
        _s, chaos, _svc = self._run_pair(
            [(community, SolverConfig(window_size=256))],
            spec,
            plan,
            devices=1,
            degradation=DegradationPolicy(max_transient_retries=3),
        )
        assert chaos[0].status == "failed"
        assert chaos[0].transient_retries == 3


class TestPoolHealth:
    """The circuit-breaker state machine, driven directly."""

    def test_quarantine_after_consecutive_threshold(self):
        pool = DevicePool(2, fault_threshold=3)
        err = TransientKernelError("glitch")
        pool.note_fault(0, err)
        pool.note_fault(0, err)
        assert pool.health[0].state == HEALTHY
        pool.note_fault(0, err)
        assert pool.health[0].state == QUARANTINED
        assert pool.health[0].backoff == pool.backoff_base
        assert pool.health[0].total_faults == 3

    def test_success_resets_consecutive_count(self):
        pool = DevicePool(1, fault_threshold=3)
        err = TransientKernelError("glitch")
        pool.note_fault(0, err)
        pool.note_fault(0, err)
        pool.note_success(0)
        pool.note_fault(0, err)
        pool.note_fault(0, err)
        assert pool.health[0].state == HEALTHY

    def test_device_lost_quarantines_immediately(self):
        pool = DevicePool(2, fault_threshold=3)
        pool.note_fault(0, DeviceLostError())
        assert pool.health[0].state == QUARANTINED

    def test_quarantined_device_not_placed_during_backoff(self):
        pool = DevicePool(2)
        pool.note_fault(0, DeviceLostError())
        for _ in range(pool.health[0].backoff):
            i, _dev = pool.least_loaded()
            pool.note_dispatch(i)
            assert i == 1

    def test_backoff_lapses_into_probation(self):
        pool = DevicePool(2, backoff_base=2)
        pool.note_fault(0, TransientKernelError("g"))
        pool.note_fault(0, TransientKernelError("g"))
        pool.note_fault(0, TransientKernelError("g"))
        assert pool.health[0].state == QUARANTINED
        for _ in range(pool.health[0].backoff):
            i, _dev = pool.least_loaded()
            pool.note_dispatch(i)
        # backoff expired: the device is eligible again, on probation
        assert pool._eligible(0)
        assert pool.health[0].state == PROBATION

    def test_probation_success_restores_health(self):
        pool = DevicePool(1, fault_threshold=1)
        pool.note_fault(0, TransientKernelError("g"))
        i, _dev = pool.least_loaded()  # force-revive: single device
        assert pool.health[0].state == PROBATION
        pool.note_success(0)
        assert pool.health[0].state == HEALTHY

    def test_probation_fault_doubles_backoff(self):
        pool = DevicePool(1, fault_threshold=1, backoff_base=2)
        pool.note_fault(0, TransientKernelError("g"))
        first_backoff = pool.health[0].backoff
        pool.least_loaded()  # lapse into probation
        pool.note_fault(0, TransientKernelError("g"))  # probation fault
        assert pool.health[0].state == QUARANTINED
        assert pool.health[0].backoff == 2 * first_backoff
        assert pool.health[0].quarantines == 2

    def test_single_device_pool_cannot_starve(self):
        pool = DevicePool(1)
        pool.devices[0].mark_lost()
        pool.note_fault(0, DeviceLostError())
        assert pool.health[0].state == QUARANTINED
        i, device = pool.least_loaded()
        assert i == 0
        assert not device.lost  # lost device was replaced on revival
        assert pool.health[0].replacements == 1

    def test_replacement_inherits_model_clock_and_injector(self):
        pool = DevicePool(1)
        plan = FaultPlan([FaultEvent(0, "launch", 10**9, "device-lost")])
        pool.install_fault_plan(plan)
        injector = pool.devices[0].fault_injector
        pool.devices[0].charge_time(1.25)
        pool.devices[0].mark_lost()
        pool.note_fault(0, DeviceLostError())
        _i, fresh = pool.least_loaded()
        assert fresh.model_time_s == pytest.approx(1.25)
        assert fresh.fault_injector is injector

    def test_pool_summary_reports_health(self):
        pool = DevicePool(2)
        pool.note_fault(1, DeviceLostError())
        report = pool.summary()
        assert report[0]["health"]["state"] == HEALTHY
        assert report[1]["health"]["state"] == QUARANTINED
        assert report[1]["health"]["total_faults"] == 1
