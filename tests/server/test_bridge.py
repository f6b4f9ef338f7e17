"""The bridge worker survives what its jobs do, and forgets them when done.

The ``solve-bridge`` thread is the one thread allowed to drive the
service, so anything that kills it hangs every later request. These
tests hold the ways that used to happen or grow without bound: a job
whose waiter gave up, a batch step that raises, a per-job table that
outlived its jobs, and cancels racing the worker's pickup.
"""

import sys
import threading
import time

import pytest

from repro.core.deadline import Deadline
from repro.errors import ServerError
from repro.graph import from_edge_list
from repro.server.bridge import SolveBridge
from repro.service import SolveService
from repro.service.request import SolveRequest
from tests.cluster.conftest import wait_until

from .conftest import TRIANGLE_EDGES

TRIANGLE = from_edge_list([tuple(e) for e in TRIANGLE_EDGES])


class TestWorkerSurvives:
    def test_cancelled_expired_job_does_not_kill_the_worker(self):
        # every attempt sleeps, so job "a" holds the worker while "b"
        # and "c" queue behind it
        service = SolveService(
            fault_hook=lambda request, attempt, config: time.sleep(0.3)
        )
        bridge = SolveBridge(service)
        try:
            first = bridge.submit(SolveRequest(graph=TRIANGLE, job_id="a"))
            wait_until(lambda: bridge.state("a") == "running")
            expired = SolveRequest(
                graph=TRIANGLE, job_id="b", deadline=Deadline.from_limit(0.0)
            )
            doomed = bridge.submit(expired)
            # what asyncio.wrap_future does when its connection tears down
            assert doomed.cancel()
            after = bridge.submit(SolveRequest(graph=TRIANGLE, job_id="c"))
            assert first.result(timeout=10).ok
            assert after.result(timeout=10).ok
            assert bridge.state("b") == "done"
        finally:
            bridge.stop()

    def test_a_failing_batch_fails_its_job_and_the_next_one_runs(
        self, monkeypatch, make_server, make_client
    ):
        original = SolveBridge._run_batch
        failed = []

        def fail_once(bridge, jobs):
            if not failed:
                failed.append(len(jobs))
                raise RuntimeError("injected batch failure")
            return original(bridge, jobs)

        monkeypatch.setattr(SolveBridge, "_run_batch", fail_once)
        server = make_server()
        client = make_client(server, retries=0, timeout_s=10.0)
        with pytest.raises(ServerError) as excinfo:
            client.solve(TRIANGLE)
        assert excinfo.value.code == "internal"
        assert "injected batch failure" in str(excinfo.value)
        assert client.solve(TRIANGLE)["record"]["status"] == "ok"
        assert failed == [1]
        assert client.stats()["server"]["solves.internal"] == 1


def _table_sizes(bridge):
    """Size of every dict or list the bridge holds."""
    return {
        name: len(value)
        for name, value in vars(bridge).items()
        if isinstance(value, (dict, list))
    }


class TestBoundedTables:
    def test_no_per_job_entry_outlives_its_job(self, make_server, make_client):
        server = make_server()
        client = make_client(server)
        for _ in range(200):
            assert client.solve(TRIANGLE)["record"]["status"] == "ok"
        tables = _table_sizes(server.server.bridge)
        assert tables and not any(tables.values()), tables


class TestRacingCancels:
    def test_every_future_settles_and_the_bridge_forgets_it(self):
        """Submitters outnumber the cores and cancel as they go, both
        through the bridge and as a torn-down waiter does, while the
        worker picks jobs up under a tiny switch interval."""
        bridge = SolveBridge(SolveService(), max_queue=10_000)
        futures, errors = [], []

        def submitter(t):
            try:
                for i in range(40):
                    job_id = f"t{t}-{i}"
                    request = SolveRequest(graph=TRIANGLE, job_id=job_id)
                    future = bridge.submit(request)
                    futures.append(future)
                    if i % 3 == 1:
                        bridge.cancel(job_id)
                    elif i % 3 == 2:
                        future.cancel()
            except Exception as exc:  # a thread cannot fail the test itself
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=submitter, args=(t,)) for t in range(4)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
        try:
            assert errors == []
            for future in futures:
                if future.cancelled():
                    continue
                try:
                    assert future.result(timeout=30).ok
                except ServerError as exc:
                    assert exc.code == "cancelled"
            last = bridge.submit(SolveRequest(graph=TRIANGLE, job_id="last"))
            assert last.result(timeout=10).ok
            wait_until(lambda: not any(_table_sizes(bridge).values()))
        finally:
            bridge.stop()
