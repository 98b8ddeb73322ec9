"""FleetWorker robustness: real worker processes against a real queue.

The satellite contracts under test:

* a worker completes real BlockJobs and exits cleanly under ``--max-jobs``
  with results bit-identical to in-process compilation;
* SIGTERM drains the in-flight job to a completion record before exit;
* a ``kill -9``'d claim holder's lease is reclaimed (with the reclaim
  counted) even though its heartbeat was fresh and its TTL enormous.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

import repro
from repro.core import PulseCache
from repro.fleet.dispatcher import _WORKER_BOOTSTRAP
from repro.fleet.queue import FleetQueue
from repro.pipeline.jobs import _encode_outcome, run_block_job

SRC_ROOT = Path(repro.__file__).resolve().parent.parent


def _spawn_worker(fleet_dir, *extra_args) -> subprocess.Popen:
    cmd = [
        sys.executable,
        "-c",
        _WORKER_BOOTSTRAP,
        str(SRC_ROOT),
        "worker",
        "--fleet-dir",
        str(fleet_dir),
        "--poll",
        "0.05",
        *map(str, extra_args),
    ]
    return subprocess.Popen(
        cmd, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL
    )


def _wait_for(predicate, timeout: float = 120.0, interval: float = 0.02) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


class TestWorkerLoop:
    def test_compiles_one_job_and_exits(self, tmp_path, job_factory):
        queue = FleetQueue(tmp_path)
        job = job_factory(0.3)
        job_id = queue.enqueue(job)

        proc = _spawn_worker(tmp_path, "--max-jobs", 1, "--worker-id", "w1")
        assert proc.wait(timeout=180) == 0

        record = queue.consume_result(job_id)
        assert record is not None
        assert record["error"] is None
        assert record["worker"] == "w1"
        assert record["wall_time_s"] > 0
        # Bit-identity across the process boundary: the worker's encoded
        # outcome equals the in-process compile of the same job.
        expected = _encode_outcome(run_block_job(job, cache=PulseCache()))
        assert record["outcome"] == expected
        # The queue is fully retired and the worker signed off.
        assert list(queue.jobs_dir.glob("*.job")) == []
        assert list(queue.leases_dir.glob("*.json")) == []
        heartbeat = json.loads((queue.workers_dir / "w1.json").read_text())
        assert heartbeat["state"] == "exited"
        assert heartbeat["jobs_done"] == 1

    def test_idle_exit_with_empty_queue(self, tmp_path):
        proc = _spawn_worker(tmp_path, "--idle-exit", 0.2)
        assert proc.wait(timeout=60) == 0
        assert FleetQueue(tmp_path).status()["pending_jobs"] == 0

    def test_idle_heartbeat_written_at_most_once_per_interval(self, tmp_path):
        """The claim loop polls fast, but an idle worker rewrites its
        heartbeat file only once per ``heartbeat_s``."""
        from repro.fleet.worker import FleetWorker

        worker = FleetWorker(
            tmp_path, poll_s=0.001, heartbeat_s=0.1, idle_exit_s=0.45
        )
        claims = []
        beats = []
        claim = worker.queue.claim
        worker.queue.claim = lambda worker_id: claims.append(1) or claim(worker_id)
        worker.queue.write_worker_heartbeat = (
            lambda worker_id, state, jobs_done, extra=None: beats.append(
                (time.monotonic(), state)
            )
        )
        assert worker.run() == 0
        idle = [at for at, state in beats if state == "idle"]
        assert beats[-1][1] == "exited"
        assert len(claims) > 3 * len(idle)
        assert 1 <= len(idle) <= 5  # 0.45 s idle / 0.1 s interval, plus the first
        assert all(b - a >= 0.1 for a, b in zip(idle, idle[1:]))


class TestSigtermDrain:
    def test_sigterm_drains_inflight_job(self, tmp_path, job_factory):
        queue = FleetQueue(tmp_path)
        job_id = queue.enqueue(job_factory(0.7))

        proc = _spawn_worker(tmp_path)
        try:
            # SIGTERM the moment the lease lands — almost always mid-GRAPE.
            assert _wait_for(
                lambda: (queue.leases_dir / f"{job_id}.json").exists()
                or (queue.results_dir / f"{job_id}.json").exists()
            )
            proc.terminate()
            assert proc.wait(timeout=180) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()

        # The in-flight job drained to a real completion record; nothing
        # was abandoned mid-lease.
        record = queue.consume_result(job_id)
        assert record is not None and record["error"] is None
        assert list(queue.jobs_dir.glob("*.job")) == []
        assert list(queue.leases_dir.glob("*.json")) == []

    def test_sigterm_while_idle_exits_promptly(self, tmp_path):
        queue = FleetQueue(tmp_path)
        proc = _spawn_worker(tmp_path)
        try:
            assert _wait_for(
                lambda: list(queue.workers_dir.glob("*.json")) != []
            )
            proc.terminate()
            assert proc.wait(timeout=60) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()


class TestKillNineReclaim:
    #: A claim holder that leases the first job and then hangs forever —
    #: the deterministic stand-in for a worker dying mid-compile.
    _HOLDER = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); "
        "from repro.fleet.queue import FleetQueue; "
        "queue = FleetQueue(sys.argv[2]); "
        "assert queue.claim('holder') is not None; "
        "print('claimed', flush=True); "
        "time.sleep(600)"
    )

    def test_killed_holders_lease_is_reclaimed_and_completed(
        self, tmp_path, job_factory
    ):
        queue = FleetQueue(tmp_path, lease_ttl_s=3600.0)
        job_id = queue.enqueue(job_factory(0.5))

        proc = subprocess.Popen(
            [sys.executable, "-c", self._HOLDER, str(SRC_ROOT), str(tmp_path)],
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            assert proc.stdout.readline().strip() == "claimed"
        finally:
            proc.kill()
            proc.wait()

        # The holder's pid is dead on this host, so the lease is stale
        # immediately — no TTL wait — and the reclaim is counted.
        claimed = queue.claim("rescuer")
        assert claimed is not None and claimed[0] == job_id
        lease = json.loads((queue.leases_dir / f"{job_id}.json").read_text())
        assert lease["worker"] == "rescuer"
        assert lease["reclaims"] >= 1

        # The rescuer finishes the job: at-least-once delivery converges.
        outcome = run_block_job(claimed[1], cache=PulseCache())
        queue.complete(
            job_id,
            {
                "job_id": job_id,
                "worker": "rescuer",
                "outcome": _encode_outcome(outcome),
                "error": None,
                "wall_time_s": 0.0,
            },
        )
        assert queue.consume_result(job_id)["error"] is None
        assert list(queue.leases_dir.glob("*.json")) == []
