"""Event-driven serve round trip: nothing on the in-process path waits
out a poll interval.

* an idle worker leases a job the moment it is submitted through the
  same :class:`JobQueue`, and stops the moment it is told to;
* ``GET /v1/jobs/<id>?wait=<s>`` answers as soon as the job is
  terminal (including by cancellation), else after ``s`` seconds;
* what a process cannot be woken for -- a job finished through another
  process's queue handle -- is still seen once the poll runs out.
"""

import os
import sys
import threading
import time

import pytest

from repro.measure.experiment import register_experiment, unregister_experiment
from repro.serve import JobQueue, ServeApiError, ServeClient, ServeDaemon, ServeWorker
from repro.serve.queue import QUEUE_FILENAME
from repro.serve.schema import normalize_spec, plan_from_spec

SPEC = {"experiments": ["wakeup-stub"], "seeds": [0], "parallel": False}


def wakeup_stub(seed=0):
    return {"seed": seed}


@pytest.fixture(autouse=True)
def _register_stub():
    register_experiment("wakeup-stub", wakeup_stub, artifact="test", replace=True)
    yield
    unregister_experiment("wakeup-stub")


def _submit(queue):
    spec = normalize_spec(SPEC)
    plan = plan_from_spec(spec)
    return queue.submit(spec, campaign_id=plan.campaign_id, n_tasks=len(plan))


def _idle_worker(spool, poll_s=30.0):
    """A worker thread blocked in ``run_forever`` with an empty queue."""
    worker = ServeWorker(spool, poll_s=poll_s)
    stop = threading.Event()
    thread = threading.Thread(target=worker.run_forever, kwargs={"stop": stop})
    thread.start()
    time.sleep(0.2)  # let it find the queue empty and go to sleep
    return worker, stop, thread


def _stop(worker, stop, thread):
    stop.set()
    worker.queue.wake()
    thread.join(timeout=5.0)
    assert not thread.is_alive()


# ----------------------------------------------------------------------
# Worker wake-ups
# ----------------------------------------------------------------------
def test_idle_worker_runs_a_just_submitted_job_without_polling(tmp_path):
    worker, stop, thread = _idle_worker(str(tmp_path / "spool"))
    try:
        started = time.monotonic()
        job = _submit(worker.queue)
        while not worker.queue.get(job.id).terminal:
            assert time.monotonic() - started < 5.0, "worker slept out its poll"
            time.sleep(0.01)
        assert worker.queue.get(job.id).state == "done"
    finally:
        _stop(worker, stop, thread)


def test_a_submit_between_an_empty_lease_and_the_sleep_is_not_lost(tmp_path, monkeypatch):
    worker = ServeWorker(str(tmp_path / "spool"), poll_s=30.0)
    lease, submitted = worker.queue.lease, []

    def lease_then_submit(owner, lease_s):
        job = lease(owner, lease_s)
        if job is None and not submitted:
            submitted.append(_submit(worker.queue))
        return job

    monkeypatch.setattr(worker.queue, "lease", lease_then_submit)
    started = time.monotonic()
    assert worker.run_forever(max_jobs=1) == 1
    assert time.monotonic() - started < 5.0
    assert worker.queue.get(submitted[0].id).state == "done"


def test_no_submission_is_lost_under_thread_contention(tmp_path):
    # More workers than cores and a short switch interval, so submits
    # land between a worker's empty lease and its sleep; a lost wake-up
    # would leave a job queued for the whole 30 s poll.
    spool = str(tmp_path / "spool")
    queue = JobQueue(os.path.join(spool, QUEUE_FILENAME))
    stop = threading.Event()
    workers = [ServeWorker(spool, worker_id=f"w{i}", poll_s=30.0, queue=queue) for i in range(4)]
    threads = [
        threading.Thread(target=worker.run_forever, kwargs={"stop": stop}) for worker in workers
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        deadline = time.monotonic() + 20.0
        for _ in range(30):
            job = _submit(queue)
            while not queue.get(job.id).terminal:
                assert time.monotonic() < deadline, "a submission was not noticed"
                time.sleep(0.001)
    finally:
        sys.setswitchinterval(interval)
        stop.set()
        queue.wake()
        for thread in threads:
            thread.join(timeout=5.0)
        queue.close()
    assert not any(thread.is_alive() for thread in threads)
    assert sum(worker.jobs_run for worker in workers) == 30


def test_stop_wakes_a_waiting_worker_promptly(tmp_path):
    worker, stop, thread = _idle_worker(str(tmp_path / "spool"))
    started = time.monotonic()
    _stop(worker, stop, thread)
    assert time.monotonic() - started < 1.0


def test_daemon_close_does_not_wait_out_a_poll_interval(tmp_path):
    daemon = ServeDaemon(tmp_path / "spool", n_workers=1, live_workers=False).start()
    time.sleep(0.1)  # the worker is asleep on the empty queue
    started = time.perf_counter()
    daemon.close()
    assert time.perf_counter() - started < 0.25


# ----------------------------------------------------------------------
# Long-polled job status
# ----------------------------------------------------------------------
@pytest.fixture()
def idle_daemon(tmp_path):
    # No workers: submitted jobs stay queued.
    with ServeDaemon(tmp_path / "spool", n_workers=0) as daemon:
        yield daemon


def test_wait_answers_at_once_for_a_terminal_job(idle_daemon):
    client = ServeClient(idle_daemon.url)
    job = client.cancel(client.submit(SPEC)["id"])
    started = time.monotonic()
    view = client._json(f"/v1/jobs/{job['id']}?wait=20")
    assert time.monotonic() - started < 2.0
    assert view["state"] == "cancelled"


def test_wait_answers_after_the_wait_for_a_queued_job(idle_daemon):
    client = ServeClient(idle_daemon.url)
    job = client.submit(SPEC)
    started = time.monotonic()
    view = client._json(f"/v1/jobs/{job['id']}?wait=0.5")
    elapsed = time.monotonic() - started
    assert 0.45 <= elapsed < 3.0
    assert view["state"] == "queued"


@pytest.mark.parametrize("wait", ["-1", "soon", "nan", "inf"])
def test_wait_rejects_a_bad_value(idle_daemon, wait):
    client = ServeClient(idle_daemon.url)
    job = client.submit(SPEC)
    with pytest.raises(ServeApiError) as excinfo:
        client._json(f"/v1/jobs/{job['id']}?wait={wait}")
    assert excinfo.value.status == 400
    assert "wait" in excinfo.value.body["error"]


def test_wait_on_an_unknown_job_is_404(idle_daemon):
    with pytest.raises(ServeApiError) as excinfo:
        ServeClient(idle_daemon.url)._json("/v1/jobs/job-nope?wait=5")
    assert excinfo.value.status == 404


def test_cancel_wakes_a_long_poller(idle_daemon):
    client = ServeClient(idle_daemon.url)
    job = client.submit(SPEC)
    views = []
    poller = threading.Thread(
        target=lambda: views.append(client._json(f"/v1/jobs/{job['id']}?wait=30"))
    )
    poller.start()
    time.sleep(0.2)  # the poll is now waiting on the daemon
    started = time.monotonic()
    client.cancel(job["id"])
    poller.join(timeout=10.0)
    assert not poller.is_alive()
    assert time.monotonic() - started < 5.0
    assert views[0]["state"] == "cancelled"


def test_wait_sees_a_job_finished_through_another_queue_handle(idle_daemon):
    # The daemon's queue is never told about this completion, so only
    # the poll timeout can surface it -- the cross-process fallback.
    client = ServeClient(idle_daemon.url)
    job = client.submit(SPEC)
    states = []
    result = {}
    waiter = threading.Thread(
        target=lambda: result.update(
            client.wait(
                job["id"],
                timeout_s=30.0,
                poll_s=0.2,
                on_poll=lambda view: states.append(view["state"]),
            )
        )
    )
    waiter.start()
    time.sleep(0.3)
    other = JobQueue(os.path.join(idle_daemon.spool, QUEUE_FILENAME))
    try:
        assert ServeWorker(idle_daemon.spool, queue=other).run_once() is not None
    finally:
        other.close()
    waiter.join(timeout=30.0)
    assert not waiter.is_alive()
    assert result["state"] == "done"
    assert states[0] == "queued" and states[-1] == "done"
