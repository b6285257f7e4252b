"""The three benchmark workloads, driven only through public functions.

Every workload is a closed loop with one client: it issues its next
job only after the previous one has finished and been checked.

* ``hubs_room`` -- the Fig. 9 room: 28 users on ``hubs-private`` (U1
  plus 27 crowd peers), run serially with streaming capture.  The
  heaviest single packet simulation; its time is in the per-packet path
  (simcore, net, server, platforms, avatar, capture).  A job is one
  testbed build plus its run.
* ``fluid_scale`` -- a ``run_sharded`` fluid projection, 20 users per
  room, churn and the default scenario, ``parallel=False`` (on a small
  host a process pool would measure the scheduler).  It runs no packet
  engine, so it is the bypass workload for simcore/net changes, as
  ``hubs_room`` is for fluid changes.  A job is one projection.
* ``chaos_serve`` -- an in-process ``ServeDaemon`` with its defaults
  (one worker, live plane on).  One tenant submits a chaos matrix whose
  every cell carries a QoE probe, on an empty content-addressed cache
  (the cold job: every cell executes and is written).  Other tenants
  then resubmit the identical spec one after another (warm jobs: pure
  cache hits).  A job is submit to ``results.json`` fetched.  Unlike
  the other two, whose job loops last ``--seconds``, it always runs
  :data:`CHAOS_CYCLES` daemons, so its tail percentile keeps a fixed
  sample count.

Each job's output is reduced to a digest.  Within a run every job of
a seed must give the same digest; for seeds listed in
``digests.json`` it must also equal the committed one.

Timings are host-speed normalized.  The shared host's speed swings by
tens of percent, in bursts lasting seconds, so between jobs a fixed
pure-Python load independent of ``repro`` is timed
(:class:`HostSpeed`).  A timing keeps its wait (wall minus process CPU
seconds) as measured and rescales its CPU seconds by the load's
reference time over its median time around the timing: within the
timing's span widened on each side by its own length, and by at least
:data:`MIN_WINDOW_S`.  Raw wall times are kept for the record.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import heapq
import json
import os
import shutil
import statistics
import struct
import tempfile
import time
import typing

#: Job sizes as benchmarked; ``digests.json`` holds digests for these.
HUBS_USERS = 28
HUBS_WINDOW_S = 20.0
FLUID_ROOMS = 1000
CHAOS_SCENARIOS = ("loss-burst", "server-crash")
CHAOS_PLATFORMS = ("vrchat", "worlds")
#: Warm jobs per serve daemon; 2 daemons give 40 warm samples, so the
#: 75th percentile has 10 samples beyond it.
CHAOS_WARM_JOBS = 20
CHAOS_CYCLES = 2
CHAOS_TENANTS = 4
#: Client poll period while waiting for a job (ServeClient.wait).
CHAOS_POLL_S = 0.02
JOIN_AT_S = 2.0

#: Size of the calibration work, and its time on an uncontended 2-core
#: reference host (CPython 3.11).
CALIBRATION_LOOPS = 200_000
CALIBRATION_EVENTS = 12_000
REFERENCE_CALIBRATION_S = 0.025
#: Least widening of a timing's span when picking calibration samples.
MIN_WINDOW_S = 2.0


class Timing(typing.NamedTuple):
    start: float  # time.perf_counter() at the start
    wall: float
    cpu: float  # process CPU seconds over the same span


def clock() -> typing.Tuple[float, float]:
    return time.perf_counter(), time.process_time()


def since(mark: typing.Tuple[float, float]) -> Timing:
    wall, cpu = clock()
    return Timing(mark[0], wall - mark[0], cpu - mark[1])


def total(timings: typing.Sequence[Timing]) -> Timing:
    """Timings of consecutive steps as one (gaps between them excluded)."""
    return Timing(
        timings[0].start, sum(t.wall for t in timings), sum(t.cpu for t in timings)
    )


class _Event:
    __slots__ = ("time", "kind", "payload")

    def __init__(self, time_s: float, kind: int, payload) -> None:
        self.time, self.kind, self.payload = time_s, kind, payload


def calibration_work() -> int:
    """The fixed load: an arithmetic loop (like the fluid path) plus a
    small heap-driven event loop that allocates objects and updates a
    dict (like the packet path)."""
    checksum = 0
    for i in range(CALIBRATION_LOOPS):
        checksum += i * i % 7
    queue = [(i * 0.01, i, _Event(i * 0.01, i % 17, None)) for i in range(200)]
    heapq.heapify(queue)
    counts: typing.Dict[int, int] = {}
    for seq in range(200, 200 + CALIBRATION_EVENTS):
        now, _, event = heapq.heappop(queue)
        counts[event.kind] = counts.get(event.kind, 0) + 1
        kind = (event.kind * 7 + 1) % 17
        heapq.heappush(queue, (now + 0.003 * (1 + kind % 5), seq, _Event(now, kind, [kind] * 3)))
    return checksum + len(counts)


class HostSpeed:
    """Times :func:`calibration_work` between jobs; normalizes timings."""

    def __init__(self) -> None:
        #: (midpoint perf_counter, seconds) per sample.
        self.samples: typing.List[typing.Tuple[float, float]] = []

    def sample(self) -> None:
        """Collect garbage (outside any timed region, so every job
        starts from the same heap), then time the fixed load."""
        gc.collect()
        started = time.perf_counter()
        calibration_work()
        ended = time.perf_counter()
        self.samples.append(((started + ended) / 2, ended - started))

    def normalize(self, timing: Timing) -> float:
        """``timing`` with its CPU part rescaled to the reference speed."""
        widen = max(timing.wall, MIN_WINDOW_S)
        lo, hi = timing.start - widen, timing.start + timing.wall + widen
        near = [seconds for mid, seconds in self.samples if lo <= mid <= hi]
        if not near:
            near = [min(self.samples, key=lambda s: abs(s[0] - timing.start))[1]]
        factor = REFERENCE_CALIBRATION_S / statistics.median(near)
        return timing.wall + timing.cpu * (factor - 1.0)


@dataclasses.dataclass
class Samples:
    """What one benchmark run measured, before it becomes metrics."""

    setup_s: typing.List[Timing] = dataclasses.field(default_factory=list)
    wall_s: typing.List[Timing] = dataclasses.field(default_factory=list)
    cold_job_s: typing.List[Timing] = dataclasses.field(default_factory=list)
    warm_job_s: typing.List[Timing] = dataclasses.field(default_factory=list)
    #: (simulated user-seconds, the timing that simulated them).
    user_s: typing.List[typing.Tuple[float, Timing]] = dataclasses.field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    errors: typing.List[str] = dataclasses.field(default_factory=list)
    digests: typing.Set[str] = dataclasses.field(default_factory=set)
    #: serve.queue_wait_s / serve.job_run_s / serve.jobs, from job views.
    serve: typing.Dict[str, float] = dataclasses.field(
        default_factory=lambda: {"serve.queue_wait_s": 0.0, "serve.job_run_s": 0.0, "serve.jobs": 0}
    )

    def check(self, digest: str, expected: typing.Optional[str]) -> bool:
        """Record one job's output digest; False when it is wrong."""
        self.digests.add(digest)
        if len(self.digests) > 1:
            self.errors.append(f"output digest changed within a seed: {sorted(self.digests)}")
            return False
        if expected is not None and digest != expected:
            self.errors.append(f"output digest {digest} != committed {expected}")
            return False
        return True

    def outcome(self, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1


def _sha256(*chunks: bytes) -> str:
    digest = hashlib.sha256()
    for chunk in chunks:
        digest.update(chunk)
    return digest.hexdigest()


def _floats(values) -> bytes:
    values = [float(v) for v in values]
    return struct.pack(f"<{len(values)}d", *values)


# ----------------------------------------------------------------------
# hubs_room
# ----------------------------------------------------------------------
def hubs_room_job(seed: int, n_users: int = HUBS_USERS, window_s: float = HUBS_WINDOW_S):
    """Build and run one Fig. 9 room; ``(setup, run, user_s, digest)``."""
    from repro.measure.session import Testbed, download_drain_s

    started = clock()
    testbed = Testbed("hubs-private", n_users=1, seed=seed, retain_records=False)
    start = JOIN_AT_S + 8.0 + download_drain_s(testbed.profile)
    end = start + window_s
    u1 = testbed.u1
    up = u1.sniffer.stream_bins(start, end, 1.0, direction="up")
    down = u1.sniffer.stream_bins(start, end, 1.0, direction="down")
    flows = u1.sniffer.stream_flows()
    testbed.start_all(join_at=JOIN_AT_S)
    if n_users > 1:
        testbed.add_peers(n_users - 1, join_times=[JOIN_AT_S] * (n_users - 1))
    setup = since(started)
    built = clock()
    testbed.run(until=end)
    run = since(built)
    flow_rows = sorted(
        (
            flow.local_port,
            str(flow.remote),
            str(flow.protocol),
            flow.up_packets,
            flow.up_bytes,
            flow.down_packets,
            flow.down_bytes,
            repr(flow.first_time),
            repr(flow.last_time),
        )
        for flow in flows.flows.values()
    )
    digest = _sha256(
        _floats(up.series().bits_per_bin),
        _floats(down.series().bits_per_bin),
        json.dumps(flow_rows).encode(),
    )
    return setup, run, n_users * (end - JOIN_AT_S), digest


# ----------------------------------------------------------------------
# fluid_scale
# ----------------------------------------------------------------------
def fluid_scale_job(seed: int, n_rooms: int = FLUID_ROOMS):
    """One serial sharded projection; ``(setup, run, user_s, digest)``."""
    import numpy as np

    from repro.scale.shard import ScaleScenario, run_sharded

    started = clock()
    scenario = ScaleScenario(users_per_room=20)
    setup = since(started)
    built = clock()
    result = run_sharded(scenario, n_rooms, seed=seed, parallel=False)
    run = since(built)

    def micro(values) -> bytes:
        return np.rint(np.asarray(values) * 1e6).astype("<i8").tobytes()

    digest = _sha256(
        _floats(result.egress_series.bits_per_bin),
        _floats(result.viewer_series.bits_per_bin),
        micro(result.mos_user_seconds_per_bin),
        micro(result.user_seconds_per_bin),
        micro([result.qoe_below_user_seconds]),
    )
    return setup, run, result.user_seconds, digest


def run_jobs(job, seed: int, deadline: float, expected: typing.Optional[str],
             samples: Samples, host: HostSpeed, minimum: int = 2, **sizes) -> None:
    """Repeat ``job`` until ``deadline``, and at least ``minimum`` times.

    These paths use no result cache, so every job is cold (it starts
    with nothing to reuse) and every job after the first is also warm
    (a repeat of an identical request).
    """
    done = 0
    host.sample()
    while done < minimum or time.perf_counter() < deadline:
        done += 1
        try:
            setup, run, user_s, digest = job(seed, **sizes)
        except Exception as exc:  # noqa: BLE001 - a failed job is counted
            samples.errors.append(f"{type(exc).__name__}: {exc}")
            samples.outcome(False)
            host.sample()
            continue
        host.sample()
        samples.outcome(samples.check(digest, expected))
        job_s = total([setup, run])
        samples.setup_s.append(setup)
        samples.wall_s.append(run)
        samples.user_s.append((user_s, run))
        samples.cold_job_s.append(job_s)
        if done > 1:
            samples.warm_job_s.append(job_s)


# ----------------------------------------------------------------------
# chaos_serve
# ----------------------------------------------------------------------
def chaos_spec(seed: int, scenarios=CHAOS_SCENARIOS, platforms=CHAOS_PLATFORMS) -> dict:
    return {
        "experiments": ["chaos"],
        "grid": {"scenario": list(scenarios), "platform": list(platforms)},
        "seeds": [seed],
        "parallel": False,
    }


def results_digest(body: bytes) -> str:
    """Digest of the per-task ``value`` fields of ``results.json``.

    Correlation ids (``campaign_id``, ``task_id``) are left out: they
    derive from the cache key, which may change without any result
    changing.
    """
    values = []
    for task in json.loads(body.decode())["tasks"]:
        value = task["value"]
        if isinstance(value, dict):
            value = {k: v for k, v in value.items() if k not in ("campaign_id", "task_id")}
        values.append(value)
    return _sha256(json.dumps(values, sort_keys=True, separators=(",", ":")).encode())


def _cell_user_seconds(body: bytes) -> float:
    """Simulated user-seconds across a job's cells (two users each)."""
    from repro.chaos.scenarios import get_scenario

    user_s = 0.0
    for task in json.loads(body.decode())["tasks"]:
        value = task["value"]
        end = value["heal_at_s"] + get_scenario(value["scenario"]).observe_s
        user_s += 2 * (end - JOIN_AT_S)
    return user_s


def _serve_job(client, spec: dict, samples: Samples) -> typing.Tuple[Timing, dict, bytes]:
    """Submit ``spec``, wait, fetch ``results.json``; returns its timing,
    the final job view and the ``results.json`` bytes."""
    started = clock()
    job = client.submit(spec)
    done = client.wait(job["id"], timeout_s=150.0, poll_s=CHAOS_POLL_S)
    body = client.fetch_artifact(job["id"], "results.json") if done["state"] == "done" else b""
    elapsed = since(started)
    samples.serve["serve.jobs"] += 1
    if done.get("started_at") is not None:
        samples.serve["serve.queue_wait_s"] += done["started_at"] - done["submitted_at"]
        samples.serve["serve.job_run_s"] += done["finished_at"] - done["started_at"]
    return elapsed, done, body


def chaos_serve_cycle(seed: int, workdir: str, expected: typing.Optional[str],
                      samples: Samples, host: HostSpeed,
                      warm_jobs: int = CHAOS_WARM_JOBS, **matrix) -> None:
    """One fresh daemon and spool: the cold job, then ``warm_jobs``."""
    from repro.serve import ServeClient, ServeDaemon

    spec = chaos_spec(seed, **matrix)
    n_cells = len(spec["grid"]["scenario"]) * len(spec["grid"]["platform"])
    tokens = {f"token-{i}": f"tenant-{i}" for i in range(CHAOS_TENANTS)}
    spool = tempfile.mkdtemp(prefix="spool-", dir=workdir)
    try:
        host.sample()
        started = clock()
        daemon = ServeDaemon(spool, tokens=tokens)
        samples.setup_s.append(since(started))
        with daemon:
            clients = [ServeClient(daemon.url, token=token) for token in tokens]
            host.sample()
            elapsed, done, cold_body = _serve_job(clients[0], spec, samples)
            host.sample()
            ok = done["state"] == "done" and done["summary"]["executed"] == n_cells
            if not ok:
                samples.errors.append(f"cold job: {done['state']} {done.get('error')}")
            else:
                ok = samples.check(results_digest(cold_body), expected)
                samples.user_s.append((_cell_user_seconds(cold_body), elapsed))
            samples.outcome(ok)
            samples.cold_job_s.append(elapsed)
            jobs = [elapsed]
            for index in range(warm_jobs):
                client = clients[1 + index % (len(clients) - 1)]
                elapsed, done, body = _serve_job(client, spec, samples)
                host.sample()
                ok = (
                    done["state"] == "done"
                    and done["summary"]["cache_hits"] == n_cells
                    and body == cold_body
                )
                if not ok:
                    samples.errors.append(
                        f"warm job {index}: {done['state']}, "
                        f"{done.get('summary', {}).get('cache_hits')} hits, "
                        f"results.json {'identical' if body == cold_body else 'differs'}"
                    )
                samples.outcome(ok)
                samples.warm_job_s.append(elapsed)
                jobs.append(elapsed)
            # The cycle's timed region: its jobs, without the calibration.
            samples.wall_s.append(total(jobs))
    finally:
        shutil.rmtree(spool, ignore_errors=True)


def percentile(values: typing.Sequence[float], q: int) -> float:
    """The ``q``-th percentile (inclusive method) of ``values``."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def tail_percentile(n: int) -> typing.Optional[int]:
    """The highest of 50/75/90/99 with at least ten of ``n`` samples beyond."""
    best = None
    for q in (50, 75, 90, 99):
        if n * (100 - q) / 100 >= 10:
            best = q
    return best


def scratch_dir(root: str) -> str:
    """A fresh directory for spools, inside the checkout."""
    base = os.path.join(root, ".perfbench-tmp")
    os.makedirs(base, exist_ok=True)
    return tempfile.mkdtemp(prefix=f"run-{os.getpid()}-", dir=base)
