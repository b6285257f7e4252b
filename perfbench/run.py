"""Repository benchmark: end-to-end and per-layer metrics per workload.

Run from the repository root, one workload per process::

    python3 perfbench/run.py --workload hubs_room --seed 0 --seconds 30 --trace 0

Workloads (see ``workloads.py``): ``hubs_room``, ``fluid_scale``,
``chaos_serve``.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the line before it
records the host (core count, Python, git commit when the checkout is
a repository, a digest of ``src/``), the seed, the failure share, and
the raw wall times behind the metrics.  End-to-end times are
host-speed normalized as ``workloads.py`` describes.

``--trace 0`` measures with tracing off and reports the end-to-end
metrics.  ``--trace 1`` runs untraced for half the budget, then traced
for the other half (one serve daemon each for ``chaos_serve``) with
spans and cProfile installed (``tracing.py``).  It reports per-layer
metrics per traced job (per daemon) plus ``trace.overhead_s``, the
traced median timed region minus the untraced one.  Metrics of layers
a workload does not touch read 0.

Each run uses its own spool directory under ``.perfbench-tmp/`` in the
checkout and removes it before exiting.  Without ``src/repro`` next to
this directory the benchmark exits non-zero before printing a result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

WORKLOADS = ("hubs_room", "fluid_scale", "chaos_serve")
#: Modules each workload imports before its first job (part of setup_s).
IMPORTS = {
    "hubs_room": ("repro.measure.session",),
    "fluid_scale": ("repro.scale.shard",),
    "chaos_serve": ("repro.serve", "repro.chaos.campaign"),
}
#: Fresh interpreters whose import times give the setup_s median.
IMPORT_REPEATS = 5
#: Span metrics reported as self time (duration minus child spans).
SELF_SPANS = {
    "measure.setup_s": "measure.setup",
    "scale.bins_s": "scale.bins",
    "scale.simulate_room_s": "scale.simulate_room",
    "qoe.room_qoe_s": "qoe.room_qoe",
    "serve.store_write_s": "serve.store_write",
    "runner.cache_lookup_s": "runner.cache_lookup",
    "runner.cache_put_s": "runner.cache_put",
}
#: Span metrics reported inclusive of their children.
TOTAL_SPANS = {
    "runner.task_s": "runner.task",
    "serve.http_s": "serve.http",
    "obs.live_plane_s": "obs.live_plane",
    "chaos.cell_s": "chaos.cell",
}
COUNTS = (
    "simcore.events",
    "net.packets_delivered",
    "net.packets_dropped",
    "capture.packets",
    "scale.bins_calls",
    "scale.rooms",
    "runner.executed",
    "runner.cache_hits",
    "runner.cache_misses",
)


def import_program(workload: str) -> None:
    """Import the checkout's ``repro`` and the workload's modules."""
    sys.path.insert(0, SRC)
    import importlib

    try:
        repro = importlib.import_module("repro")
    except ImportError as exc:
        raise SystemExit(f"cannot import repro from {SRC}: {exc}")
    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"imported repro from {repro.__file__}, not from {SRC}")
    for module in IMPORTS[workload]:
        importlib.import_module(module)


def import_timings(workload: str, repeats: int, host):
    """Timings of the workload's imports in fresh interpreters."""
    import workloads as w

    modules = ", ".join(IMPORTS[workload])
    code = (
        "import time; w, c = time.perf_counter(), time.process_time(); "
        f"import {modules}; "
        "print(time.perf_counter() - w, time.process_time() - c)"
    )
    env = dict(os.environ, PYTHONPATH=SRC)
    timings = []
    for _ in range(repeats):
        host.sample()
        started = time.perf_counter()
        out = subprocess.run(
            [sys.executable, "-c", code], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=60, check=True,
        )
        wall, cpu = out.stdout.split()
        timings.append(w.Timing(started, float(wall), float(cpu)))
    return timings


def committed_digest(workload: str, seed: int):
    with open(os.path.join(HERE, "digests.json")) as handle:
        return json.load(handle)[workload].get(str(seed))


def host_record(args, samples) -> dict:
    commit = None
    if os.path.exists(os.path.join(ROOT, ".git")):
        probe = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30, check=False,
        )
        commit = probe.stdout.strip() or None
    source = hashlib.sha256()
    for directory, dirs, files in sorted(os.walk(os.path.join(SRC, "repro"))):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(directory, name)
                source.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as handle:
                    source.update(handle.read())
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "git_commit": commit,
        "src_sha256": source.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "failed_frac": samples.failed / max(1, samples.attempted),
    }


def run_workload(args, workdir: str, host):
    """Run the untraced (and, with ``--trace 1``, traced) measurement.

    Returns ``(untraced samples, traced samples or None, tracer or None)``.
    """
    import tracing
    import workloads as w

    expected = committed_digest(args.workload, args.seed)
    started = time.perf_counter()
    untraced_s = args.seconds / 2 if args.trace else args.seconds
    samples = w.Samples()
    if args.workload == "chaos_serve":
        cycles = 1 if args.trace else w.CHAOS_CYCLES
        for _ in range(cycles):
            w.chaos_serve_cycle(args.seed, workdir, expected, samples, host)
    else:
        job = w.hubs_room_job if args.workload == "hubs_room" else w.fluid_scale_job
        w.run_jobs(job, args.seed, started + untraced_s, expected, samples, host)
    if not args.trace:
        return samples, None, None

    tracer = tracing.Tracer()
    traced = w.Samples()
    patches = tracing.install(tracer)
    try:
        if args.workload == "chaos_serve":
            w.chaos_serve_cycle(args.seed, workdir, expected, traced, host)
        else:
            w.run_jobs(job, args.seed, started + args.seconds, expected, traced, host, minimum=1)
    finally:
        patches.undo()
    return samples, traced, tracer


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def end_to_end(samples, host, imports) -> dict:
    import workloads as w

    def normalized(timings):
        return [host.normalize(t) for t in timings]

    warm = normalized(samples.warm_job_s)
    rates = [user_s / host.normalize(t) for user_s, t in samples.user_s]
    return {
        "setup_s": (_median(normalized(imports)) + _median(normalized(samples.setup_s)), "s"),
        "wall_s": (_median(normalized(samples.wall_s)), "s"),
        "user_s_per_s": (_median(rates), "user-s/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "cold_job_s": (_median(normalized(samples.cold_job_s)), "s"),
        "warm_job_p50_s": (_median(warm), "s"),
        "warm_job_p75_s": (w.percentile(warm, 75) if warm else 0.0, "s"),
    }


def per_layer(samples, traced, tracer, host) -> dict:
    """Per-layer metrics per traced job (per daemon for ``chaos_serve``),
    in raw (not normalized) seconds."""
    jobs = max(1, len(traced.wall_s))
    metrics = {
        f"{layer}.self_s": (seconds / jobs, "s")
        for layer, seconds in tracer.layer_self_s(SRC).items()
    }
    for name in COUNTS:
        metrics[name] = (tracer.counts.get(name, 0) / jobs, "count")
    for name, span in SELF_SPANS.items():
        metrics[name] = (tracer.self_s(span) / jobs, "s")
    for name, span in TOTAL_SPANS.items():
        metrics[name] = (tracer.total_s[span] / jobs, "s")
    for name in ("serve.queue_wait_s", "serve.job_run_s"):
        metrics[name] = (traced.serve[name] / jobs, "s")
    metrics["serve.jobs"] = (traced.serve["serve.jobs"] / jobs, "count")
    # Both sides normalized, so host-speed swings do not read as overhead.
    overhead = _median([host.normalize(t) for t in traced.wall_s]) - _median(
        [host.normalize(t) for t in samples.wall_s]
    )
    metrics["trace.overhead_s"] = (overhead, "s")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_program(args.workload)
    import workloads as w

    host = w.HostSpeed()
    workdir = w.scratch_dir(ROOT)
    try:
        samples, traced, tracer = run_workload(args, workdir, host)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass  # another run still uses it
    if traced is not None:
        samples.attempted += traced.attempted
        samples.failed += traced.failed
        samples.errors += traced.errors
        if len(samples.digests | traced.digests) > 1:
            samples.errors.append("traced run changed the output digest")
            samples.failed += 1
        metrics = per_layer(samples, traced, tracer, host)
    else:
        imports = import_timings(args.workload, IMPORT_REPEATS, host)
        host.sample()
        metrics = end_to_end(samples, host, imports)

    record = host_record(args, samples)
    record["warm_job_samples"] = len(samples.warm_job_s)
    record["warm_job_tail_percentile"] = w.tail_percentile(len(samples.warm_job_s))
    if traced is not None:
        record["trace.overhead_s"] = metrics["trace.overhead_s"][0]
    raw = {
        name: [round(t.wall, 6) for t in getattr(samples, name)]
        for name in ("setup_s", "wall_s", "cold_job_s", "warm_job_s")
    }
    raw["calibration_s"] = [round(seconds, 6) for _, seconds in host.samples]
    print(json.dumps({"host": record, "raw_wall_s": raw, "errors": samples.errors[:10]}))
    print(
        json.dumps(
            {
                "correct": samples.failed == 0 and not samples.errors,
                "attempted": samples.attempted,
                "failed": samples.failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
