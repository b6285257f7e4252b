"""Smoke test of the benchmark: tiny sizes of every workload.

Run from the repository root::

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
for path in (HERE, SRC):
    if path not in sys.path:
        sys.path.insert(0, path)

import tracing  # noqa: E402
import workloads as w  # noqa: E402


def test_layer_map_covers_every_repro_package():
    packages = {
        name
        for name in os.listdir(os.path.join(SRC, "repro"))
        if os.path.isfile(os.path.join(SRC, "repro", name, "__init__.py"))
    }
    missing = sorted(packages - set(tracing.LAYER_MAP))
    assert not missing, f"repro packages missing from tracing.LAYER_MAP: {missing}"


def test_charge_layers_sends_builtin_time_to_the_calling_layer():
    net = (os.path.join(SRC, "repro", "net", "link.py"), 1, "deliver")
    server = (os.path.join(SRC, "repro", "server", "fanout.py"), 1, "fanout")
    heappush = ("~", 0, "<built-in method _heapq.heappush>")
    root = ("bench.py", 1, "main")
    stats = {
        net: (1, 1, 2.0, 5.0, {root: (1, 1, 2.0, 5.0)}),
        server: (1, 1, 1.0, 2.0, {net: (1, 1, 1.0, 2.0)}),
        # 3 s of builtin time: 1 s called from net, 2 s from server.
        heappush: (3, 3, 3.0, 3.0, {net: (1, 1, 1.0, 1.0), server: (2, 2, 2.0, 2.0)}),
        root: (1, 1, 0.5, 5.5, {}),
    }
    split = tracing.charge_layers(stats, SRC)
    assert split == {"net": 3.0, "server": 3.0, "other": 0.5}


def _checked(samples: w.Samples) -> None:
    assert samples.errors == []
    assert samples.attempted >= 2 and samples.failed == 0
    assert len(samples.digests) == 1


def test_hubs_room_smoke():
    samples = w.Samples()
    w.run_jobs(w.hubs_room_job, 3, 0.0, None, samples, w.HostSpeed(), n_users=4, window_s=2.0)
    _checked(samples)
    assert len(samples.wall_s) == 2 and samples.user_s[0][0] > 0


def test_fluid_scale_smoke():
    samples = w.Samples()
    w.run_jobs(w.fluid_scale_job, 3, 0.0, None, samples, w.HostSpeed(), n_rooms=3)
    _checked(samples)


def test_chaos_serve_smoke(tmp_path):
    samples = w.Samples()
    w.chaos_serve_cycle(
        3, str(tmp_path), None, samples, w.HostSpeed(), warm_jobs=2,
        scenarios=("loss-burst", "server-crash"), platforms=("vrchat", "altspacevr"),
    )
    _checked(samples)
    assert len(samples.cold_job_s) == 1 and len(samples.warm_job_s) == 2
    assert samples.serve["serve.jobs"] == 3


def test_traced_chaos_cycle_reports_every_serve_layer(tmp_path):
    tracer = tracing.Tracer()
    samples = w.Samples()
    patches = tracing.install(tracer)
    try:
        w.chaos_serve_cycle(
            3, str(tmp_path), None, samples, w.HostSpeed(), warm_jobs=1,
            scenarios=("loss-burst", "server-crash"), platforms=("vrchat", "altspacevr"),
        )
    finally:
        patches.undo()
    _checked(samples)
    counts = tracer.counts
    assert counts["runner.executed"] == 4 and counts["runner.cache_misses"] == 4
    assert counts["runner.cache_hits"] == 4
    assert counts["simcore.events"] > 0 and counts["capture.packets"] > 0
    for span in ("chaos.cell", "runner.cache_put", "serve.store_write",
                 "serve.http", "obs.live_plane", "measure.setup", "measure.run"):
        assert tracer.total_s[span] > 0, span
    split = tracer.layer_self_s(SRC)
    assert split["net"] > 0 and split["chaos"] > 0
    from repro.measure.experiment import get_experiment
    from repro.chaos.campaign import run_chaos_cell

    assert get_experiment("chaos").runner is run_chaos_cell  # patches undone


def test_benchmark_refuses_to_run_without_the_program(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for name in ("run.py", "workloads.py", "tracing.py", "digests.json"):
        (bench / name).write_bytes(open(os.path.join(HERE, name), "rb").read())
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    started = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fluid_scale",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
    assert time.monotonic() - started < 180


def test_digests_cover_default_and_held_out_seed():
    with open(os.path.join(HERE, "digests.json")) as handle:
        digests = json.load(handle)
    for workload in ("hubs_room", "fluid_scale", "chaos_serve"):
        assert set(digests[workload]) >= {"0", "7"}, workload
