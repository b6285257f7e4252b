"""Tracing for the benchmark's traced run (``--trace 1``).

Two instruments, both installed from benchmark code only, so the
program under test is unchanged:

* **Spans** around public functions of the coarse layers (testbed
  set-up, fluid binning, the runner's cache, the serve store and
  client, the live plane).  Spans nest per thread, so a span's *self*
  time is its duration minus the time its child spans cover.  The
  serve worker runs on its own thread, so the recorder keeps one span
  stack per thread and folds totals under a lock.
* **cProfile** inside every ``Testbed.run`` call (the packet
  simulation).  Each profiled function is charged to the layer of the
  ``src/repro/<package>/`` that defines it (:data:`LAYER_MAP`);
  builtin, stdlib and numpy frames are charged to the ``repro`` layer
  that called them.  Delivery runs the receiving server, client and
  sniffer code synchronously inside ``net``, so the kernel's own
  per-callback wall times would fold every layer into ``net``; the
  profile does not.
"""

from __future__ import annotations

import collections
import contextlib
import dataclasses
import cProfile
import functools
import os
import pstats
import threading
import time
import typing

#: ``src/repro/<package>/`` -> layer name; ``""`` holds the top-level
#: modules (``cli.py``, ``__init__.py``, ``__main__.py``).  The smoke
#: test fails when a ``repro`` package is missing here.
LAYER_MAP = {
    "": "cli",
    "avatar": "avatar",
    "capture": "capture",
    "chaos": "chaos",
    "core": "core",
    "device": "device",
    "measure": "measure",
    "net": "net",
    "obs": "obs",
    "platforms": "platforms",
    "qoe": "qoe",
    "runner": "runner",
    "scale": "scale",
    "serve": "serve",
    "server": "server",
    "simcore": "simcore",
}
#: Profiled time that no ``repro`` layer can be charged with.
OTHER = "other"


class Tracer:
    """Thread-safe span and count recorder, plus the merged profile."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self.total_s: typing.Dict[str, float] = collections.defaultdict(float)
        self.child_s: typing.Dict[str, float] = collections.defaultdict(float)
        self.counts: typing.Dict[str, int] = collections.defaultdict(int)
        self._stats: typing.Optional[pstats.Stats] = None

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str):
        stack = self._stack()
        frame = [0.0]  # time covered by child spans
        stack.append(frame)
        started = time.perf_counter()
        try:
            yield
        finally:
            duration = time.perf_counter() - started
            stack.pop()
            if stack:
                stack[-1][0] += duration
            with self._lock:
                self.total_s[name] += duration
                self.child_s[name] += frame[0]

    def self_s(self, name: str) -> float:
        return self.total_s[name] - self.child_s[name]

    def count(self, name: str, n: int = 1) -> None:
        with self._lock:
            self.counts[name] += n

    def add_profile(self, profile: cProfile.Profile) -> None:
        with self._lock:
            if self._stats is None:
                self._stats = pstats.Stats(profile)
            else:
                self._stats.add(profile)

    def layer_self_s(self, src_root: str) -> typing.Dict[str, float]:
        """Profiled self time per layer (every layer present, plus other)."""
        split = dict.fromkeys(sorted(set(LAYER_MAP.values())), 0.0)
        split[OTHER] = 0.0
        if self._stats is not None:
            for layer, seconds in charge_layers(self._stats.stats, src_root).items():
                split[layer] += seconds
        return split


def layer_of(filename: str, src_root: str) -> typing.Optional[str]:
    """The layer of a profiled code file, ``None`` outside ``repro``."""
    prefix = os.path.join(src_root, "repro") + os.sep
    if not filename.startswith(prefix):
        return None
    parts = filename[len(prefix):].split(os.sep)
    package = parts[0] if len(parts) > 1 else ""
    return LAYER_MAP.get(package, OTHER)


def charge_layers(stats: dict, src_root: str) -> typing.Dict[str, float]:
    """Split cProfile self time by layer.

    ``stats`` is ``pstats.Stats.stats``: ``func -> (cc, nc, tt, ct,
    callers)`` with ``callers[caller] = (cc, nc, tt, ct)`` for the calls
    made from that caller.  A ``repro`` function keeps its own ``tt``.
    A non-``repro`` function's ``tt`` is split over its callers by the
    time each caller's calls took, and a non-``repro`` caller passes
    its share on to its own callers the same way, until a ``repro``
    frame takes it.  Roots outside ``repro`` and recursion cycles land
    in :data:`OTHER`.
    """
    owners_memo: typing.Dict[tuple, typing.Dict[str, float]] = {}

    def owners(func: tuple, visiting: frozenset) -> typing.Dict[str, float]:
        """Layer weights (summing to 1) that ``func``'s cost is charged to."""
        layer = layer_of(func[0], src_root)
        if layer is not None:
            return {layer: 1.0}
        if func in owners_memo:
            return owners_memo[func]
        callers = stats[func][4] if func in stats else {}
        total = sum(entry[3] for entry in callers.values())
        if func in visiting or total <= 0:
            return {OTHER: 1.0}
        weights: typing.Dict[str, float] = collections.defaultdict(float)
        for caller, entry in callers.items():
            for layer, share in owners(caller, visiting | {func}).items():
                weights[layer] += share * entry[3] / total
        owners_memo[func] = dict(weights)
        return owners_memo[func]

    split: typing.Dict[str, float] = collections.defaultdict(float)
    for func, (_cc, _nc, tt, _ct, callers) in stats.items():
        layer = layer_of(func[0], src_root)
        if layer is not None:
            split[layer] += tt
        elif not callers:
            split[OTHER] += tt
        else:
            for caller, entry in callers.items():
                for owner, share in owners(caller, frozenset({func})).items():
                    split[owner] += share * entry[2]
    return dict(split)


class Patches:
    """Attribute and mapping replacements, undone in reverse order."""

    def __init__(self) -> None:
        self._undo: typing.List[typing.Callable[[], None]] = []

    def wrap(self, owner: typing.Any, name: str, make: typing.Callable) -> None:
        original = getattr(owner, name)
        setattr(owner, name, make(original))
        self._undo.append(lambda: setattr(owner, name, original))

    def wrap_item(self, mapping: dict, key: str, make: typing.Callable) -> None:
        original = mapping[key]
        mapping[key] = make(original)
        self._undo.append(lambda: mapping.__setitem__(key, original))

    def undo(self) -> None:
        while self._undo:
            self._undo.pop()()


def spanned(tracer: Tracer, name: str, count: typing.Optional[str] = None):
    """Decorator factory: run ``fn`` inside span ``name`` (and count it)."""

    def make(fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if count is not None:
                tracer.count(count)
            with tracer.span(name):
                return fn(*args, **kwargs)

        return traced

    return make


class _TimedContext:
    """A context manager whose enter and exit (not its body) are a span."""

    def __init__(self, tracer: Tracer, name: str, inner) -> None:
        self._tracer, self._name, self._inner = tracer, name, inner

    def __enter__(self):
        with self._tracer.span(self._name):
            return self._inner.__enter__()

    def __exit__(self, *exc_info):
        with self._tracer.span(self._name):
            return self._inner.__exit__(*exc_info)


def _link_totals(testbed) -> typing.Tuple[int, int]:
    delivered = dropped = 0
    for _a, _b, link in testbed.network.graph.edges(data="link"):
        delivered += link.delivered_packets
        dropped += link.dropped_packets + link.down_dropped_packets
    return delivered, dropped


def _packet_counts(testbed) -> typing.Dict[str, int]:
    delivered, dropped = _link_totals(testbed)
    return {
        "simcore.events": testbed.sim.event_count,
        "net.packets_delivered": delivered,
        "net.packets_dropped": dropped,
        "capture.packets": sum(s.sniffer.captured_packets for s in testbed.stations),
    }


def install(tracer: Tracer) -> Patches:
    """Install every span, count and profile hook; returns the undo log."""
    from repro.measure.experiment import registry
    from repro.measure.session import Testbed
    from repro.obs import live
    from repro.qoe import cohort
    from repro.runner.cache import ResultCache
    from repro.runner.plan import TaskSpec
    from repro.scale import fluid, shard
    from repro.serve.client import ServeClient
    from repro.serve.store import ArtifactStore

    patches = Patches()
    setup = spanned(tracer, "measure.setup")
    for name in ("__init__", "start_all", "add_peers"):
        patches.wrap(Testbed, name, setup)

    def profiled_run(run):
        @functools.wraps(run)
        def traced(testbed, *args, **kwargs):
            before = _packet_counts(testbed)
            profile = cProfile.Profile()
            with tracer.span("measure.run"):
                profile.enable()
                try:
                    return run(testbed, *args, **kwargs)
                finally:
                    profile.disable()
                    tracer.add_profile(profile)
                    for key, value in _packet_counts(testbed).items():
                        tracer.count(key, value - before[key])

        return traced

    patches.wrap(Testbed, "run", profiled_run)

    patches.wrap(fluid.PiecewiseConstant, "bins", spanned(tracer, "scale.bins", "scale.bins_calls"))
    simulate_room = spanned(tracer, "scale.simulate_room", "scale.rooms")
    room_qoe = spanned(tracer, "qoe.room_qoe")
    for module in (fluid, shard):
        patches.wrap(module, "simulate_room", simulate_room)
    for module in (cohort, shard):
        patches.wrap(module, "room_qoe", room_qoe)

    patches.wrap(TaskSpec, "execute", spanned(tracer, "runner.task", "runner.executed"))

    def counted_lookup(lookup):
        @functools.wraps(lookup)
        def traced(cache, task):
            with tracer.span("runner.cache_lookup"):
                hit, value = lookup(cache, task)
            tracer.count("runner.cache_hits" if hit else "runner.cache_misses")
            return hit, value

        return traced

    patches.wrap(ResultCache, "lookup", counted_lookup)
    patches.wrap(ResultCache, "put", spanned(tracer, "runner.cache_put"))
    patches.wrap(ArtifactStore, "write_results", spanned(tracer, "serve.store_write"))
    for name in ("submit", "job", "fetch_artifact"):
        patches.wrap(ServeClient, name, spanned(tracer, "serve.http"))
    patches.wrap(
        live,
        "live_server",
        lambda fn: functools.wraps(fn)(
            lambda *a, **k: _TimedContext(tracer, "obs.live_plane", fn(*a, **k))
        ),
    )

    cell = spanned(tracer, "chaos.cell")
    patches.wrap_item(
        registry(),
        "chaos",
        lambda spec: dataclasses.replace(spec, runner=cell(spec.runner)),
    )
    return patches
