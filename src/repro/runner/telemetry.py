"""Structured campaign telemetry: JSONL progress events + summary.

Every campaign emits a stream of flat JSON events (one per line) that
downstream tooling can tail, plot, or assert on — the same shape
continuous measurement systems use for long-running capture campaigns.
Event vocabulary:

``campaign_start``  n_tasks, max_workers, parallel, cache_dir
``cache_hit``       task, experiment, seed
``task_start``      task, experiment, seed, attempt, worker hint
``task_end``        task, status="ok", wall_time_s, worker_pid, attempt
``task_retry``      task, reason, attempt, backoff_s
``task_fail``       task, reason, attempts
``campaign_end``    the :class:`CampaignSummary` fields
``chaos_verdict``   per cell of a cell-kind experiment, after
``qoe_cell``        ``campaign_end`` (see ``CellKind``): task + fields

Events always also accumulate in memory (``TelemetryWriter.events``),
so tests and notebooks can assert on them without touching the
filesystem; passing a path additionally appends each event as JSONL.
"""

from __future__ import annotations

import dataclasses
import json
import os
import time
import typing


class TelemetryWriter:
    """Collects events in memory and optionally appends JSONL to a file.

    Parent directories of ``path`` are created on open, and ``close()``
    is idempotent; emitting after close raises a clear error rather
    than the file object's opaque ``ValueError``.

    ``context`` fields (e.g. the campaign correlation id) are merged
    into every record, so any event can be joined back to its campaign.
    ``flush_every`` batches file flushes (1 = flush each event, the
    default, so live SSE tailers see events promptly); ``fsync=True``
    additionally forces the page cache to disk on each flush — for
    tailers on another machine reading through a network filesystem.
    Listeners registered via :meth:`add_listener` observe every record
    as it is emitted; listener errors are swallowed so an observer can
    never alter the campaign outcome.
    """

    def __init__(
        self,
        path: typing.Optional[str] = None,
        clock: typing.Callable[[], float] = time.time,
        context: typing.Optional[typing.Mapping[str, typing.Any]] = None,
        flush_every: int = 1,
        fsync: bool = False,
    ) -> None:
        if flush_every < 1:
            raise ValueError("flush_every must be >= 1")
        self.path = path
        self.events: typing.List[dict] = []
        self.context: typing.Dict[str, typing.Any] = dict(context or {})
        self.flush_every = flush_every
        self.fsync = fsync
        self._clock = clock
        self._closed = False
        self._unflushed = 0
        self._listeners: typing.List[typing.Callable[[dict], None]] = []
        if path:
            parent = os.path.dirname(os.path.abspath(path))
            os.makedirs(parent, exist_ok=True)
            self._handle = open(path, "a")
        else:
            self._handle = None

    def add_listener(self, listener: typing.Callable[[dict], None]) -> None:
        """Observe every emitted record (read-only; errors swallowed).

        Idempotent: re-adding the same listener (e.g. a writer shared
        across nested campaigns under one live server) is a no-op.
        """
        if listener not in self._listeners:
            self._listeners.append(listener)

    def emit(self, event: str, **fields) -> dict:
        if self._closed:
            raise RuntimeError(
                f"cannot emit {event!r}: this TelemetryWriter is closed"
            )
        record = {"ts": round(self._clock(), 6), "event": event}
        record.update(self.context)
        record.update(fields)
        self.events.append(record)
        if self._handle is not None:
            self._handle.write(json.dumps(record, sort_keys=False) + "\n")
            self._unflushed += 1
            if self._unflushed >= self.flush_every:
                self._flush()
        for listener in self._listeners:
            try:
                listener(record)
            except Exception:  # noqa: BLE001 - observers must not break runs
                pass
        return record

    def _flush(self) -> None:
        if self._handle is None:
            return
        self._handle.flush()
        if self.fsync:
            os.fsync(self._handle.fileno())
        self._unflushed = 0

    def count(self, event: str) -> int:
        return sum(1 for record in self.events if record["event"] == event)

    def select(self, event: str) -> typing.List[dict]:
        return [record for record in self.events if record["event"] == event]

    def close(self) -> None:
        self._closed = True
        if self._handle is not None:
            self._flush()
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "TelemetryWriter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


@dataclasses.dataclass
class CampaignSummary:
    """End-of-campaign accounting, also emitted as ``campaign_end``."""

    n_tasks: int = 0
    executed: int = 0
    cache_hits: int = 0
    succeeded: int = 0
    failed: int = 0
    retries: int = 0
    wall_time_s: float = 0.0
    task_time_s: float = 0.0

    @property
    def ok(self) -> bool:
        return self.failed == 0

    @property
    def speedup(self) -> float:
        """Aggregate task time over campaign wall time (>1 under
        parallelism; cache hits contribute zero task time)."""
        if self.wall_time_s <= 0:
            return 0.0
        return self.task_time_s / self.wall_time_s

    def as_dict(self) -> dict:
        fields = dataclasses.asdict(self)
        fields["ok"] = self.ok
        return fields

    def render(self) -> str:
        lines = [
            f"tasks      : {self.n_tasks}",
            f"executed   : {self.executed}",
            f"cache hits : {self.cache_hits}",
            f"succeeded  : {self.succeeded}",
            f"failed     : {self.failed}",
            f"retries    : {self.retries}",
            f"wall time  : {self.wall_time_s:.2f} s "
            f"(task time {self.task_time_s:.2f} s, "
            f"speedup x{self.speedup:.1f})",
        ]
        return "\n".join(lines)
