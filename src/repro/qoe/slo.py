"""Declarative QoE SLOs: percentile targets, burn rates, breach events.

An :class:`SloSpec` is the SRE-style contract "the p05 user-window
score stays at or above 3.0, evaluated over 60 s windows, with a 5%
error budget" — written ``p05>=3.0/60s@0.05``.  Evaluation pools
scored windows (from :class:`~repro.qoe.streams.QoeProbe`) into fixed
evaluation windows and produces:

* per-window compliance + **burn rate** (bad fraction over budget
  fraction, the standard SRE alerting signal);
* **breach events** — maximal runs of non-compliant windows with their
  duration and worst observed score; and
* an :class:`SloReport` that converts to a
  :class:`~repro.core.findings.Finding` (numbered from
  ``QOE_FINDING_BASE``) and exports into a metric registry for the
  JSONL/Prometheus pipelines.

Like the scoring model, everything is pure float arithmetic with
``round(..., 6)``: byte-identical across runs and worker counts.
"""

from __future__ import annotations

import dataclasses
import math
import re
import typing

from ..core.findings import Finding, qoe_finding
from .streams import WindowScore

#: Default fraction of windows allowed below target (the error budget).
DEFAULT_BUDGET_FRACTION = 0.05

#: The SLO applied when chaos verdicts report breach durations without
#: the caller specifying one: p05 of user-window scores >= 3.0 ("fair")
#: over 10 s evaluation windows.
DEFAULT_SLO_TEXT = "p05>=3.0/10s"

_SPEC_PATTERN = re.compile(
    r"^p(\d+(?:\.\d+)?)\s*>=\s*(\d+(?:\.\d+)?)\s*/\s*(\d+(?:\.\d+)?)s"
    r"(?:\s*@\s*(\d*\.?\d+))?$"
)


@dataclasses.dataclass(frozen=True)
class SloSpec:
    """One service-level objective over pooled window scores."""

    name: str
    #: Minimum acceptable score at the percentile.
    target: float
    #: Percentile (0-100) the target applies to; p05 guards the tail.
    percentile: float
    #: Evaluation-window width in sim seconds.
    window_s: float
    #: Fraction of scores allowed below target before burn rate hits 1.
    budget_fraction: float = DEFAULT_BUDGET_FRACTION

    def __post_init__(self) -> None:
        if not (0.0 <= self.percentile <= 100.0):
            raise ValueError(f"percentile must be in [0, 100], got {self.percentile}")
        if self.window_s <= 0 or not math.isfinite(self.window_s):
            raise ValueError(f"window_s must be positive, got {self.window_s}")
        if not (0.0 < self.budget_fraction <= 1.0):
            raise ValueError(
                f"budget_fraction must be in (0, 1], got {self.budget_fraction}"
            )

    @classmethod
    def parse(cls, text: str) -> "SloSpec":
        """Parse the compact spec grammar ``p<P>>=<target>/<W>s[@<budget>]``.

        Examples: ``p05>=3.0/60s`` (p05 score >= 3.0 over 60 s windows,
        default 5% budget), ``p50>=4.0/30s@0.01``.
        """
        match = _SPEC_PATTERN.match(text.strip())
        if match is None:
            raise ValueError(
                f"bad SLO spec {text!r}; expected e.g. 'p05>=3.0/60s' or "
                f"'p05>=3.0/60s@0.05'"
            )
        percentile, target, window_s, budget = match.groups()
        return cls(
            name=text.strip(),
            target=float(target),
            percentile=float(percentile),
            window_s=float(window_s),
            budget_fraction=(
                float(budget) if budget is not None else DEFAULT_BUDGET_FRACTION
            ),
        )


DEFAULT_SLO = SloSpec.parse(DEFAULT_SLO_TEXT)


def percentile(values: typing.Sequence[float], q: float) -> float:
    """Nearest-rank percentile (deterministic, no interpolation).

    The rank ``ceil(q * n / 100)`` is computed in integers from the
    exact value of ``q``: in floats, ``7.0 / 100.0 * 100`` rounds above
    7 and picks the 8th of 100 values.
    """
    if not values:
        raise ValueError("percentile of an empty sequence")
    ordered = sorted(values)
    numerator, denominator = float(q).as_integer_ratio()
    rank = -(-numerator * len(ordered) // (denominator * 100))
    return ordered[max(0, rank - 1)]


@dataclasses.dataclass(frozen=True)
class SloWindow:
    """One evaluation window of an SLO."""

    t0: float
    t1: float
    n_scores: int
    percentile_score: typing.Optional[float]
    bad_fraction: float
    burn_rate: float
    compliant: bool


@dataclasses.dataclass(frozen=True)
class BreachEvent:
    """A maximal run of consecutive non-compliant evaluation windows."""

    t_start: float
    t_end: float
    duration_s: float
    worst_score: float


@dataclasses.dataclass(frozen=True)
class SloReport:
    """The full evaluation of one SLO over one run's scores."""

    spec: SloSpec
    windows: typing.Tuple[SloWindow, ...]
    breaches: typing.Tuple[BreachEvent, ...]
    total_breach_s: float
    worst_burn_rate: float
    compliant: bool

    def to_finding(self, index: int = 0) -> Finding:
        evidence = (
            f"{len(self.windows)} eval windows of {self.spec.window_s:g}s; "
            f"{len(self.breaches)} breach(es) totalling "
            f"{self.total_breach_s:g}s; worst burn rate "
            f"{self.worst_burn_rate:g}"
        )
        return qoe_finding(
            index, f"QoE SLO {self.spec.name}", self.compliant, evidence
        )

    def into_registry(self, registry, **labels) -> None:
        """Export breach/burn aggregates as metrics (no-op when the
        registry is the shared null)."""
        if not registry.enabled:
            return
        slo_labels = dict(labels, slo=self.spec.name)
        registry.counter("qoe.slo_breach_seconds", **slo_labels).inc(
            self.total_breach_s
        )
        registry.counter(
            "qoe.slo_windows_total",
            compliant="yes" if self.compliant else "no",
            **slo_labels,
        ).inc(len(self.windows))
        registry.gauge("qoe.slo_worst_burn_rate", **slo_labels).set(
            self.worst_burn_rate
        )


def evaluate_slo(
    spec: SloSpec,
    scores: typing.Sequence[WindowScore],
    t_start: typing.Optional[float] = None,
    t_end: typing.Optional[float] = None,
) -> SloReport:
    """Evaluate one SLO over scored windows.

    Scores are assigned to the evaluation window containing their end
    time (``t1``); empty evaluation windows are vacuously compliant.
    """
    if not scores:
        return SloReport(
            spec=spec,
            windows=(),
            breaches=(),
            total_breach_s=0.0,
            worst_burn_rate=0.0,
            compliant=True,
        )
    if t_start is None:
        t_start = min(score.t0 for score in scores)
    if t_end is None:
        t_end = max(score.t1 for score in scores)
    n_windows = max(1, math.ceil((t_end - t_start) / spec.window_s - 1e-9))

    pools: typing.List[typing.List[float]] = [[] for _ in range(n_windows)]
    for score in scores:
        index = int((score.t1 - t_start) / spec.window_s)
        index = min(max(index, 0), n_windows - 1)
        pools[index].append(score.score)

    windows: typing.List[SloWindow] = []
    worst_burn = 0.0
    for index, pool in enumerate(pools):
        t0 = t_start + index * spec.window_s
        t1 = min(t_end, t0 + spec.window_s)
        if not pool:
            windows.append(
                SloWindow(
                    t0=round(t0, 6),
                    t1=round(t1, 6),
                    n_scores=0,
                    percentile_score=None,
                    bad_fraction=0.0,
                    burn_rate=0.0,
                    compliant=True,
                )
            )
            continue
        pct = percentile(pool, spec.percentile)
        bad = sum(1 for value in pool if value < spec.target) / len(pool)
        burn = round(bad / spec.budget_fraction, 6)
        worst_burn = max(worst_burn, burn)
        windows.append(
            SloWindow(
                t0=round(t0, 6),
                t1=round(t1, 6),
                n_scores=len(pool),
                percentile_score=round(pct, 6),
                bad_fraction=round(bad, 6),
                burn_rate=burn,
                compliant=pct >= spec.target,
            )
        )

    breaches = _breach_events(windows, pools)
    total_breach = round(sum(event.duration_s for event in breaches), 6)
    return SloReport(
        spec=spec,
        windows=tuple(windows),
        breaches=tuple(breaches),
        total_breach_s=total_breach,
        worst_burn_rate=round(worst_burn, 6),
        compliant=not breaches,
    )


def _breach_events(
    windows: typing.Sequence[SloWindow],
    pools: typing.Sequence[typing.Sequence[float]],
) -> typing.List[BreachEvent]:
    """Collapse consecutive non-compliant windows into breach events."""
    events: typing.List[BreachEvent] = []
    run_start: typing.Optional[int] = None
    for i in range(len(windows) + 1):
        breached = i < len(windows) and not windows[i].compliant
        if breached and run_start is None:
            run_start = i
        elif not breached and run_start is not None:
            span = windows[run_start:i]
            worst = min(
                min(pools[j]) for j in range(run_start, i) if pools[j]
            )
            events.append(
                BreachEvent(
                    t_start=span[0].t0,
                    t_end=span[-1].t1,
                    duration_s=round(span[-1].t1 - span[0].t0, 6),
                    worst_score=round(worst, 6),
                )
            )
            run_start = None
    return events
