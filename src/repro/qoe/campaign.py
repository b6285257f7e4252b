"""QoE campaign cells: score a platform matrix, optionally under fault.

One cell (:func:`run_qoe_cell`) builds a fresh testbed with a
metrics-only observability bundle, rides a :class:`QoeProbe` over the
run, and returns a picklable :class:`QoeCellResult` — per-user window
scores plus roll-ups.  Passing a chaos ``scenario`` arms a
:class:`~repro.chaos.inject.FaultInjector` exactly like
``run_chaos_cell`` does, so "what did users feel during the loss
burst?" is one flag away from "did the platform recover?".

Registered as the ``qoe-score`` experiment (``qoe`` already names the
paper's Sec. 8.2 latency/loss study), so matrices flow through
:mod:`repro.runner`: cached, crash-isolated, parallelized, and
byte-identical regardless of worker count.
"""

from __future__ import annotations

import dataclasses
import typing

from ..measure.session import Testbed, download_drain_s
from ..obs.context import MetricsOnlyObservability, active_collector
from ..platforms.profiles import PLATFORM_NAMES
from ..runner import CampaignPlan
from .slo import SloReport, SloSpec, evaluate_slo
from .streams import QoeProbe, UserQoeSummary, WindowScore

#: Clients join this long into the run (same pacing as repro.chaos).
JOIN_AT_S = 2.0
#: Settling time after the per-join download before a fault strikes.
SETTLE_S = 8.0


@dataclasses.dataclass(frozen=True)
class QoeCellResult:
    """Everything one QoE cell scored, picklable for the runner cache."""

    platform: str
    seed: int
    n_users: int
    scenario: typing.Optional[str]
    intensity: typing.Optional[str]
    #: Sim time the cell ran to.
    end_s: float
    windows: typing.Tuple[WindowScore, ...]
    users: typing.Tuple[UserQoeSummary, ...]
    mean_score: float
    worst_score: float
    #: User-seconds spent below the degraded threshold, summed over users.
    below_threshold_user_s: float
    #: Correlation ids (defaulted so cached pre-observability results
    #: still load): the campaign and task this cell came from.
    campaign_id: str = ""
    task_id: str = ""

    def evaluate(self, spec: SloSpec) -> SloReport:
        """Evaluate one SLO over this cell's window scores."""
        return evaluate_slo(spec, self.windows)


def run_qoe_cell(
    platform: str,
    n_users: int = 2,
    duration_s: float = 30.0,
    seed: int = 0,
    scenario: typing.Optional[str] = None,
    intensity: str = "mild",
) -> QoeCellResult:
    """Score one (platform, seed) cell, optionally under a chaos fault.

    ``duration_s`` is the scored in-event time after join + download
    settle; with a ``scenario`` the run instead extends to the
    scenario's observation window past the heal point (matching
    ``run_chaos_cell`` timing), whichever is later.
    """
    obs = None if active_collector() is not None else MetricsOnlyObservability()
    testbed = Testbed(platform, n_users=n_users, seed=seed, obs=obs)
    testbed.start_all(join_at=JOIN_AT_S)
    probe = QoeProbe(testbed)
    probe.start()

    settle = JOIN_AT_S + SETTLE_S + download_drain_s(testbed.profile)
    end = settle + duration_s
    if scenario is not None:
        from ..chaos.inject import FaultInjector
        from ..chaos.scenarios import get_scenario

        spec = get_scenario(scenario)
        spec.params(intensity)  # fail fast on unknown intensity
        injector = FaultInjector(testbed, spec, intensity)
        fault_at = settle + spec.fault_offset_s
        heal_at = injector.arm(fault_at)
        end = max(end, heal_at + spec.observe_s)

    testbed.run(until=end)

    windows = tuple(probe.window_scores())
    users = tuple(probe.user_summaries())
    values = [window.score for window in windows]
    return QoeCellResult(
        platform=testbed.profile.name,
        seed=seed,
        n_users=n_users,
        scenario=scenario,
        intensity=intensity if scenario is not None else None,
        end_s=round(end, 6),
        windows=windows,
        users=users,
        mean_score=round(sum(values) / len(values), 6) if values else 0.0,
        worst_score=round(min(values), 6) if values else 0.0,
        below_threshold_user_s=round(
            sum(user.seconds_below for user in users), 6
        ),
    )


def build_qoe_plan(
    platforms: typing.Optional[typing.Sequence[str]] = None,
    seeds: typing.Iterable[int] = (0,),
    *,
    n_users: int = 2,
    duration_s: float = 30.0,
    scenario: typing.Optional[str] = None,
    intensity: str = "mild",
) -> CampaignPlan:
    """Expand the QoE matrix (platform x seed) into runner tasks."""
    base = {"n_users": n_users, "duration_s": duration_s}
    if scenario is not None:
        base["scenario"] = scenario
        base["intensity"] = intensity
    return CampaignPlan.from_matrix(
        ["qoe-score"],
        grid={"platform": list(platforms) if platforms else list(PLATFORM_NAMES)},
        seeds=seeds,
        base_kwargs=base,
    )
