"""Deterministic MOS-style scoring: QoS signals -> experience scores.

The mapping follows the UNSW "Impact of Network QoS on Metaverse VR
User Experience" study (PAPERS.md): each *channel class* — avatar
motion, voice, world state, plus local rendering — gets piecewise-
linear curves from its raw QoS signals (latency, loss, staleness, FPS)
onto the classic 1-5 MOS scale, and the per-channel scores are combined
with weights that depend on the user's lifecycle *phase* per
MetaVRadar: a user sitting in the lobby barely notices motion loss but
is acutely sensitive to world-state staleness, while a user in a dense
event weighs motion smoothness above everything else.

Everything here is pure arithmetic on floats with a final
``round(..., 6)``, so scores are byte-identical across runs, worker
processes, and platforms — the same determinism bar as
:mod:`repro.chaos` verdicts.
"""

from __future__ import annotations

import dataclasses
import typing

#: MOS bounds (ITU-T P.800 absolute category rating).
MOS_MIN = 1.0
MOS_MAX = 5.0

#: A per-user mean score below this counts as a degraded experience
#: ("fair" on the MOS ladder is the classic acceptability cliff).
DEGRADED_THRESHOLD = 3.0

#: MetaVRadar lifecycle phases, in code order (``phase_code`` is the
#: index, bridged through the ``qoe.phase`` gauge as a float).
PHASES: typing.Tuple[str, ...] = (
    "lobby",
    "world-switch",
    "steady",
    "dense-event",
    "exit",
)

#: Active remote avatars at/above this put the user in "dense-event"
#: (MetaVRadar's dense-interaction state; also where Fig. 7/8 FPS
#: starts to sag on Quest 2).
DENSE_EVENT_REMOTES = 8


def classify_phase(stage: str, joining: bool, active_remotes: int) -> str:
    """Map raw client state onto a MetaVRadar lifecycle phase."""
    if joining:
        return "world-switch"
    if stage in ("init", "welcome"):
        return "lobby"
    if stage == "event":
        if active_remotes >= DENSE_EVENT_REMOTES:
            return "dense-event"
        return "steady"
    return "exit"


def phase_code(phase: str) -> int:
    """Stable integer code for a phase (index into :data:`PHASES`)."""
    try:
        return PHASES.index(phase)
    except ValueError:
        raise ValueError(
            f"unknown QoE phase {phase!r}; choose from {PHASES}"
        ) from None


def phase_from_code(code: float) -> str:
    """Inverse of :func:`phase_code` for gauge-bridged floats."""
    index = int(round(code))
    if 0 <= index < len(PHASES):
        return PHASES[index]
    raise ValueError(f"phase code {code!r} out of range for {PHASES}")


class PiecewiseCurve:
    """Monotone piecewise-linear map from a QoS signal to a MOS score.

    Defined by ``(signal_value, score)`` points sorted by signal value;
    outside the domain the score clamps to the first/last point.  The
    curve direction is free (FPS curves rise, latency curves fall).
    """

    __slots__ = ("points",)

    def __init__(self, points: typing.Sequence[typing.Tuple[float, float]]) -> None:
        if len(points) < 2:
            raise ValueError("a curve needs at least two points")
        xs = [x for x, _ in points]
        if xs != sorted(xs):
            raise ValueError(f"curve points must be sorted by signal value: {xs}")
        self.points = tuple((float(x), float(s)) for x, s in points)

    def score(self, value: float) -> float:
        points = self.points
        if value <= points[0][0]:
            return points[0][1]
        if value >= points[-1][0]:
            return points[-1][1]
        for (x0, s0), (x1, s1) in zip(points, points[1:]):
            if value < x1:
                score = s0 + (value - x0) / (x1 - x0) * (s1 - s0)
                # ``s1 - s0`` may round up in magnitude, so the sum can
                # pass ``s1`` by an ulp; capping keeps the curve monotone.
                return min(score, s1) if s0 <= s1 else max(score, s1)
            if value == x1:
                return s1
        return points[-1][1]  # unreachable; keeps the type checker calm


# ----------------------------------------------------------------------
# Channel curves (signal units in the curve names)
# ----------------------------------------------------------------------
#: Avatar-motion end-to-end update latency (milliseconds).  The paper's
#: Sec. 8.2 user study found latency below ~150 ms imperceptible in
#: social VR and annoyance setting in past ~300 ms.
MOTION_LATENCY_MS = PiecewiseCurve(
    [(0.0, 5.0), (50.0, 5.0), (150.0, 4.0), (300.0, 3.0), (600.0, 2.0), (1000.0, 1.0)]
)
#: Avatar-update loss fraction; Sec. 8.2 found even 10% loss tolerable
#: ("humans move predictably") but past ~30% avatars visibly teleport.
MOTION_LOSS = PiecewiseCurve(
    [(0.0, 5.0), (0.02, 4.5), (0.10, 3.5), (0.30, 2.0), (0.60, 1.0)]
)
#: Seconds since *any* remote update arrived — a freeze detector.
MOTION_STALENESS_S = PiecewiseCurve(
    [(0.1, 5.0), (0.5, 4.5), (1.5, 3.0), (3.0, 2.0), (5.0, 1.0)]
)
#: Voice mouth-to-ear latency (milliseconds), G.114-shaped.
VOICE_LATENCY_MS = PiecewiseCurve(
    [(0.0, 5.0), (150.0, 4.5), (250.0, 3.5), (400.0, 2.0), (800.0, 1.0)]
)
#: Voice packet-loss fraction (concealment dies ~5%).
VOICE_LOSS = PiecewiseCurve(
    [(0.0, 5.0), (0.01, 4.5), (0.05, 3.0), (0.15, 2.0), (0.30, 1.0)]
)
#: World/session-state staleness (seconds since session-channel data).
WORLD_STALENESS_S = PiecewiseCurve(
    [(0.0, 5.0), (2.0, 4.5), (6.0, 3.5), (12.0, 2.0), (20.0, 1.0)]
)
#: Rendered frames per second; Quest 2 targets 72, comfort floor ~20.
RENDER_FPS = PiecewiseCurve(
    [(10.0, 1.0), (20.0, 2.0), (30.0, 3.0), (45.0, 4.0), (60.0, 5.0)]
)

#: Channel classes scored per window.
CHANNELS: typing.Tuple[str, ...] = ("motion", "voice", "world", "render")

#: Phase -> channel weights.  Rows need not renormalize here; scoring
#: renormalizes over the channels actually present in a window.
PHASE_WEIGHTS: typing.Dict[str, typing.Dict[str, float]] = {
    "lobby": {"motion": 0.15, "voice": 0.15, "world": 0.50, "render": 0.20},
    "world-switch": {"motion": 0.10, "voice": 0.10, "world": 0.60, "render": 0.20},
    "steady": {"motion": 0.40, "voice": 0.25, "world": 0.15, "render": 0.20},
    "dense-event": {"motion": 0.45, "voice": 0.15, "world": 0.10, "render": 0.30},
    "exit": {"motion": 0.0, "voice": 0.0, "world": 0.50, "render": 0.50},
}


@dataclasses.dataclass(frozen=True)
class ChannelSignals:
    """Raw QoS signals for one user over one scoring window.

    ``None`` means the signal (or its whole channel) was inactive in
    the window — e.g. voice on a muted testbed — and drops out of the
    combine with its weight renormalized away, rather than dragging the
    score down for traffic that was never supposed to flow.
    """

    motion_latency_ms: typing.Optional[float] = None
    motion_loss: typing.Optional[float] = None
    motion_staleness_s: typing.Optional[float] = None
    voice_latency_ms: typing.Optional[float] = None
    voice_loss: typing.Optional[float] = None
    world_staleness_s: typing.Optional[float] = None
    render_fps: typing.Optional[float] = None


@dataclasses.dataclass(frozen=True)
class QoeModel:
    """A full scoring model: per-channel curves + phase weights."""

    motion_latency: PiecewiseCurve = MOTION_LATENCY_MS
    motion_loss: PiecewiseCurve = MOTION_LOSS
    motion_staleness: PiecewiseCurve = MOTION_STALENESS_S
    voice_latency: PiecewiseCurve = VOICE_LATENCY_MS
    voice_loss: PiecewiseCurve = VOICE_LOSS
    world_staleness: PiecewiseCurve = WORLD_STALENESS_S
    render_fps: PiecewiseCurve = RENDER_FPS
    phase_weights: typing.Mapping = dataclasses.field(
        default_factory=lambda: PHASE_WEIGHTS
    )

    # ------------------------------------------------------------------
    # Channel scores
    # ------------------------------------------------------------------
    def channel_scores(
        self, signals: ChannelSignals
    ) -> typing.Dict[str, typing.Optional[float]]:
        """Score each channel as the *minimum* of its sub-curves.

        Min-combine within a channel matches how users judge a stream:
        perfect latency does not compensate for 50% loss.
        """

        def combine(*pairs) -> typing.Optional[float]:
            scores = [
                curve.score(value) for curve, value in pairs if value is not None
            ]
            return min(scores) if scores else None

        return {
            "motion": combine(
                (self.motion_latency, signals.motion_latency_ms),
                (self.motion_loss, signals.motion_loss),
                (self.motion_staleness, signals.motion_staleness_s),
            ),
            "voice": combine(
                (self.voice_latency, signals.voice_latency_ms),
                (self.voice_loss, signals.voice_loss),
            ),
            "world": combine((self.world_staleness, signals.world_staleness_s)),
            "render": combine((self.render_fps, signals.render_fps)),
        }

    def score(self, signals: ChannelSignals, phase: str) -> float:
        """One MOS score for a window: phase-weighted channel mean.

        Channels with no active signal drop out and the remaining
        weights renormalize; with *no* channel active the window scores
        a neutral :data:`MOS_MAX` (nothing was supposed to happen, so
        nothing was perceived as broken).
        """
        weights = self.phase_weights.get(phase)
        if weights is None:
            raise ValueError(f"unknown QoE phase {phase!r}; choose from {PHASES}")
        per_channel = self.channel_scores(signals)
        total_weight = 0.0
        weighted = 0.0
        for channel, channel_score in per_channel.items():
            weight = weights.get(channel, 0.0)
            if channel_score is None or weight <= 0.0:
                continue
            total_weight += weight
            weighted += weight * channel_score
        if total_weight <= 0.0:
            return MOS_MAX
        value = weighted / total_weight
        return round(min(MOS_MAX, max(MOS_MIN, value)), 6)


#: The shared default model used by probes, cells, and cohort scoring.
DEFAULT_MODEL = QoeModel()


def mos_label(score: float) -> str:
    """Human label for a MOS score (ITU ACR ladder)."""
    if score >= 4.3:
        return "excellent"
    if score >= 3.6:
        return "good"
    if score >= 2.8:
        return "fair"
    if score >= 1.8:
        return "poor"
    return "bad"
