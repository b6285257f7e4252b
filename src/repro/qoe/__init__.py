"""repro.qoe: per-user experience scoring + SLO engine over repro.obs.

The observability stack's user-facing quality axis: derived per-user
signal streams (:mod:`.streams`) tapped read-only from the metric
registries, a deterministic MOS-style scoring model with MetaVRadar
lifecycle-phase weighting (:mod:`.model`), declarative SLOs evaluated
into burn rates and breach events (:mod:`.slo`), campaign cells that
score platforms — optionally under chaos faults — through
:mod:`repro.runner` (:mod:`.campaign`), and cohort-level scoring for
the fluid metaverse-scale projections (:mod:`.cohort`).  See
``docs/QOE.md``.

Exports resolve lazily (PEP 562) so that importing the scoring model
alone — e.g. for CLI help text — does not pull in the full testbed
stack.
"""

_EXPORTS = {
    "ChannelSignals": ".model",
    "DEFAULT_MODEL": ".model",
    "DEGRADED_THRESHOLD": ".model",
    "DENSE_EVENT_REMOTES": ".model",
    "PHASES": ".model",
    "PiecewiseCurve": ".model",
    "QoeModel": ".model",
    "classify_phase": ".model",
    "mos_label": ".model",
    "phase_code": ".model",
    "phase_from_code": ".model",
    "QoeProbe": ".streams",
    "SignalWindow": ".streams",
    "UserQoeSummary": ".streams",
    "WindowScore": ".streams",
    "BreachEvent": ".slo",
    "DEFAULT_SLO": ".slo",
    "SloReport": ".slo",
    "SloSpec": ".slo",
    "SloWindow": ".slo",
    "evaluate_slo": ".slo",
    "percentile": ".slo",
    "QoeCellResult": ".campaign",
    "build_qoe_plan": ".campaign",
    "run_qoe_cell": ".campaign",
    "RoomQoe": ".cohort",
    "cohort_score": ".cohort",
    "mean_mos_per_bin": ".cohort",
    "room_qoe": ".cohort",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    try:
        module_name = _EXPORTS[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        ) from None
    import importlib

    module = importlib.import_module(module_name, __name__)
    value = getattr(module, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
