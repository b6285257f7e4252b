"""repro.chaos: declarative fault injection and resiliency campaigns.

The robustness pillar on top of the measurement testbed: a scenario
catalog (:mod:`.scenarios`), a kernel-scheduled fault-injection engine
(:mod:`.inject`), a deterministic verdict layer (:mod:`.verdict`), and
campaign cells and plans (:mod:`.campaign`) that expand fault x intensity x
platform matrices through :mod:`repro.runner`.  See ``docs/CHAOS.md``.

Exports resolve lazily (PEP 562) so that importing the scenario
catalog alone — e.g. for CLI help text — does not pull in the full
testbed stack.
"""

_EXPORTS = {
    "build_chaos_plan": ".campaign",
    "run_chaos_cell": ".campaign",
    "FaultInjector": ".inject",
    "SCENARIOS": ".scenarios",
    "ChaosScenario": ".scenarios",
    "get_scenario": ".scenarios",
    "list_scenarios": ".scenarios",
    "register_scenario": ".scenarios",
    "scenario_index": ".scenarios",
    "ChaosVerdict": ".verdict",
    "compute_verdict": ".verdict",
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
