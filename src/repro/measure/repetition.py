"""Repeated experiments: cross-run aggregation (Sec. 3.2).

The paper reports "the averaged measurement results from more than 20
experiments". A single simulation run already averages within its
window; this module repeats whole experiments across seeds and
aggregates any numeric field of their results, yielding the mean,
standard deviation, and 95% confidence interval *across runs* — the
quantity the paper's tables actually print.

Repetition can run serially (the default) or fan the per-seed runs out
over worker processes via :mod:`repro.runner` (``parallel=True`` /
``max_workers=...``).  The parallel path uses exactly the same seeds
(``base_seed + index``) and the same aggregation, so it provably
returns the same :class:`RepeatedResult` the serial loop would — only
the wall-clock time changes.
"""

from __future__ import annotations

import dataclasses
import typing

from .stats import Summary, summarize


@dataclasses.dataclass
class RepeatedResult:
    """Per-field cross-run aggregates plus the raw per-run results."""

    runs: typing.List[typing.Any]
    aggregates: typing.Dict[str, Summary]

    def __getitem__(self, field: str) -> Summary:
        return self.aggregates[field]

    @property
    def n_runs(self) -> int:
        return len(self.runs)


def repeat(
    experiment: typing.Union[typing.Callable[..., typing.Any], str],
    n_runs: int = 20,
    base_seed: int = 0,
    fields: typing.Optional[typing.Sequence[str]] = None,
    parallel: bool = False,
    max_workers: typing.Optional[int] = None,
    cache_dir: typing.Optional[str] = None,
    **kwargs,
) -> RepeatedResult:
    """Run ``experiment(seed=...)`` ``n_runs`` times and aggregate.

    ``experiment`` is a callable or a name from the experiment
    registry.  ``fields`` selects which attributes of each run's
    result to aggregate; dotted paths reach into nested objects, and a
    field resolving to a :class:`Summary` contributes its mean. With
    ``fields=None`` every numeric/Summary attribute of the first
    result is aggregated.

    With ``parallel=True`` (or an explicit ``max_workers``) the runs
    execute on a process pool through :func:`repro.runner.run_campaign`
    with identical per-run seeds, and optionally reuse the on-disk
    campaign cache (``cache_dir``).
    """
    if n_runs < 1:
        raise ValueError(f"n_runs must be >= 1, got {n_runs}")
    if parallel or max_workers is not None:
        runs = _run_parallel(experiment, n_runs, base_seed, max_workers, cache_dir, kwargs)
    else:
        runner = _resolve(experiment)
        runs = [runner(seed=base_seed + index, **kwargs) for index in range(n_runs)]
    if fields is None:
        fields = _numeric_fields(runs[0])
        if not fields:
            raise ValueError(
                f"result of type {type(runs[0]).__name__} has no numeric or "
                f"Summary fields to aggregate; pass fields=... explicitly"
            )
    elif not fields:
        raise ValueError("fields must be None (auto-detect) or non-empty")
    aggregates = {}
    for field in fields:
        values = [_resolve_field(run, field) for run in runs]
        if len(values) == 1:
            # A single run has no cross-run spread: report a degenerate
            # summary explicitly (std 0, CI width 0) rather than leaning
            # on summarize()'s single-sample branch.
            aggregates[field] = Summary(mean=float(values[0]), std=0.0, count=1)
        else:
            aggregates[field] = summarize(values)
    return RepeatedResult(runs=runs, aggregates=aggregates)


def _resolve(
    experiment: typing.Union[typing.Callable[..., typing.Any], str],
) -> typing.Callable[..., typing.Any]:
    if callable(experiment):
        return experiment
    from .experiment import get_experiment

    return get_experiment(experiment).run


def _run_parallel(
    experiment: typing.Union[typing.Callable[..., typing.Any], str],
    n_runs: int,
    base_seed: int,
    max_workers: typing.Optional[int],
    cache_dir: typing.Optional[str],
    kwargs: typing.Mapping[str, typing.Any],
) -> typing.List[typing.Any]:
    # Imported here: repro.runner imports the experiment registry, which
    # lives beside this module.
    from ..runner import TaskSpec, run_campaign

    tasks = [
        TaskSpec.create(experiment, kwargs, seed=base_seed + index)
        for index in range(n_runs)
    ]
    campaign = run_campaign(
        tasks,
        parallel=True,
        max_workers=max_workers,
        cache_dir=cache_dir,
    )
    if not campaign.ok:
        first = campaign.failures[0]
        raise RuntimeError(
            f"{campaign.summary.failed}/{n_runs} repeated runs failed; "
            f"first failure ({first.spec.task_id}): {first.error}"
        )
    return campaign.values()


def _numeric_fields(result: typing.Any) -> typing.List[str]:
    """Names of numeric or Summary-valued attributes of ``result``."""
    fields = []
    if dataclasses.is_dataclass(result):
        names = [f.name for f in dataclasses.fields(result)]
    elif hasattr(result, "__dict__"):
        names = [n for n in vars(result) if not n.startswith("_")]
    else:
        return []
    for name in names:
        value = getattr(result, name)
        if isinstance(value, bool):
            continue
        if isinstance(value, (int, float, Summary)):
            fields.append(name)
    return fields


def _resolve_field(result: typing.Any, dotted: str) -> float:
    value = result
    for part in dotted.split("."):
        value = getattr(value, part)
    if isinstance(value, Summary):
        return value.mean
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"field {dotted!r} is not numeric: {value!r}")
    return float(value)
