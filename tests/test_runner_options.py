"""One declaration of the runner options, one range check everywhere.

``RunnerOptions`` is the only place the runner's options are declared;
``run_campaign``, the CLI's runner flags and the serve spec schema all
reject an out-of-range value with the same rule and message, before
any task runs.
"""

import json

import pytest

from repro.cli import main
from repro.measure.experiment import register_experiment, unregister_experiment
from repro.runner import CampaignPlan, RunnerOptions, run_campaign
from repro.serve.schema import validate_spec


def options_stub(seed=0):
    return {"seed": seed}


@pytest.fixture(autouse=True)
def _register_stub():
    register_experiment("options-stub", options_stub, artifact="test", replace=True)
    yield
    unregister_experiment("options-stub")


#: (RunnerOptions field, bad value, CLI flag, expected message)
BAD_VALUES = [
    ("timeout_s", -1, "--timeout", "'timeout_s' must be a positive number or null"),
    ("timeout_s", 0, "--timeout", "'timeout_s' must be a positive number or null"),
    ("max_workers", 0, "--workers", "'max_workers' must be a positive integer or null"),
    ("max_retries", -1, "--retries", "'max_retries' must be a non-negative integer"),
]

#: Per-subcommand argv that would run a small matrix if not rejected.
SUBCOMMANDS = {
    "campaign": ["campaign", "--experiments", "options-stub", "--no-cache"],
    "chaos": [
        "chaos", "--scenarios", "link-flap", "--platforms", "vrchat",
        "--intensities", "mild", "--no-cache",
    ],
    "qoe": ["qoe", "--platforms", "vrchat", "--duration", "5", "--no-cache"],
    # Port 1 on loopback is closed: a submission that got past the
    # local check would fail differently (a connection error).
    "submit": ["submit", "--url", "http://127.0.0.1:1", "--experiments", "options-stub"],
}


def _ids(case):
    return f"{case[0]}={case[1]}"


@pytest.mark.parametrize("case", BAD_VALUES, ids=_ids)
def test_run_campaign_rejects_before_any_task(case, tmp_path):
    field, value, _flag, message = case
    telemetry = tmp_path / "events.jsonl"
    plan = CampaignPlan.from_matrix(["options-stub"], seeds=range(2))
    with pytest.raises(ValueError, match=message):
        run_campaign(plan, telemetry_path=str(telemetry), **{field: value})
    assert not telemetry.exists()


#: Every subcommand with every bad value its flags can carry
#: (``submit`` has no ``--workers`` flag).
CLI_CASES = [
    pytest.param(command, case, id=f"{command}-{_ids(case)}")
    for command in sorted(SUBCOMMANDS)
    for case in BAD_VALUES
    if not (command == "submit" and case[2] == "--workers")
]


@pytest.mark.parametrize("command, case", CLI_CASES)
def test_cli_rejects_with_exit_2_before_any_task(command, case, tmp_path, capsys):
    _field, value, flag, message = case
    argv = SUBCOMMANDS[command] + [flag, str(value)]
    telemetry = tmp_path / "events.jsonl"
    if command != "submit":
        argv += ["--telemetry", str(telemetry)]
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert err == f"error: {message}\n"
    events = [json.loads(line) for line in telemetry.open()] if telemetry.exists() else []
    assert not [e for e in events if e["event"] == "task_start"]


@pytest.mark.parametrize("case", BAD_VALUES, ids=_ids)
def test_serve_spec_lists_the_same_error(case):
    field, value, _flag, message = case
    errors = validate_spec({"experiments": ["options-stub"], field: value})
    assert errors == [message]


def test_every_problem_is_reported_at_once():
    with pytest.raises(ValueError) as excinfo:
        RunnerOptions(parallel=1, max_workers=0, timeout_s=True, max_retries=-1)
    assert len(str(excinfo.value).split("; ")) == 4
    assert RunnerOptions.problems({"max_retries": True, "collect_obs": None}) == [
        "'collect_obs' must be a boolean",
        "'max_retries' must be a non-negative integer",
    ]


def test_use_cache_keyword_is_gone():
    plan = CampaignPlan.from_matrix(["options-stub"])
    with pytest.raises(TypeError, match="use_cache"):
        run_campaign(plan, parallel=False, use_cache=False)
