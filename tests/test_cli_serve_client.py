"""Serve-client subcommands on bad input from outside the program.

A missing or malformed spec file and an unreachable daemon each end in
one ``error:`` line on stderr and exit 2, never a traceback.
"""

import pytest

from repro.cli import main

#: Port 1 on loopback is closed, so connecting is refused at once.
UNREACHABLE = "http://127.0.0.1:1"


def _run(argv, capsys):
    code = main(argv)
    err = capsys.readouterr().err
    return code, err


def test_submit_missing_spec_file(tmp_path, capsys):
    missing = tmp_path / "missing.json"
    code, err = _run(["submit", "--url", UNREACHABLE, "--spec", str(missing)], capsys)
    assert code == 2
    assert err.startswith("error: ") and "missing.json" in err
    assert len(err.splitlines()) == 1


def test_submit_malformed_spec_file(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text("{not json")
    code, err = _run(["submit", "--url", UNREACHABLE, "--spec", str(spec)], capsys)
    assert code == 2
    assert err.startswith("error: ")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["submit", "--experiments", "features"],
        ["status"],
        ["status", "job-1"],
        ["artifacts", "job-1"],
    ],
    ids=lambda argv: " ".join(argv),
)
def test_unreachable_daemon(argv, capsys):
    code, err = _run(argv + ["--url", UNREACHABLE], capsys)
    assert code == 2
    assert err.startswith("error: ")
    assert len(err.splitlines()) == 1
