"""Golden CLI outputs: stdout and exit code of cheap invocations, replayed.

``tests/golden/cli.json`` holds one record per invocation: ``argv`` (with
fixture files written as ``fixtures/<name>``), the exact ``stdout`` and the
``exit`` code.  Every subcommand is covered on classical, explicit and ray
fixtures, including the broken ``bad3x3`` table (exits 1 and 2).  Slow
invocations (ray ``validate`` at 10k samples, ``suite sigma``) are left out
to keep the replay well under five seconds.

``tests/golden/cli_options.json`` pins the option strings of every command
path, so a new or removed flag shows up in review.

After a deliberate output or option change, rewrite both files with
``PYTHONPATH=src python tests/test_golden.py`` and review the diff.

The exit-code contract is checked on the recorded reports themselves,
without running anything: exit 1 needs a failed check that carries a
witness, and exit 3 needs checks that actually ran.
"""

import argparse
import contextlib
import io
import json
import pathlib

import pytest

from starprob.cli import _build_parser, run_command

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden" / "cli.json"
OPTIONS = GOLDEN.with_name("cli_options.json")
FIXTURES = GOLDEN.parents[2] / "fixtures"
CASES = json.loads(GOLDEN.read_text())


def _resolve(argv):
    return [str(FIXTURES / a[len("fixtures/"):]) if a.startswith("fixtures/")
            else a for a in argv]


@pytest.mark.parametrize("case", CASES,
                         ids=[" ".join(c["argv"]).replace("fixtures/", "")
                              for c in CASES])
def test_cli_output_is_unchanged(capsys, case):
    code = run_command(_resolve(case["argv"]))
    assert (code, capsys.readouterr().out) == (case["exit"], case["stdout"])


# the golden --json outputs that carry a validator or suite report
REPORTS = [c for c in CASES if c["stdout"].startswith("{")
           and "report" in json.loads(c["stdout"])]
_EXIT = {"pass": 0, "sampled-pass": 3, "fail": 1, "fail-certified": 1}


def _checks(report):
    """``(status, witnesses)`` per check, whichever report shape it is."""
    rows = (report["verdicts"].values() if "verdicts" in report
            else report["checks"])
    for row in rows:
        status = row.get("status") or ("pass" if row["ok"] else "fail")
        witnesses = row.get("witnesses") or (
            [row["witness"]] if "witness" in row else [])
        yield status, witnesses


@pytest.mark.parametrize("case", REPORTS,
                         ids=[" ".join(c["argv"]).replace("fixtures/", "")
                              for c in REPORTS])
def test_exit_code_follows_the_report(case):
    report = json.loads(case["stdout"])["report"]
    checks = list(_checks(report))
    overall = report.get("overall") or ("pass" if report["ok"] else "fail")
    assert case["exit"] == _EXIT[overall]
    if case["exit"] == 1:
        assert any(status in ("fail", "fail-certified") and witnesses
                   for status, witnesses in checks)
    if case["exit"] == 3:
        assert checks and report.get("checks_performed", 1) > 0


def test_report_goldens_cover_every_verdict_exit():
    assert {c["exit"] for c in REPORTS} == {0, 1, 3}


def option_surface(parser, path="starprob"):
    """``{command path: sorted option strings}`` for ``parser`` and every
    subcommand below it."""
    out = {path: sorted(s for a in parser._actions for s in a.option_strings)}
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                out.update(option_surface(sub, f"{path} {name}"))
    return out


def test_cli_option_surface():
    assert option_surface(_build_parser()) == json.loads(OPTIONS.read_text())


if __name__ == "__main__":
    for case in CASES:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            case["exit"] = run_command(_resolve(case["argv"]))
        case["stdout"] = out.getvalue()
    GOLDEN.write_text(json.dumps(CASES, indent=1) + "\n")
    OPTIONS.write_text(json.dumps(option_surface(_build_parser()), indent=1,
                                  sort_keys=True) + "\n")
