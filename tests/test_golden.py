"""Golden CLI outputs: stdout and exit code of cheap invocations, replayed.

``tests/golden/cli.json`` holds one record per invocation: ``argv`` (with
fixture files written as ``fixtures/<name>``), the exact ``stdout`` and the
``exit`` code.  Every subcommand is covered on classical, explicit and ray
fixtures, including the broken ``bad3x3`` table (exits 1 and 2).  Slow
invocations (``prob validate`` over 200 sampled classical events, ray
``validate`` at 10k samples, ``suite sigma``) are left out to keep the
replay well under five seconds.

After a deliberate output change, rewrite the expected fields with
``PYTHONPATH=src python tests/test_golden.py`` and review the diff.
"""

import contextlib
import io
import json
import pathlib

import pytest

from starprob.cli import run_command

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden" / "cli.json"
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


if __name__ == "__main__":
    for case in CASES:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            case["exit"] = run_command(_resolve(case["argv"]))
        case["stdout"] = out.getvalue()
    GOLDEN.write_text(json.dumps(CASES, indent=1) + "\n")
