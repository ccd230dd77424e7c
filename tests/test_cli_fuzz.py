"""The CLI boundary under mutated inputs.

Each example takes one bundled invocation, mutates one JSON input file (one
node replaced by another JSON value, or one key or item dropped) and runs the
command.  Whatever the input, the exit code must keep the contract of
``starprob.cli``:

* it is one of 0, 1, 2 and 3; an internal error (4) fails the test;
* 1 comes with a failed check that carries a witness;
* 3 comes with checks that actually ran.

Budgets are small (``--samples``, ``--event-samples``) so the whole fuzz stays
within a few seconds; the hypothesis profile in ``conftest.py`` derandomizes
it.
"""

import contextlib
import io
import json
import math
import pathlib
import shutil

import pytest
from hypothesis import given
from hypothesis import strategies as hs

from starprob.cli import run_command

FIXTURES = pathlib.Path(__file__).resolve().parents[1] / "fixtures"

INVOCATIONS = [
    ["validate", "classical4.json", "--samples", "20"],
    ["validate", "explicit4.json", "--samples", "20"],
    ["validate", "ray2.json", "--samples", "20"],
    ["sigma", "generate", "ray2.json", "field_ray2_twolines.json"],
    ["sigma", "validate", "classical4.json", "field_classical4_singletons.json"],
    ["sigma", "validate", "ray2.json", "field_ray2_line.json"],
    ["sigma", "atoms", "explicit4.json", "field_explicit4_twopoints.json"],
    ["sigma", "boolean", "ray2.json", "field_ray2_twolines.json"],
    ["prob", "validate", "ray2.json", "measure_table_bad_additivity.json",
     "--event-samples", "5", "--samples", "50", "--refine-top", "1"],
    ["prob", "validate", "ray2.json", "measure_mix_axes.json",
     "--field", "field_ray2_twolines.json", "--samples", "50", "--refine-top", "1"],
    ["prob", "validate", "classical6.json", "measure_uniform6.json",
     "--event-samples", "5"],
    ["rv", "compatible", "ray2.json", "rv_pm45.json", "rv_axis.json"],
    ["rv", "compatible", "classical6.json", "rv_die6.json", "rv_die6.json"],
]

LEAVES = hs.one_of(
    hs.none(), hs.booleans(), hs.integers(min_value=-2, max_value=6),
    hs.sampled_from([0.5, -1.0, 1e300, math.nan, math.inf]),
    hs.sampled_from(["", "r0", "all", "abc"]),
    hs.just([]), hs.just({}))
VALUES = hs.one_of(LEAVES, hs.lists(LEAVES, min_size=1, max_size=3))


def _paths(node, prefix=()):
    """Every node of a JSON document, as the key/index path leading to it."""
    yield prefix
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield from _paths(child, prefix + (key,))


def _mutate(doc, path, value, drop):
    """``doc`` with the node at ``path`` replaced by ``value`` (or dropped)."""
    if not path:
        return value
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if drop:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """A copy of the fixtures, so relative field references still resolve."""
    out = tmp_path_factory.mktemp("fuzz")
    for f in FIXTURES.glob("*.json"):
        shutil.copy(f, out / f.name)
    return out


def _failed_with_witness(payload) -> bool:
    report = payload.get("report")
    if report is None:  # sigma atoms: an event without a decomposition
        return None in payload.get("decompositions", {}).values()
    rows = (report["verdicts"].values() if "verdicts" in report
            else report["checks"])
    return any((row.get("status") in ("fail", "fail-certified")
                or row.get("ok") is False) and row.get("witness") is not None
               for row in rows)


def _ran_checks(payload) -> bool:
    report = payload["report"]
    if "verdicts" in report:
        return report["checks_performed"] > 0
    return len(report["checks"]) > 0


@pytest.mark.parametrize("case", INVOCATIONS,
                         ids=[" ".join(c[:3]).replace(".json", "") for c in INVOCATIONS])
@given(data=hs.data(), value=VALUES, drop=hs.booleans())
def test_mutated_inputs_keep_the_exit_contract(workdir, case, data, value, drop):
    target = data.draw(hs.sampled_from(
        [i for i, a in enumerate(case) if a.endswith(".json")]), label="file")
    doc = json.loads((workdir / case[target]).read_text())
    path = data.draw(hs.sampled_from(list(_paths(doc))), label="path")
    mutated = _mutate(doc, path, value, drop and bool(path))
    (workdir / "mutated.json").write_text(json.dumps(mutated))
    argv = [str(workdir / a) if a.endswith(".json") else a for a in case]
    argv[target] = str(workdir / "mutated.json")

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run_command(argv + ["--json"])
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2, 3), err
    if code == 2:
        assert out == "" and err.startswith("error: ")
        return
    payload = json.loads(out)
    if code == 1:
        assert _failed_with_witness(payload), out
    if code == 3:
        assert _ran_checks(payload), out
