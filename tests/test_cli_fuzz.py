"""The CLI boundary under mutated inputs.

Each example takes one bundled invocation and mutates one of its inputs: a
JSON input file (one node replaced by another JSON value, or one key or item
dropped), a flag value (``--seed``, ``--samples``, ``--scale``, ``--cap``),
a ``prob mix`` component weight, or a point,
subspace or value literal of every ``lattice`` op, ``sim`` command, ``prob
pure``/``evaluate`` and ``rv eval``/``preimage``/``theorem``; or it drops or
repeats one such literal, so the operand count is wrong.  Then it runs the
command.  Whatever the input, the exit code must keep the
contract of ``starprob.cli``:

* it is one of 0, 1, 2 and 3; an internal error (4) fails the test;
* 2 prints nothing on stdout and an ``error:`` line on stderr (argparse's
  usage message when a flag value is no integer or a positional argument
  is missing or left over);
* 1 comes with a failed check that carries a witness (for a pass/fail
  verdict on the given operands, the operands are the witness);
* 3 comes with checks that actually ran;
* the stdout of 0, 1 and 3 is strict JSON: no ``NaN`` or ``Infinity``.

Budgets and flag values are small so the whole fuzz stays within a few
seconds; the hypothesis profile in ``conftest.py`` derandomizes it.
"""

import contextlib
import io
import json
import math
import pathlib
import shutil

import pytest
from hypothesis import given, settings
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
    ["prob", "validate", "ray2.json", "measure_table_bad_additivity.json"],
    ["prob", "validate", "ray2.json", "measure_mix_axes.json",
     "--field", "field_ray2_twolines.json"],
    ["prob", "validate", "classical6.json", "measure_uniform6.json"],
    ["rv", "compatible", "ray2.json", "rv_pm45.json", "rv_axis.json"],
    ["rv", "compatible", "classical6.json", "rv_die6.json", "rv_die6.json"],
    ["prob", "equal", "ray2.json", "measure_mix_axes.json",
     "measure_mix_diagonals.json"],
    ["prob", "equal", "ray2.json", "measure_pure_e1.json",
     "measure_mix_axes.json"],
    ["rv", "expect", "ray2.json", "rv_axis.json", "measure_table_bad_additivity.json"],
    # prob validate and prob equal take no flag value any more: their field-free
    # invocations are mutated through their files only
    ["prob", "validate", "ray2.json", "measure_pure_e1.json"],
]

# invocations whose flag values and literal arguments are mutated
ARGUMENT_INVOCATIONS = [
    ["validate", "ray2.json", "--samples", "20", "--seed", "0"],
    ["validate", "explicit4.json", "--samples", "20", "--seed", "0"],
    ["sim", "subspace", "ray3.json", "[[1, 0, 0], [0, 1, 0]]", "[[1, 0, 1]]"],
    ["sigma", "boolean", "ray2.json", "field_ray2_twolines.json", "--cap", "10"],
    ["sigma", "atoms", "explicit4.json", "field_explicit4_twopoints.json",
     "--cap", "10"],
    ["suite", "rv", "--seed", "0", "--scale", "2"],
    ["lattice", "sum", "classical4.json", "[0, 1]", "[2]"],
    ["lattice", "sum", "explicit4.json", "[\"r0\"]", "[\"r90\"]"],
    ["lattice", "sum", "ray2.json", "[[1, 0]]", "[[1, 1]]"],
    ["lattice", "meet", "ray3.json", "[[1, 0, 0], [0, 1, 0]]", "[[0, 1, 0], [0, 0, 1]]"],
    ["lattice", "complement", "explicit4.json", "r45"],
    ["lattice", "orthomodular", "classical4.json", "[0]", "[0, 1]"],
    ["lattice", "demorgan", "ray3.json", "[[1, 0, 0]]", "[[0, 1, 1]]"],
    ["sim", "tau", "ray3.json", "[1, 1, 0]", "[[1, 0, 0]]", "[[0, 1, 0]]"],
    ["sim", "continuity", "explicit4.json", "r0", "r45", "r90"],
    ["sim", "continuity", "ray2.json", "[1, 0]", "[0.96, 0.25]", "[0.83, -0.55]"],
    ["prob", "pure", "classical4.json", "2", "[1, 2]"],
    ["prob", "pure", "explicit4.json", "r0", "[\"r0\", \"r45\"]"],
    ["prob", "pure", "ray2.json", "[1, 0]", "[[1, 1]]"],
    ["prob", "evaluate", "classical6.json", "measure_uniform6.json", "[0, 1, 2]"],
    ["rv", "eval", "ray2.json", "rv_pm45.json", "[1, 0]"],
    ["rv", "preimage", "classical6.json", "rv_die6.json", "--values", "2,4,6"],
    ["rv", "theorem", "classical6.json", "rv_die6.json", "2"],
    ["prob", "mix", "ray2.json", "--component", "0.5", "measure_pure_e1.json",
     "--component", "0.5", "measure_mix_axes.json"],
]
FLAGS = ("--seed", "--samples", "--scale", "--cap")
WEIGHT = "--component"
LITERAL_COMMANDS = (("lattice", "sum"), ("lattice", "meet"), ("lattice", "complement"),
                    ("lattice", "orthomodular"), ("lattice", "demorgan"),
                    ("sim", "tau"), ("sim", "subspace"), ("sim", "continuity"),
                    ("prob", "pure"), ("prob", "evaluate"),
                    ("rv", "eval"), ("rv", "preimage"), ("rv", "theorem"))

LEAVES = hs.one_of(
    hs.none(), hs.booleans(), hs.integers(min_value=-2, max_value=6),
    hs.sampled_from([0.5, -1.0, 1e300, math.nan, math.inf]),
    hs.sampled_from(["", "r0", "all", "abc"]),
    hs.just([]), hs.just({}))
VALUES = hs.one_of(LEAVES, hs.lists(LEAVES, min_size=1, max_size=3))
# small counts only: a huge --samples or --scale is slow, not wrong
FLAG_VALUES = hs.one_of(
    hs.integers(min_value=-3, max_value=12).map(str),
    hs.sampled_from(["", "abc", "1.5", "1e3", "0x10", "nan", " 7", "-0"]))
SEED_VALUES = hs.one_of(FLAG_VALUES, hs.just(str(2 ** 64)))
RAW_LITERALS = hs.sampled_from(["", "abc", "r0", "[1, 0", "NaN", "true", "{}"])
# a weight is read by the program, not by argparse; "-inf" would parse as a flag
WEIGHT_VALUES = hs.one_of(FLAG_VALUES, hs.sampled_from(
    ["nan", "inf", "-0.5", "0.5", "Infinity", "1e308"]))


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
    if report is None:  # sigma atoms: an event without a decomposition;
        # prob equal: an event where the measures differ; a verdict on the
        # given operands (lattice, sim continuity, rv theorem): the operands
        return (None in payload.get("decompositions", {}).values()
                or payload.get("witness") is not None
                or payload.get("holds") is False)
    rows = (report["verdicts"].values() if "verdicts" in report
            else report["checks"])
    return any((row.get("status") in ("fail", "fail-certified")
                or row.get("ok") is False)
               and (row.get("witness") is not None or row.get("witnesses"))
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
    _assert_exit_contract(argv)


def _literal_targets(case):
    """Indices of the point, subspace and value literals of an invocation:
    past the structure file, neither a file nor a flag nor an integer flag's
    value."""
    if tuple(case[:2]) not in LITERAL_COMMANDS:
        return []
    return [i for i, a in enumerate(case)
            if i >= 3 and not a.endswith(".json") and not a.startswith("--")
            and case[i - 1] not in FLAGS]


def _argument_targets(case):
    """Indices of the flag values, weights and literal arguments of an invocation."""
    literals = _literal_targets(case)
    return [i for i in range(1, len(case))
            if case[i - 1] in FLAGS + (WEIGHT,) or i in literals]


def _is_int(text: str) -> bool:
    try:
        int(text)
    except ValueError:
        return False
    return True


@pytest.mark.parametrize("case", ARGUMENT_INVOCATIONS,
                         ids=[" ".join(c[:3]).replace(".json", "")
                              for c in ARGUMENT_INVOCATIONS])
@settings(max_examples=25)  # one to three targets per invocation
@given(data=hs.data(), value=VALUES, drop=hs.booleans())
def test_mutated_arguments_keep_the_exit_contract(workdir, case, data, value, drop):
    target = data.draw(hs.sampled_from(_argument_targets(case)), label="argument")
    argv = [str(workdir / a) if a.endswith(".json") else a for a in case]
    flag = case[target - 1] if case[target - 1] in FLAGS else None
    if flag:
        argv[target] = data.draw(SEED_VALUES if flag == "--seed" else FLAG_VALUES,
                                 label=flag)
    elif case[target - 1] == WEIGHT:
        argv[target] = data.draw(WEIGHT_VALUES, label="weight")
    elif data.draw(hs.booleans(), label="raw text"):
        argv[target] = data.draw(RAW_LITERALS, label="literal")
    else:
        try:
            doc = json.loads(case[target])
        except json.JSONDecodeError:  # a bare point label
            doc = case[target]
        path = data.draw(hs.sampled_from(list(_paths(doc))), label="path")
        argv[target] = json.dumps(_mutate(doc, path, value, drop and bool(path)))
    _assert_exit_contract(argv, usage=flag is not None and not _is_int(argv[target]))


COUNT_INVOCATIONS = [c for c in ARGUMENT_INVOCATIONS if _literal_targets(c)]


@pytest.mark.parametrize("case", COUNT_INVOCATIONS,
                         ids=[" ".join(c[:3]).replace(".json", "")
                              for c in COUNT_INVOCATIONS])
@settings(max_examples=6)
@given(data=hs.data(), repeat=hs.booleans())
def test_dropped_or_repeated_literals_keep_the_exit_contract(workdir, case, data,
                                                             repeat):
    target = data.draw(hs.sampled_from(_literal_targets(case)), label="literal")
    argv = [str(workdir / a) if a.endswith(".json") else a for a in case]
    if repeat:
        argv.insert(target, argv[target])
    else:
        del argv[target]
    code = _assert_exit_contract(argv, count=True)
    if case[0] == "lattice" and case[1] not in ("sum", "meet"):
        assert code == 2  # a fixed operand count is never padded or cut


def _not_json(constant):
    raise AssertionError(f"stdout is not strict JSON: it holds {constant}")


def _assert_exit_contract(argv, usage=False, count=False):
    """Run the command; ``usage`` says argparse must reject a flag value,
    ``count`` that argparse may reject the number of positional arguments."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run_command(argv + ["--json"])
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2, 3), err
    if usage:
        assert code == 2 and out == "" and err.startswith("usage: ")
        assert "error: argument" in err
        return code
    if code == 2:
        assert out == ""
        assert err.startswith("error: ") or (
            count and err.startswith("usage: ") and "error: " in err), err
        return code
    payload = json.loads(out, parse_constant=_not_json)
    if code == 1:
        assert _failed_with_witness(payload), out
    if code == 3:
        assert _ran_checks(payload), out
    return code
