"""Command-line front end.

Subcommands mirror the library layers: ``validate`` (structure axioms),
``lattice`` (subspace algebra), ``sim`` (similarity), ``sigma`` (event
fields), ``prob`` (measures), ``rv`` (random variables) and ``suite``
(seeded law suites).  Each command path has one handler.

Exit codes: 0 all checks passed (or a value was computed), 1 at least one
check failed with a witness, 2 bad usage or malformed input (a ``lattice``
op given the wrong number of subspaces too), 3 nothing failed but some
result rests on sampling and could not be certified, 4 an internal error
(an exception that is not a typed ``SPError``; a bug, never a verdict).

``--json`` reports are deterministic: sorted keys, two-space indent, no
timestamps or timings, so identical invocations are byte-identical.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from . import __version__
from . import io as spio
from . import lattice as lat
from . import measures as meas
from . import randomvars as rv_mod
from . import sigma as sig
from . import similarity as sim
from .axioms import ValidationBudget, validate_sp_axioms
from .errors import ClosureCapExceeded, FormatError, SPError, ValueUndefinedAtPoint
from .structures import FAIL, FAIL_CERTIFIED, PASS, SAMPLED_PASS, TOL_EQ
from .suites import SUITE_IDS, DEFAULT_SCALE, run_property_suite

OK, CHECK_FAILED, USAGE, UNCERTIFIED, INTERNAL = range(5)

# exit code of a report's overall verdict
_EXIT = {PASS: OK, SAMPLED_PASS: UNCERTIFIED, FAIL: CHECK_FAILED,
         FAIL_CERTIFIED: CHECK_FAILED}


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse already printed the message
        return OK if not exc.code else USAGE
    try:
        st = spio.load_structure(args.structure) if "structure" in args else None
        payload, lines, code = args.handler(args, st)
        _emit(spio.dump_json({**payload, "report_version": 1}) if args.json
              else "\n".join(lines))
        return code
    except (FormatError, ClosureCapExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE
    except SPError as exc:
        print(f"error: {exc.__class__.__name__}: {exc}", file=sys.stderr)
        return USAGE
    except Exception as exc:  # a bug, not a verdict: exit 1 needs a witness
        print(f"error: internal: {exc.__class__.__name__}: {exc}", file=sys.stderr)
        return INTERNAL


def _emit(text: str) -> None:
    """Print the answer.  A reader that closes stdout early is no fault of
    the program: the rest goes to the null device and the exit code stands."""
    try:
        print(text, flush=True)
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def run_command(argv) -> int:
    """Programmatic entry point used by the tests."""
    return main(list(argv))


# ---------------------------------------------------------------------------
# answers: a handler returns ``(payload, lines, exit code)``; ``main`` prints
# the payload (``--json``) or the lines.  Each emitter adds its answer.


def _value(payload: dict, label: str, value, text=None):
    return {**payload, "value": value}, [f"{label}: {text or repr(value)}"], OK


def _verdict(payload: dict, label: str, holds: bool, lines=()):
    """A check of the given operands, which are its witness when it fails."""
    return ({**payload, "holds": holds},
            [*lines, f"{label}: {'pass' if holds else 'fail'}"],
            OK if holds else CHECK_FAILED)


def _subspace_result(payload: dict, result):
    lines = [f"dim: {result.dim}", f"subspace: {json.dumps(result.to_literal())}"]
    return {**payload, "dim": result.dim, "subspace": result.to_literal()}, lines, OK


def _report_lines(report, counts: bool) -> list:
    """A ``law: status`` line per check, its witnesses, the overall verdict.
    A suite (``counts``) adds trials, failures and the largest residual to
    each check and lists every kept witness; a validator lists the first."""
    lines = []
    for c in report.checks:
        lines.append(f"{c.law}: {c.status}" + (
            f" (trials={c.trials}, failures={c.failures}, "
            f"max_residual={c.max_residual:.3e})" if counts else ""))
        lines += [f"  witness: {json.dumps(w, sort_keys=True, default=str)}"
                  for w in (c.witnesses if counts else c.witnesses[:1])]
    lines.append(f"overall: {report.overall}")
    return lines


def _literal(raw: str):
    """Inline JSON if it parses, otherwise the raw string (a point label)."""
    try:
        return json.loads(raw)
    except json.JSONDecodeError:
        return raw


def _point(st, raw: str):
    return spio.parse_point(st, _literal(raw))


def _subspace(st, raw: str):
    lit = _literal(raw)
    return spio.parse_subspace(st, [lit] if isinstance(lit, str) else lit)


# ---------------------------------------------------------------------------
# handlers, one per command path: ``handler(args, st)``


def _cmd_validate(args, st):
    report = validate_sp_axioms(st, ValidationBudget(args.samples, args.seed))
    payload = {"command": "validate", "structure": st.to_dict(),
               "report": spio.validate_report_to_dict(st, report)}
    return payload, _report_lines(report, counts=False), _EXIT[report.overall]


# subspaces each lattice op takes; None: one or more
_ARITY = {"sum": None, "meet": None, "complement": 1, "orthomodular": 2, "demorgan": 2}


def _cmd_lattice(args, st):
    op, count = args.op, _ARITY[args.op]
    if count and len(args.subspace) != count:
        raise FormatError(f"lattice {op} takes {count} subspace"
                          f"{'s' if count > 1 else ''}, got {len(args.subspace)}")
    operands = [_subspace(st, raw) for raw in args.subspace]
    payload = {"command": "lattice", "op": op}
    if op == "orthomodular":
        payload["nested"] = nested = lat.is_subset(*operands)
        return _verdict(payload, "orthomodular", lat.check_orthomodular(*operands),
                        [f"nested: {str(nested).lower()}"])
    if op == "demorgan":
        return _verdict(payload, "de-morgan", lat.check_de_morgan(*operands))
    # looked up per call, so a patched lattice function is the one that runs
    result = {"sum": lat.join, "meet": lat.meet,
              "complement": lat.ortho_complement}[op](*operands)
    return _subspace_result(payload, result)


def _cmd_sim_tau(args, st):
    value = sim.tau(_point(st, args.point), _subspace(st, args.a),
                    _subspace(st, args.b))
    return _value({"command": "sim.tau"}, "tau", value)


def _cmd_sim_subspace(args, st):
    est = sim.subspace_similarity(_subspace(st, args.a), _subspace(st, args.b))
    lines = [f"similarity: {est.value!r} ({est.certainty})"]
    if est.witness is not None:
        lines.append(f"witness: {json.dumps(est.witness)}")
    return {"command": "sim.subspace", "estimate": est.as_dict()}, lines, OK


def _cmd_sim_continuity(args, st):
    residual = sim.check_point_continuity(
        st, _point(st, args.x), _point(st, args.y), _point(st, args.z))
    return _verdict({"command": "sim.continuity", "residual": residual},
                    "continuity", residual >= -TOL_EQ,
                    [f"residual: {residual!r}"])


def _cmd_sigma(args, st):
    fld = spio.load_field(st, args.field, cap=args.cap)
    if args.op == "generate":
        payload = {"command": "sigma.generate", "size": len(fld.events),
                   "field": spio.field_to_dict(fld),
                   "rounds": fld.closure_meta.get("rounds")}
        lines = [f"events: {len(fld.events)}"]
        lines += [f"  {json.dumps(e)}" for e in fld.to_literals()]
        return payload, lines, OK
    if args.op == "validate":
        report = sig.validate_sigma_star(fld)
        payload = {"command": "sigma.validate", "size": len(fld.events),
                   "report": spio.field_report_to_dict(report)}
        return payload, _report_lines(report, counts=False), _EXIT[report.overall]
    if args.op == "atoms":
        ats = sig.atoms(fld)
        decomp = {str(i): sig.atomic_decomposition(fld, event, ats)
                  for i, event in enumerate(fld.events)}
        complete = None not in decomp.values()
        payload = {"command": "sigma.atoms", "decompositions": decomp,
                   "atoms": [a.to_literal() for a in ats]}
        lines = [f"atoms: {len(ats)}"]
        lines += [f"  {json.dumps(a.to_literal())}" for a in ats]
        lines.append(f"decompositions: {'complete' if complete else 'incomplete'}")
        return payload, lines, OK if complete else CHECK_FAILED
    witness = sig.distributivity_witness(fld)  # boolean
    payload = {"command": "sigma.boolean", "boolean": witness is None,
               "witness": list(witness) if witness else None}
    lines = [f"boolean: {str(witness is None).lower()}"]
    if witness is not None:
        lines.append(f"witness triple: {list(witness)}")
    return payload, lines, OK


def _cmd_prob_pure(args, st):
    p = meas.pure_state(st, _point(st, args.point))
    value = meas.evaluate(p, _subspace(st, args.event))
    return _value({"command": "prob.pure"}, "probability", value)


def _cmd_prob_evaluate(args, st):
    p = spio.load_measure(st, args.measure)
    value = meas.evaluate(p, _subspace(st, args.event))
    return _value({"command": "prob.evaluate", "measure": p.describe()},
                  "probability", value)


def _cmd_prob_mix(args, st):
    parts = []
    for w, path in args.component:
        try:
            weight = float(w)
        except ValueError:
            raise FormatError(f"component weight {w!r} is not a number") from None
        parts.append((weight, spio.load_measure(st, path)))
    p = meas.mix(parts)
    return ({"command": "prob.mix", "measure": p.describe()},
            [json.dumps(p.describe(), sort_keys=True)], OK)


def _cmd_prob_validate(args, st):
    p = spio.load_measure(st, args.measure)
    fld = spio.load_field(st, args.field) if args.field else None
    report = meas.validate_measure(p, fld)
    payload = {"command": "prob.validate", "measure": p.describe(),
               "report": spio.measure_report_to_dict(report)}
    return payload, _report_lines(report, counts=False), _EXIT[report.overall]


def _cmd_prob_equal(args, st):
    p, q = spio.load_measure(st, args.measure), spio.load_measure(st, args.other)
    fld = spio.load_field(st, args.field) if args.field else None
    diff = meas.first_difference(p, q, fld)
    payload = {"command": "prob.equal", "equal": diff is None}
    lines = [f"equal: {str(diff is None).lower()}"]
    if diff is None:
        return payload, lines, OK
    payload["witness"] = {"event": diff.to_literal(),
                          "measure": meas.evaluate(p, diff),
                          "other": meas.evaluate(q, diff)}
    lines.append(f"witness: {json.dumps(payload['witness'], sort_keys=True)}")
    return payload, lines, CHECK_FAILED


def _cmd_rv_make(args, st):
    x_rv = spio.load_rv(st, args.rv)
    payload = {"command": "rv.make", "values": list(x_rv.values),
               "events": [e.to_literal() for e in x_rv.events]}
    lines = [f"outcomes: {len(x_rv.outcomes)}"]
    lines += [f"  {v!r} on {json.dumps(e.to_literal())}" for v, e in x_rv.outcomes]
    return payload, lines, OK


def _cmd_rv_eval(args, st):
    x_rv, x = spio.load_rv(st, args.rv), _point(st, args.point)
    try:
        value = rv_mod.eval_at_point(x_rv, x)
    except ValueUndefinedAtPoint:
        return _value({"command": "rv.eval", "defined": False}, "value",
                      None, "undefined at this point")
    return _value({"command": "rv.eval", "defined": True}, "value", value)


def _cmd_rv_preimage(args, st):
    x_rv = spio.load_rv(st, args.rv)
    try:
        wanted = [float(v) for v in args.values.split(",")] if args.values else []
    except ValueError:
        raise FormatError(f"--values {args.values!r} is not a comma-separated "
                          "list of numbers") from None
    return _subspace_result({"command": "rv.preimage"}, rv_mod.preimage(x_rv, wanted))


def _cmd_rv_expect(args, st):
    x_rv = spio.load_rv(st, args.rv)
    exp = rv_mod.expectation(x_rv, spio.load_measure(st, args.measure))
    payload = {"command": "rv.expect",
               "contributions": [list(c) for c in exp.contributions]}
    return _value(payload, "expectation", exp.value)


def _cmd_rv_theorem(args, st):
    x_rv = spio.load_rv(st, args.rv)
    residual = rv_mod.check_expect_theorem(x_rv, _point(st, args.point))
    return _verdict({"command": "rv.theorem", "residual": residual},
                    "expectation identity", abs(residual) <= TOL_EQ,
                    [f"residual: {residual!r}"])


def _cmd_rv_compatible(args, st):
    same = rv_mod.compatible(spio.load_rv(st, args.rv), spio.load_rv(st, args.other))
    return ({"command": "rv.compatible", "compatible": same},
            [f"compatible: {str(same).lower()}"], OK)


def _cmd_suite(args, st):
    start = time.perf_counter()
    report = run_property_suite(args.suite, seed=args.seed, scale=args.scale)
    wall = time.perf_counter() - start
    payload = {"command": "suite", "report": spio.suite_report_to_dict(
        args.suite, args.seed, args.scale, report)}
    lines = [*_report_lines(report, counts=True), f"wall time: {wall:.2f}s"]
    return payload, lines, _EXIT[report.overall]


# ---------------------------------------------------------------------------
# parser


def _finish(p: argparse.ArgumentParser, handler) -> argparse.ArgumentParser:
    """Add ``--json`` and the handler of the command path ``p``."""
    p.add_argument("--json", action="store_true",
                   help="emit a deterministic JSON report")
    p.set_defaults(handler=handler)
    return p


def _command(sub, name: str, text: str, positionals: str, handler):
    """A subcommand with the given positional arguments and ``--json``."""
    q = sub.add_parser(name, help=text)
    for arg in positionals.split():
        q.add_argument(arg)
    return _finish(q, handler)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="starprob", description=(
        "Similarity-projection sample spaces: validation, subspace algebra, "
        "similarity, event fields, measures, random variables."))
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("validate", help="check the similarity axioms")
    p.add_argument("structure", help="structure JSON file")
    p.add_argument("--samples", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=0)
    _finish(p, _cmd_validate)

    p = sub.add_parser("lattice", help="subspace algebra")
    p.add_argument("op", choices=list(_ARITY))
    p.add_argument("structure")
    p.add_argument("subspace", nargs="+", help="subspace literals (JSON)")
    _finish(p, _cmd_lattice)

    p = sub.add_parser("sim", help="similarity between points and subspaces")
    sim_sub = p.add_subparsers(dest="sim_op", required=True)
    for name, text, args, handler in (
            ("tau", "single-vantage comparison", "point a b", _cmd_sim_tau),
            ("subspace", "similarity of two subspaces", "a b", _cmd_sim_subspace),
            ("continuity", "pointwise continuity bound", "x y z", _cmd_sim_continuity)):
        _command(sim_sub, name, text, f"structure {args}", handler)

    p = sub.add_parser("sigma", help="event fields")
    p.add_argument("op", choices=["generate", "validate", "atoms", "boolean"])
    p.add_argument("structure")
    p.add_argument("field", help="field JSON file (generators)")
    p.add_argument("--cap", type=int, help="closure size cap (default 4096)")
    _finish(p, _cmd_sigma)

    p = sub.add_parser("prob", help="probability measures")
    prob_sub = p.add_subparsers(dest="op", required=True)
    _command(prob_sub, "pure", "evaluate a point state", "structure point event",
             _cmd_prob_pure)
    _command(prob_sub, "evaluate", "evaluate a measure file",
             "structure measure event", _cmd_prob_evaluate)
    q = _command(prob_sub, "mix", "convex mixture of measures", "structure",
                 _cmd_prob_mix)
    q.add_argument("--component", nargs=2, metavar=("WEIGHT", "MEASURE"),
                   action="append", required=True)
    for name, text, args, handler in (
            ("validate", "check the measure axioms", "", _cmd_prob_validate),
            ("equal", "compare two measures", "other", _cmd_prob_equal)):
        q = _command(prob_sub, name, text, f"structure measure {args}", handler)
        q.add_argument("--field", default=None)

    p = sub.add_parser("rv", help="partial real random variables")
    rv_sub = p.add_subparsers(dest="op", required=True)
    for op, text, args, handler in (
            ("make", "load and echo a random variable", "", _cmd_rv_make),
            ("eval", "evaluate at a point (may be undefined)", "point", _cmd_rv_eval),
            ("preimage", "event of a value set", "", _cmd_rv_preimage),
            ("expect", "expectation under a measure", "measure", _cmd_rv_expect),
            ("theorem", "expectation identity at a point", "point", _cmd_rv_theorem),
            ("compatible", "joint refinement test", "other", _cmd_rv_compatible)):
        q = _command(rv_sub, op, text, f"structure rv {args}", handler)
        if op == "preimage":
            q.add_argument("--values", default="", help="comma-separated values")

    p = sub.add_parser("suite", help="seeded property suites")
    p.add_argument("suite", choices=list(SUITE_IDS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--scale", type=int, default=DEFAULT_SCALE)
    _finish(p, _cmd_suite)

    return parser


if __name__ == "__main__":
    sys.exit(main())
