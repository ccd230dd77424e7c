"""Command-line front end.

Subcommands mirror the library layers: ``validate`` (structure axioms),
``lattice`` (subspace algebra), ``sim`` (similarity), ``sigma`` (event
fields), ``prob`` (measures), ``rv`` (random variables) and ``suite``
(seeded law suites).

Exit codes: 0 all checks passed (or a value was computed), 1 at least one
check failed with a witness, 2 bad usage or malformed input, 3 nothing
failed but some result rests on sampling and could not be certified, 4 an
internal error (an exception that is not a typed ``SPError``; a bug, never
a verdict).

``--json`` reports are deterministic: sorted keys, two-space indent, no
timestamps or timings, so identical invocations are byte-identical.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from . import __version__
from . import io as spio
from . import lattice as lat
from . import measures as meas
from . import randomvars as rv_mod
from . import sigma as sig
from . import similarity as sim
from . import structures as core
from .axioms import ValidationBudget, validate_sp_axioms
from .errors import ClosureCapExceeded, FormatError, SPError, ValueUndefinedAtPoint
from .structures import FAIL, FAIL_CERTIFIED, PASS, SAMPLED_PASS
from .suites import SUITE_IDS, DEFAULT_SCALE, run_property_suite

OK = 0
CHECK_FAILED = 1
USAGE = 2
UNCERTIFIED = 3
INTERNAL = 4

# exit code of a report's overall verdict
_EXIT = {PASS: OK, SAMPLED_PASS: UNCERTIFIED, FAIL: CHECK_FAILED,
         FAIL_CERTIFIED: CHECK_FAILED}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed the message
        return OK if not exc.code else USAGE
    try:
        return args.handler(args)
    except (FormatError, ClosureCapExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE
    except SPError as exc:
        print(f"error: {exc.__class__.__name__}: {exc}", file=sys.stderr)
        return USAGE
    except Exception as exc:  # a bug, not a verdict: exit 1 needs a witness
        print(f"error: internal: {exc.__class__.__name__}: {exc}", file=sys.stderr)
        return INTERNAL


def run_command(argv) -> int:
    """Programmatic entry point used by the tests."""
    return main(list(argv))


def _emit(args, payload: dict, lines, code: int) -> int:
    if getattr(args, "json", False):
        payload["report_version"] = 1
        print(spio.dump_json(payload))
    else:
        for line in lines:
            print(line)
    return code


def _emit_report(args, payload: dict, report) -> int:
    """Emit a validator's report: one ``law: status`` line per check, its
    first witness, and the overall verdict, which also sets the exit code."""
    lines = []
    for c in report.checks:
        lines.append(f"{c.law}: {c.status}")
        if c.witness is not None:
            lines.append(f"  witness: {json.dumps(c.witness, sort_keys=True, default=str)}")
    lines.append(f"overall: {report.overall}")
    return _emit(args, payload, lines, _EXIT[report.overall])


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
    if isinstance(lit, str):
        lit = [lit]
    return spio.parse_subspace(st, lit)


def _add_json_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument("--json", action="store_true",
                   help="emit a deterministic JSON report")


def _command(sub, name: str, text: str, positionals: str, handler,
             **defaults) -> argparse.ArgumentParser:
    """A subcommand with the given positional arguments and ``--json``."""
    q = sub.add_parser(name, help=text)
    for arg in positionals.split():
        q.add_argument(arg)
    _add_json_flag(q)
    q.set_defaults(handler=handler, **defaults)
    return q


# ---------------------------------------------------------------------------
# validate


def _cmd_validate(args) -> int:
    st = spio.load_structure(args.structure)
    report = validate_sp_axioms(st, ValidationBudget(samples=args.samples,
                                                     seed=args.seed))
    payload = {"command": "validate",
               "structure": st.to_dict(),
               "report": spio.validate_report_to_dict(st, report)}
    return _emit_report(args, payload, report)


# ---------------------------------------------------------------------------
# lattice


def _cmd_lattice(args) -> int:
    st = spio.load_structure(args.structure)
    operands = [_subspace(st, raw) for raw in args.subspace]
    op = args.op
    if op == "sum":
        result = lat.join(*operands)
    elif op == "meet":
        result = lat.meet(*operands)
    elif op == "complement":
        result = lat.ortho_complement(operands[0])
    elif op == "orthomodular":
        inner, outer = operands
        nested = lat.is_subset(inner, outer)
        holds = lat.check_orthomodular(inner, outer)
        payload = {"command": "lattice", "op": op, "nested": nested,
                   "holds": holds}
        lines = [f"nested: {str(nested).lower()}",
                 f"orthomodular: {'pass' if holds else 'fail'}"]
        return _emit(args, payload, lines, OK if holds else CHECK_FAILED)
    else:  # demorgan
        holds = lat.check_de_morgan(operands[0], operands[1])
        payload = {"command": "lattice", "op": op, "holds": holds}
        lines = [f"de-morgan: {'pass' if holds else 'fail'}"]
        return _emit(args, payload, lines, OK if holds else CHECK_FAILED)
    payload = {"command": "lattice", "op": op, "dim": result.dim,
               "subspace": result.to_literal()}
    lines = [f"dim: {result.dim}", f"subspace: {json.dumps(result.to_literal())}"]
    return _emit(args, payload, lines, OK)


# ---------------------------------------------------------------------------
# sim


def _cmd_sim_tau(args) -> int:
    st = spio.load_structure(args.structure)
    x = _point(st, args.point)
    a = _subspace(st, args.a)
    b = _subspace(st, args.b)
    value = sim.tau(x, a, b)
    payload = {"command": "sim.tau", "value": value}
    return _emit(args, payload, [f"tau: {value!r}"], OK)


def _cmd_sim_subspace(args) -> int:
    st = spio.load_structure(args.structure)
    a = _subspace(st, args.a)
    b = _subspace(st, args.b)
    est = sim.subspace_similarity(a, b)
    payload = {"command": "sim.subspace", "estimate": est.as_dict()}
    lines = [f"similarity: {est.value!r} ({est.certainty})"]
    if est.witness is not None:
        lines.append(f"witness: {json.dumps(est.witness)}")
    return _emit(args, payload, lines, OK)


def _cmd_sim_continuity(args) -> int:
    st = spio.load_structure(args.structure)
    x = _point(st, args.x)
    y = _point(st, args.y)
    z = _point(st, args.z)
    residual = sim.check_point_continuity(st, x, y, z)
    holds = residual >= -core.TOL_EQ
    payload = {"command": "sim.continuity", "residual": residual,
               "holds": holds}
    lines = [f"residual: {residual!r}",
             f"continuity: {'pass' if holds else 'fail'}"]
    return _emit(args, payload, lines, OK if holds else CHECK_FAILED)


# ---------------------------------------------------------------------------
# sigma


def _cmd_sigma(args) -> int:
    st = spio.load_structure(args.structure)
    fld = spio.load_field(st, args.field, cap=args.cap)
    op = args.op
    if op == "generate":
        payload = {"command": "sigma.generate", "size": len(fld.events),
                   "field": spio.field_to_dict(fld),
                   "rounds": fld.closure_meta.get("rounds")}
        lines = [f"events: {len(fld.events)}"]
        lines += [f"  {json.dumps(e)}" for e in fld.to_literals()]
        return _emit(args, payload, lines, OK)
    if op == "validate":
        report = sig.validate_sigma_star(fld)
        payload = {"command": "sigma.validate", "size": len(fld.events),
                   "report": spio.field_report_to_dict(report)}
        return _emit_report(args, payload, report)
    if op == "atoms":
        ats = sig.atoms(fld)
        decomp = {}
        all_found = True
        for i, event in enumerate(fld.events):
            d = sig.atomic_decomposition(fld, event, ats)
            decomp[str(i)] = d
            all_found = all_found and d is not None
        payload = {"command": "sigma.atoms",
                   "atoms": [a.to_literal() for a in ats],
                   "decompositions": decomp}
        lines = [f"atoms: {len(ats)}"]
        lines += [f"  {json.dumps(a.to_literal())}" for a in ats]
        lines.append(f"decompositions: {'complete' if all_found else 'incomplete'}")
        return _emit(args, payload, lines, OK if all_found else CHECK_FAILED)
    # boolean
    witness = sig.distributivity_witness(fld)
    payload = {"command": "sigma.boolean", "boolean": witness is None,
               "witness": list(witness) if witness else None}
    lines = [f"boolean: {str(witness is None).lower()}"]
    if witness is not None:
        lines.append(f"witness triple: {list(witness)}")
    return _emit(args, payload, lines, OK)


# ---------------------------------------------------------------------------
# prob


def _cmd_prob(args) -> int:
    st = spio.load_structure(args.structure)
    op = args.op
    if op == "pure":
        p = meas.pure_state(st, _point(st, args.point))
        event = _subspace(st, args.event)
        value = meas.evaluate(p, event)
        payload = {"command": "prob.pure", "value": value}
        return _emit(args, payload, [f"probability: {value!r}"], OK)
    if op == "evaluate":
        p = spio.load_measure(st, args.measure)
        event = _subspace(st, args.event)
        value = meas.evaluate(p, event)
        payload = {"command": "prob.evaluate", "value": value,
                   "measure": p.describe()}
        return _emit(args, payload, [f"probability: {value!r}"], OK)
    if op == "mix":
        parts = []
        for w, path in args.component:
            try:
                weight = float(w)
            except ValueError:
                raise FormatError(f"component weight {w!r} is not a number") from None
            parts.append((weight, spio.load_measure(st, path)))
        p = meas.mix(parts)
        payload = {"command": "prob.mix", "measure": p.describe()}
        return _emit(args, payload,
                     [json.dumps(p.describe(), sort_keys=True)], OK)
    if op == "validate":
        p = spio.load_measure(st, args.measure)
        fld = spio.load_field(st, args.field) if args.field else None
        report = meas.validate_measure(p, fld, args.seed, args.event_samples)
        payload = {"command": "prob.validate",
                   "report": spio.measure_report_to_dict(report),
                   "measure": p.describe()}
        return _emit_report(args, payload, report)
    # equal
    p = spio.load_measure(st, args.measure)
    q = spio.load_measure(st, args.other)
    fld = spio.load_field(st, args.field) if args.field else None
    diff = meas.first_difference(p, q, fld, samples=args.event_samples,
                                 seed=args.seed)
    payload = {"command": "prob.equal", "equal": diff is None}
    lines = [f"equal: {str(diff is None).lower()}"]
    if diff is None:
        return _emit(args, payload, lines, OK)
    payload["witness"] = {"event": diff.to_literal(),
                          "measure": meas.evaluate(p, diff),
                          "other": meas.evaluate(q, diff)}
    lines.append(f"witness: {json.dumps(payload['witness'], sort_keys=True)}")
    return _emit(args, payload, lines, CHECK_FAILED)


# ---------------------------------------------------------------------------
# rv


def _cmd_rv(args) -> int:
    st = spio.load_structure(args.structure)
    op = args.op
    x_rv = spio.load_rv(st, args.rv)
    if op == "make":
        payload = {"command": "rv.make",
                   "values": list(x_rv.values),
                   "events": [e.to_literal() for e in x_rv.events]}
        lines = [f"outcomes: {len(x_rv.outcomes)}"]
        lines += [f"  {v!r} on {json.dumps(e.to_literal())}"
                  for v, e in x_rv.outcomes]
        return _emit(args, payload, lines, OK)
    if op == "eval":
        x = _point(st, args.point)
        try:
            value = rv_mod.eval_at_point(x_rv, x)
            payload = {"command": "rv.eval", "defined": True, "value": value}
            lines = [f"value: {value!r}"]
        except ValueUndefinedAtPoint:
            payload = {"command": "rv.eval", "defined": False, "value": None}
            lines = ["value: undefined at this point"]
        return _emit(args, payload, lines, OK)
    if op == "preimage":
        try:
            wanted = [float(v) for v in args.values.split(",")] if args.values else []
        except ValueError:
            raise FormatError(f"--values {args.values!r} is not a comma-separated "
                              "list of numbers") from None
        result = rv_mod.preimage(x_rv, wanted)
        payload = {"command": "rv.preimage", "dim": result.dim,
                   "subspace": result.to_literal()}
        lines = [f"dim: {result.dim}",
                 f"subspace: {json.dumps(result.to_literal())}"]
        return _emit(args, payload, lines, OK)
    if op == "expect":
        p = spio.load_measure(st, args.measure)
        exp = rv_mod.expectation(x_rv, p)
        payload = {"command": "rv.expect", "value": exp.value,
                   "contributions": [[v, pr] for v, pr in exp.contributions]}
        lines = [f"expectation: {exp.value!r}"]
        return _emit(args, payload, lines, OK)
    if op == "theorem":
        x = _point(st, args.point)
        residual = rv_mod.check_expect_theorem(x_rv, x)
        holds = abs(residual) <= core.TOL_EQ
        payload = {"command": "rv.theorem", "residual": residual,
                   "holds": holds}
        lines = [f"residual: {residual!r}",
                 f"expectation identity: {'pass' if holds else 'fail'}"]
        return _emit(args, payload, lines, OK if holds else CHECK_FAILED)
    # compatible
    y_rv = spio.load_rv(st, args.other)
    same = rv_mod.compatible(x_rv, y_rv)
    payload = {"command": "rv.compatible", "compatible": same}
    return _emit(args, payload, [f"compatible: {str(same).lower()}"], OK)


# ---------------------------------------------------------------------------
# suite


def _cmd_suite(args) -> int:
    start = time.perf_counter()
    report = run_property_suite(args.suite, seed=args.seed, scale=args.scale)
    wall = time.perf_counter() - start
    payload = {"command": "suite", "report": spio.suite_report_to_dict(
        args.suite, args.seed, args.scale, report)}
    lines = []
    for check in report.checks:
        lines.append(
            f"{check.law}: {check.status} "
            f"(trials={check.trials}, failures={check.failures}, "
            f"max_residual={check.max_residual:.3e})")
        for w in check.witnesses:
            lines.append(f"  witness: {json.dumps(w, sort_keys=True, default=str)}")
    lines.append(f"overall: {report.overall}")
    lines.append(f"wall time: {wall:.2f}s")
    return _emit(args, payload, lines, _EXIT[report.overall])


# ---------------------------------------------------------------------------
# parser


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="starprob",
        description="Similarity-projection sample spaces: validation, "
                    "subspace algebra, similarity, event fields, measures, "
                    "random variables.")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("validate", help="check the similarity axioms")
    p.add_argument("structure", help="structure JSON file")
    p.add_argument("--samples", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=0)
    _add_json_flag(p)
    p.set_defaults(handler=_cmd_validate)

    p = sub.add_parser("lattice", help="subspace algebra")
    p.add_argument("op", choices=["sum", "meet", "complement",
                                  "orthomodular", "demorgan"])
    p.add_argument("structure")
    p.add_argument("subspace", nargs="+", help="subspace literals (JSON)")
    _add_json_flag(p)
    p.set_defaults(handler=_cmd_lattice)

    p = sub.add_parser("sim", help="similarity between points and subspaces")
    sim_sub = p.add_subparsers(dest="sim_op", required=True)
    _command(sim_sub, "tau", "single-vantage comparison", "structure point a b",
             _cmd_sim_tau)
    _command(sim_sub, "subspace", "similarity of two subspaces", "structure a b",
             _cmd_sim_subspace)
    _command(sim_sub, "continuity", "pointwise continuity bound", "structure x y z",
             _cmd_sim_continuity)

    p = sub.add_parser("sigma", help="event fields")
    p.add_argument("op", choices=["generate", "validate", "atoms", "boolean"])
    p.add_argument("structure")
    p.add_argument("field", help="field JSON file (generators)")
    p.add_argument("--cap", type=int, default=None,
                   help="closure size cap (default 4096)")
    _add_json_flag(p)
    p.set_defaults(handler=_cmd_sigma)

    p = sub.add_parser("prob", help="probability measures")
    prob_sub = p.add_subparsers(dest="op", required=True)
    _command(prob_sub, "pure", "evaluate a point state", "structure point event",
             _cmd_prob, op="pure")
    _command(prob_sub, "evaluate", "evaluate a measure file",
             "structure measure event", _cmd_prob, op="evaluate")
    q = _command(prob_sub, "mix", "convex mixture of measures", "structure",
                 _cmd_prob, op="mix")
    q.add_argument("--component", nargs=2, metavar=("WEIGHT", "MEASURE"),
                   action="append", required=True)
    q = _command(prob_sub, "validate", "check the measure axioms",
                 "structure measure", _cmd_prob, op="validate")
    q.add_argument("--field", default=None)
    q.add_argument("--event-samples", type=int, default=200)
    q.add_argument("--seed", type=int, default=0,
                   help="seeds the events drawn when no field is given")
    q = _command(prob_sub, "equal", "compare two measures",
                 "structure measure other", _cmd_prob, op="equal")
    q.add_argument("--field", default=None)
    q.add_argument("--event-samples", type=int, default=200)
    q.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("rv", help="partial real random variables")
    rv_sub = p.add_subparsers(dest="op", required=True)
    for op, text, args in (
            ("make", "load and echo a random variable", ""),
            ("eval", "evaluate at a point (may be undefined)", "point"),
            ("preimage", "event of a value set", ""),
            ("expect", "expectation under a measure", "measure"),
            ("theorem", "expectation identity at a point", "point"),
            ("compatible", "joint refinement test", "other")):
        q = _command(rv_sub, op, text, f"structure rv {args}", _cmd_rv, op=op)
        if op == "preimage":
            q.add_argument("--values", default="", help="comma-separated values")

    p = sub.add_parser("suite", help="seeded property suites")
    p.add_argument("suite", choices=list(SUITE_IDS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--scale", type=int, default=DEFAULT_SCALE)
    _add_json_flag(p)
    p.set_defaults(handler=_cmd_suite)

    return parser


if __name__ == "__main__":
    sys.exit(main())
