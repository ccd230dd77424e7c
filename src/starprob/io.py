"""JSON interchange for structures, subspaces, fields, measures and variables.

Schemas:

* structure -- ``{"kind": "classical", "n": 4}``,
  ``{"kind": "ray", "d": 3}``, or
  ``{"kind": "explicit", "points": [...], "matrix": [[...], ...]}``
* subspace literal -- a list of point labels (discrete models) or a list of
  spanning vectors (ray model; canonicalized on load)
* field -- ``{"generators": [literal, ...], "cap": 4096}``
* measure -- ``{"kind": "table" | "pure" | "mixed", "field": <path or "all">,
  "values": {"<event index>": number}, "point": literal,
  "components": [[weight, literal], ...]}``
* random variable -- ``{"outcomes": [{"value": v, "event": literal}, ...]}``

Reports (one :class:`~starprob.structures.Report` of
:class:`~starprob.structures.Check` records) are written in four shapes:
``validate_report_to_dict`` (structure axioms, keyed by law),
``field_report_to_dict`` (sigma*-field closure, ``ok`` flags),
``measure_report_to_dict`` (measure axioms) and ``suite_report_to_dict``
(property suites, with counts).
"""

from __future__ import annotations

import json
import math
import os
from typing import Any

from . import lattice as lat
from . import measures as meas
from . import structures as core
from .errors import BudgetRequired, FormatError, SPError
from .lattice import Subspace
from .sigma import DEFAULT_CAP, SigmaStarField, generate_sigma_star
from .randomvars import RealRandomVariable, make_rv
from .structures import PASS, Report, SPStructure


def _load_json(source) -> Any:
    if isinstance(source, (dict, list)):
        return source
    try:
        with open(source) as fh:
            return json.load(fh)
    except OSError as exc:
        raise FormatError(f"cannot read {source}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise FormatError(f"{source} is not valid JSON: {exc}") from exc


def load_structure(source) -> SPStructure:
    doc = _load_json(source)
    if not isinstance(doc, dict) or "kind" not in doc:
        raise FormatError("structure document needs a 'kind' key")
    kind = doc["kind"]
    if kind == core.CLASSICAL:
        return SPStructure.classical(_integer(doc, "classical", "n"))
    if kind == core.RAY:
        return SPStructure.ray(_integer(doc, "ray", "d"))
    if kind == core.EXPLICIT:
        if "matrix" not in doc:
            raise FormatError("explicit structure needs 'matrix'")
        labels = doc.get("points")
        if labels is not None:
            _json_list(labels, "an explicit structure's 'points' must be a list")
        return SPStructure.explicit(doc["matrix"], labels=labels)
    raise FormatError(f"unknown structure kind {kind!r}")


def _integer(doc: dict, kind: str, key: str) -> int:
    """``doc[key]`` as a JSON integer (not a bool, not a float)."""
    if key not in doc:
        raise FormatError(f"{kind} structure needs '{key}'")
    return _json_int(doc[key], f"{kind} structure needs an integer '{key}'")


def _json_int(value, what: str) -> int:
    """``value`` if it is a JSON integer (not a bool, not a float)."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise FormatError(f"{what}, got {value!r}")
    return value


def _json_list(value, what: str) -> list:
    """``value`` if it is a JSON list."""
    if not isinstance(value, list):
        raise FormatError(f"{what}, got {value!r}")
    return value


def _json_number(value, what: str) -> float:
    """``value`` as a float if it is a finite JSON number (not a bool)."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not math.isfinite(value)):
        raise FormatError(f"{what}, got {value!r}")
    return float(value)


def parse_point(st: SPStructure, literal):
    try:
        return core.as_point(st, literal)
    except core.InvalidPoint as exc:
        raise FormatError(str(exc)) from exc


def parse_subspace(st: SPStructure, literal) -> Subspace:
    """A subspace from its literal form (canonicalized on load)."""
    if not isinstance(literal, (list, tuple)):
        raise FormatError("subspace literals are lists")
    try:
        return lat.from_points(st, literal)
    except SPError as exc:
        if isinstance(exc, (FormatError, BudgetRequired)):  # a budget, not the literal
            raise
        raise FormatError(f"bad subspace literal: {exc}") from exc


def load_field(st: SPStructure, source, cap: int | None = None) -> SigmaStarField:
    doc = _load_json(source)
    if not isinstance(doc, dict) or "generators" not in doc:
        raise FormatError("field document needs 'generators'")
    gens = [parse_subspace(st, g) for g in _json_list(
        doc["generators"], "a field's 'generators' must be a list")]
    use_cap = cap if cap is not None else _json_int(
        doc.get("cap", DEFAULT_CAP), "a field's 'cap' must be an integer")
    return generate_sigma_star(st, gens, cap=use_cap)


def field_to_dict(fld: SigmaStarField) -> dict:
    return {
        "generators": [g.to_literal() for g in fld.generators],
        "cap": fld.closure_meta.get("cap", DEFAULT_CAP),
        "events": fld.to_literals(),
    }


def load_measure(st: SPStructure, source,
                 base_dir: str | None = None) -> meas.ProbabilityMeasure:
    doc = _load_json(source)
    if isinstance(source, (str, os.PathLike)) and base_dir is None:
        base_dir = os.path.dirname(os.fspath(source))
    if not isinstance(doc, dict) or "kind" not in doc:
        raise FormatError("measure document needs a 'kind' key")
    fld = None
    ref = doc.get("field", "all")
    if not isinstance(ref, str):
        raise FormatError("a measure's 'field' must be a file path or \"all\"")
    if ref != "all":
        path = ref if os.path.isabs(ref) else os.path.join(base_dir or ".", ref)
        fld = load_field(st, path)
    kind = doc["kind"]
    if kind == meas.TABLE:
        if fld is None:
            raise FormatError("table measures need a field reference")
        raw = doc.get("values")
        if not isinstance(raw, dict):
            raise FormatError("table measures need a values object")
        values = [0.0] * len(fld.events)
        seen = set()
        for key, v in raw.items():
            try:
                idx = int(key)
            except ValueError:
                raise FormatError(f"event index {key!r} is not an integer") from None
            if not 0 <= idx < len(fld.events):
                raise FormatError(f"event index {idx} out of range")
            values[idx] = _json_number(v, f"event {idx} needs a finite number")
            seen.add(idx)
        if len(seen) != len(fld.events):
            raise FormatError("table measures need a value for every event")
        return meas.table_measure(fld, values)
    # a pure state is read as the mixture of its one point with weight one
    if kind == meas.PURE:
        if "point" not in doc:
            raise FormatError("pure measures need a point")
        comps = [[1.0, doc["point"]]]
    elif kind == meas.MIXED:
        comps = doc.get("components")
        if not isinstance(comps, list) or not comps or not all(
                isinstance(c, list) and len(c) == 2 for c in comps):
            raise FormatError("mixed measures need [weight, point] components")
    else:
        raise FormatError(f"unknown measure kind {kind!r}")
    try:
        return meas.mix([
            (_json_number(w, "component weights must be finite numbers"),
             meas.pure_state(st, parse_point(st, lit), field=fld))
            for w, lit in comps])
    except meas.WeightsNotConvex as exc:
        raise FormatError(str(exc)) from exc


def load_rv(st: SPStructure, source) -> RealRandomVariable:
    doc = _load_json(source)
    if not isinstance(doc, dict) or "outcomes" not in doc:
        raise FormatError("random-variable document needs 'outcomes'")
    pairs = []
    for item in _json_list(doc["outcomes"], "'outcomes' must be a list"):
        if not isinstance(item, dict) or "value" not in item or "event" not in item:
            raise FormatError("each outcome needs 'value' and 'event'")
        value = _json_number(item["value"], "outcome values must be finite numbers")
        pairs.append((value, parse_subspace(st, item["event"])))
    try:
        return make_rv(st, pairs)
    except SPError as exc:
        if isinstance(exc, FormatError):
            raise
        raise FormatError(f"bad random variable: {exc}") from exc


def _with_witness(check, out: dict) -> dict:
    if check.witness is not None:
        out["witness"] = check.witness
    return out


def validate_report_to_dict(st: SPStructure, report: Report) -> dict:
    """The structure-axiom report: one verdict per axiom, sorted by name."""
    return {
        "structure": st.summary(),
        "verdicts": {c.law: _with_witness(c, {"status": c.status,
                                              "checks": c.trials,
                                              "max_residual": c.max_residual})
                     for c in sorted(report.checks, key=lambda c: c.law)},
        "overall": report.overall,
        "checks_performed": sum(c.trials for c in report.checks),
    }


def field_report_to_dict(report: Report) -> dict:
    """The sigma*-field report: each closure law holds (``ok``) or not."""
    return {"checks": [_with_witness(c, {"name": c.law, "ok": c.status == PASS})
                       for c in report.checks],
            "ok": report.ok}


def measure_report_to_dict(report: Report) -> dict:
    """The measure-axiom report: one status per axiom."""
    return {"checks": [_with_witness(c, {"name": c.law, "status": c.status})
                       for c in report.checks],
            "overall": report.overall}


def suite_report_to_dict(suite: str, seed: int, scale: int,
                         report: Report) -> dict:
    """A property-suite report: per-law counts and up to three witnesses.
    ``inconclusive`` is always 0: report version 1 keeps the key, but every
    bound is decided on exact values."""
    return {
        "suite": suite,
        "seed": seed,
        "scale": scale,
        "checks": [{"law": c.law, "trials": c.trials, "failures": c.failures,
                    "inconclusive": 0,
                    "max_residual": c.max_residual, "status": c.status,
                    "witnesses": c.witnesses} for c in report.checks],
        "overall": report.overall,
    }


def dump_json(payload: dict) -> str:
    """Canonical report serialization: sorted keys, two-space indent."""
    return json.dumps(payload, indent=2, sort_keys=True)
