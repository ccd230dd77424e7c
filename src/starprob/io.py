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
* sampler -- ``{"samples": n, "refine_top": k, "seed": s}``
"""

from __future__ import annotations

import json
import os
from typing import Any

from . import lattice as lat
from . import measures as meas
from . import structures as core
from .errors import FormatError, SPError
from .lattice import Subspace
from .sigma import DEFAULT_CAP, SigmaStarField, generate_sigma_star
from .randomvars import RealRandomVariable, make_rv
from .similarity import SamplerConfig
from .structures import SPStructure


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
        return SPStructure.explicit(doc["matrix"], labels=doc.get("points"))
    raise FormatError(f"unknown structure kind {kind!r}")


def _integer(doc: dict, kind: str, key: str) -> int:
    """``doc[key]`` as a JSON integer (not a bool, not a float)."""
    if key not in doc:
        raise FormatError(f"{kind} structure needs '{key}'")
    value = doc[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise FormatError(f"{kind} structure needs an integer '{key}', got {value!r}")
    return value


def structure_to_dict(st: SPStructure) -> dict:
    if st.kind == core.CLASSICAL:
        return {"kind": st.kind, "n": st.n}
    if st.kind == core.RAY:
        return {"kind": st.kind, "d": st.d}
    return {"kind": st.kind, "points": list(st.labels),
            "matrix": [[float(v) for v in row] for row in st.matrix]}


def parse_point(st: SPStructure, literal):
    if st.kind == core.RAY and not isinstance(literal, (list, tuple)):
        raise FormatError("ray points are vectors")
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
        if isinstance(exc, FormatError):
            raise
        raise FormatError(f"bad subspace literal: {exc}") from exc


def load_field(st: SPStructure, source, cap: int | None = None) -> SigmaStarField:
    doc = _load_json(source)
    if not isinstance(doc, dict) or "generators" not in doc:
        raise FormatError("field document needs 'generators'")
    gens = [parse_subspace(st, g) for g in doc["generators"]]
    use_cap = cap if cap is not None else int(doc.get("cap", DEFAULT_CAP))
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
            idx = int(key)
            if not 0 <= idx < len(fld.events):
                raise FormatError(f"event index {idx} out of range")
            values[idx] = float(v)
            seen.add(idx)
        if len(seen) != len(fld.events):
            raise FormatError("table measures need a value for every event")
        return meas.table_measure(fld, values)
    if kind == meas.PURE:
        if "point" not in doc:
            raise FormatError("pure measures need a point")
        return meas.pure_state(st, parse_point(st, doc["point"]), field=fld)
    if kind == meas.MIXED:
        comps = doc.get("components")
        if not isinstance(comps, list) or not comps:
            raise FormatError("mixed measures need components")
        try:
            return meas.mix([
                (float(w), meas.pure_state(st, parse_point(st, lit), field=fld))
                for w, lit in comps])
        except meas.WeightsNotConvex as exc:
            raise FormatError(str(exc)) from exc
    raise FormatError(f"unknown measure kind {kind!r}")


def load_rv(st: SPStructure, source) -> RealRandomVariable:
    doc = _load_json(source)
    if not isinstance(doc, dict) or "outcomes" not in doc:
        raise FormatError("random-variable document needs 'outcomes'")
    pairs = []
    for item in doc["outcomes"]:
        if "value" not in item or "event" not in item:
            raise FormatError("each outcome needs 'value' and 'event'")
        pairs.append((float(item["value"]), parse_subspace(st, item["event"])))
    try:
        return make_rv(st, pairs)
    except SPError as exc:
        if isinstance(exc, FormatError):
            raise
        raise FormatError(f"bad random variable: {exc}") from exc


def load_sampler(doc) -> SamplerConfig:
    if doc is None:
        return SamplerConfig()
    doc = _load_json(doc)
    return SamplerConfig(samples=int(doc.get("samples", 20_000)),
                         refine_top=int(doc.get("refine_top", 50)),
                         seed=int(doc.get("seed", 0)))


def dump_json(payload: dict) -> str:
    """Canonical report serialization: sorted keys, two-space indent."""
    return json.dumps(payload, indent=2, sort_keys=True)
