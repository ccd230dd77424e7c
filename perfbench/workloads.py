"""The three benchmark workloads: seeded inputs, the timed calls, the oracles.

Each workload is a fixed batch of items built from the seed.  ``run`` is
the timed part: it receives only generated inputs (numpy frames, point
lists, weights) and makes the calls a user of the library would make,
calling ``lap()`` between its stages so the runner can time each stage.
``check`` runs untimed and untraced, judges the answer with oracles that do
not depend on the code path that produced it, and returns a list of
problems (empty when the answer is correct).  ``summary`` reduces an answer
to rounded plain values for the result digest.

The batches are stratified: the seed draws the frames, point labels,
weights and values, while the mix of item shapes per batch is fixed.  That
keeps the work per batch, and so the timings, comparable across seeds.

Library functions are always reached through their module
(``lat.meet(...)``), so that the tracer's rebinding sees every call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from starprob import axioms as ax
from starprob import lattice as lat
from starprob import measures as meas
from starprob import randomvars as rv
from starprob import sigma as sig
from starprob import similarity as sim
from starprob import structures as core

TOL = 1e-9
SV_CUT = 1e-8  # numerical-rank cutoff of the numpy oracle (well-separated inputs)


@dataclass
class Item:
    """One query or case; ``shape`` names its stratum."""

    shape: str
    data: dict = field(default_factory=dict)


def _frame(rng: np.random.Generator, d: int, k: int) -> np.ndarray:
    """A random orthonormal ``d x k`` frame (sign-fixed QR of a Gaussian)."""
    if k == 0:
        return np.zeros((d, 0))
    q, r = np.linalg.qr(rng.standard_normal((d, k)))
    return q * np.where(np.diag(r) < 0, -1.0, 1.0)




# ---------------------------------------------------------------------------
# ray_lattice: the lattice law set on random-dimension triples

LATTICE_DIMS = (4, 8, 16, 32)


def lattice_items(rng: np.random.Generator, count: int) -> list[Item]:
    """Triples of subspaces of ``R^d``, ``d`` cycling over 4, 8, 16, 32.

    Per ``d`` the dimension triples are a fixed design that covers ``0..d``
    evenly in each slot, so every seed asks for the same amount of work; the
    seed draws the subspaces and the order of the items.
    """
    per_d = max(1, count // len(LATTICE_DIMS))
    specs = []
    for d in LATTICE_DIMS:
        ks = [(i * (d + 1)) // per_d for i in range(per_d)]
        specs += [(d, ks[i], ks[(5 * i + 3) % per_d], ks[(11 * i + 7) % per_d])
                  for i in range(per_d)]
    items = []
    for j in rng.permutation(len(specs)):
        d, *dims = specs[j]
        items.append(Item(f"d{d}", {"d": d, "frames": [_frame(rng, d, k) for k in dims]}))
    return items


def _no_lap() -> None:
    pass


def lattice_run(data: dict, lap=_no_lap) -> dict:
    d = data["d"]
    st = core.SPStructure.ray(d)
    a, b, c = (lat.from_span(st, f.T) for f in data["frames"])
    ca = lat.ortho_complement(a)
    ab_join = lat.join(a, b)
    ab_meet = lat.meet(a, b)
    lap()
    laws = {}
    laws["complement_partition"] = (lat.join(a, ca) == lat.full(st)
                                    and lat.meet(a, ca) == lat.empty(st))
    laws["involution"] = lat.ortho_complement(ca) == a
    laws["dimension_count"] = a.dim + ca.dim == d
    lap()
    laws["orthomodular"] = lat.check_orthomodular(a, ab_join)
    lap()
    laws["de_morgan"] = lat.check_de_morgan(a, b)
    lap()
    laws["absorption"] = lat.join(a, ab_meet) == a and lat.meet(a, ab_join) == a
    lap()
    laws["associativity"] = lat.join(ab_join, c) == lat.join(a, lat.join(b, c))
    lap()
    laws["associativity"] &= lat.meet(ab_meet, c) == lat.meet(a, lat.meet(b, c))
    lap()
    distributes = lat.distributes(a, b, c)
    return {"dims": (a.dim, b.dim, c.dim), "join_dim": ab_join.dim,
            "meet_dim": ab_meet.dim, "laws": laws, "distributes": distributes}


def _np_rank(m: np.ndarray) -> int:
    if m.size == 0:
        return 0
    sv = np.linalg.svd(m, compute_uv=False)
    return int(np.sum(sv > SV_CUT))


def _np_join(*frames: np.ndarray) -> np.ndarray:
    m = np.concatenate(frames, axis=1)
    if m.shape[1] == 0:
        return m
    u, sv, _ = np.linalg.svd(m, full_matrices=False)
    return u[:, : int(np.sum(sv > SV_CUT))]


def _np_meet(fa: np.ndarray, fb: np.ndarray) -> np.ndarray:
    d = fa.shape[0]
    resid = np.vstack([np.eye(d) - fa @ fa.T, np.eye(d) - fb @ fb.T])
    _, sv, vt = np.linalg.svd(resid)
    return vt[sv <= SV_CUT].T


def lattice_check(data: dict, ans: dict) -> list[str]:
    fa, fb, fc = data["frames"]
    problems = [f"law {k} does not hold" for k, ok in ans["laws"].items() if not ok]
    want_dims = tuple(f.shape[1] for f in data["frames"])
    if ans["dims"] != want_dims:
        problems.append(f"dims {ans['dims']} != input ranks {want_dims}")
    join_dim = _np_rank(np.concatenate([fa, fb], axis=1))
    if ans["join_dim"] != join_dim:
        problems.append(f"join dim {ans['join_dim']} != {join_dim}")
    if ans["meet_dim"] != fa.shape[1] + fb.shape[1] - join_dim:
        problems.append(f"meet dim {ans['meet_dim']} breaks the rank formula")
    lhs = _np_meet(fa, _np_join(fb, fc)).shape[1]
    rhs = _np_join(_np_meet(fa, fb), _np_meet(fa, fc)).shape[1]
    if ans["distributes"] != (lhs == rhs):
        problems.append(f"distributes={ans['distributes']} but dims {lhs} vs {rhs}")
    return problems


def lattice_summary(ans: dict) -> list:
    return [list(ans["dims"]), ans["join_dim"], ans["meet_dim"],
            sorted(k for k, ok in ans["laws"].items() if ok), ans["distributes"]]


def lattice_exact(ans: dict) -> tuple[int, int]:
    return 1, 1  # lattice laws are decided exactly


# ---------------------------------------------------------------------------
# ray_similarity: subspace similarity through the default branch choice

SAMPLED_SHARE = 0.15
LINE_SHARE = 0.30


def similarity_items(rng: np.random.Generator, count: int) -> list[Item]:
    """Pairs with ``d`` in 2..6, in three strata with fixed shares.

    ``sampled``: equal dimension ``2 <= k < d``, which the library hands to
    the sampler; ``lines``: two lines, exact ``cos^2``; ``unequal``: distinct
    dimensions in ``1..d-1``, exact 0 through the cross ``meet``.
    """
    n_sampled = round(count * SAMPLED_SHARE)
    n_lines = round(count * LINE_SHARE)
    n_unequal = count - n_sampled - n_lines
    sampled_shapes = [(d, k) for d in range(3, 7) for k in range(2, d)]
    unequal_shapes = [(d, ka, kb) for d in range(3, 7)
                      for ka in range(1, d) for kb in range(1, d) if ka != kb]
    specs = [("sampled", d, k, k) for d, k in
             (sampled_shapes[i % len(sampled_shapes)] for i in range(n_sampled))]
    specs += [("lines", 2 + i % 5, 1, 1) for i in range(n_lines)]
    specs += [("unequal",) + unequal_shapes[i % len(unequal_shapes)]
              for i in range(n_unequal)]
    items = []
    for j in rng.permutation(len(specs)):
        shape, d, ka, kb = specs[j]
        items.append(Item(shape, {"d": d, "frames": [_frame(rng, d, ka), _frame(rng, d, kb)]}))
    return items


def similarity_run(data: dict, lap=_no_lap) -> dict:
    st = core.SPStructure.ray(data["d"])
    a, b = (lat.from_span(st, f.T) for f in data["frames"])
    lap()
    est = sim.subspace_similarity(a, b)
    return {"est": est, "a": a, "b": b}


def similarity_check(data: dict, ans: dict) -> list[str]:
    est, a, b = ans["est"], ans["a"], ans["b"]
    fa, fb = data["frames"]
    problems = []
    if not 0.0 <= est.value <= 1.0:
        problems.append(f"value {est.value} outside [0, 1]")
    if fa.shape[1] == 1 and fb.shape[1] == 1:
        cos2 = float(np.dot(fa[:, 0], fb[:, 0])) ** 2
        if not est.is_exact or abs(est.value - cos2) > TOL:
            problems.append(f"line pair: {est.value} ({est.certainty}) != cos^2 {cos2}")
    if fa.shape[1] != fb.shape[1] and (not est.is_exact or est.value != 0.0):
        problems.append(f"unequal dimensions: {est.value} ({est.certainty}) != exact 0")
    if est.witness is not None:
        x = core.as_point(a.structure, est.witness)
        t = sim.tau(x, a, b)
        if est.is_exact and abs(t - est.value) > TOL:
            problems.append(f"exact witness gives tau {t} != {est.value}")
        if not est.is_exact and t < est.value - TOL:
            problems.append(f"sampled value {est.value} is below its witness's tau {t}")
    elif not est.is_exact:
        problems.append("sampled estimate without a witness")
    return problems


def similarity_summary(ans: dict) -> list:
    est = ans["est"]
    return [round(est.value, 9) + 0.0, est.certainty]


def similarity_exact(ans: dict) -> tuple[int, int]:
    return int(ans["est"].is_exact), 1


# ---------------------------------------------------------------------------
# discrete_fields: sigma*-fields, measures and random variables

# (n points, blocks) for classical cases; the field of a partition into k
# blocks has 2**k events and its Boolean scan tests (2**k)**3 triples.  The
# 16-event fields cost about a third of a second each, most of it in that
# scan.  Larger fields are left out: a 32-event field costs a second and a
# 64-event one eight, in single calls too long to time steadily on a shared
# machine.
CLASSICAL_SHAPES = ((3, 2), (3, 3), (4, 2), (4, 3), (5, 3), (6, 3), (6, 2),
                    (4, 4), (5, 4), (6, 4))
PLANE_SIZES = (4, 6, 12)


def plane_table(k: int) -> list[list[float]]:
    """Similarity table of ``k`` lines of the plane spaced ``180/k`` degrees."""
    ang = [math.pi * i / k for i in range(k)]
    return [[math.cos(x - y) ** 2 for y in ang] for x in ang]


def field_items(rng: np.random.Generator, count: int) -> list[Item]:
    """A third classical cases in a fixed shape cycle, the rest plane tables."""
    n_classical = max(1, count // 3)
    specs = [("classical",) + CLASSICAL_SHAPES[i % len(CLASSICAL_SHAPES)]
             for i in range(n_classical)]
    specs += [("explicit", PLANE_SIZES[i % len(PLANE_SIZES)], 2)
              for i in range(count - n_classical)]
    items = []
    for j in rng.permutation(len(specs)):
        kind, n, k = specs[j]
        if kind == "classical":
            labels = rng.permutation(n)
            cuts = np.sort(rng.choice(np.arange(1, n), size=k - 1, replace=False))
            blocks = [sorted(int(p) for p in blk) for blk in np.split(labels, cuts)]
            generators = [blocks[i] for i in rng.permutation(k)]
            data = {"kind": kind, "n": n, "generators": generators, "blocks": k}
        else:
            first = int(rng.integers(n))
            step = int(rng.choice([s for s in range(1, n) if 2 * s != n]))
            generators = [[first], [(first + step) % n]]
            data = {"kind": kind, "n": n, "matrix": plane_table(n),
                    "generators": generators}
        data["weights"] = rng.dirichlet(np.ones(n)).tolist()
        data["delta"] = float(rng.uniform(0.05, 0.2))
        data["values"] = rng.permutation(np.arange(-n, n + 1))[:n].tolist()
        items.append(Item(f"{kind}{n}/{k}", data))
    return items


def field_run(data: dict, lap=_no_lap) -> dict:
    if data["kind"] == "classical":
        st = core.SPStructure.classical(data["n"])
    else:
        st = core.SPStructure.explicit(data["matrix"])
    axioms = ax.validate_sp_axioms(st)
    lap()
    fld = sig.generate_sigma_star(st, data["generators"])
    lap()
    field_report = sig.validate_sigma_star(fld)
    lap()
    witness = sig.distributivity_witness(fld)
    lap()
    ats = sig.atoms(fld)
    decomps = [sig.atomic_decomposition(fld, e, ats) for e in fld.events]
    lap()

    mixture = meas.mix([(w, meas.pure_state(st, x))
                        for x, w in enumerate(data["weights"])])
    values = [meas.evaluate(mixture, e) for e in fld.events]
    twin = meas.table_measure(fld, values)
    broken_at = next(i for i, e in enumerate(fld.events)
                     if not e.is_empty and not e.is_full)
    broken_values = list(values)
    delta = data["delta"]
    broken_values[broken_at] += delta if values[broken_at] + delta <= 1.0 else -delta
    broken = meas.table_measure(fld, broken_values)
    lap()
    reports = []
    for p in (mixture, twin, broken):
        reports.append(meas.validate_measure(p, fld))
        lap()

    family = []
    for atom in ats:
        if all(lat.is_orthogonal(atom, f) for f in family):
            family.append(atom)
    variable = rv.make_rv(st, zip(data["values"], family))
    mean = rv.expectation(variable, mixture)
    return {"axioms": axioms.overall, "events": len(fld.events),
            "field_ok": field_report.ok, "witness": witness, "atoms": ats,
            "decomps": decomps, "reports": reports, "family": family,
            "mean": mean.value}


def field_check(data: dict, ans: dict) -> list[str]:
    problems = []
    if ans["axioms"] != "pass":
        problems.append(f"axiom validator says {ans['axioms']}")
    if not ans["field_ok"]:
        problems.append("validate_sigma_star failed")
    n_atoms = len(ans["atoms"])
    if data["kind"] == "classical":
        if ans["witness"] is not None:
            problems.append(f"classical field not Boolean: {ans['witness']}")
        if n_atoms != data["blocks"] or ans["events"] != 2 ** n_atoms:
            problems.append(f"{ans['events']} events, {n_atoms} atoms, "
                            f"{data['blocks']} blocks")
    else:
        if ans["witness"] is None:
            problems.append("field of two non-orthogonal lines reported Boolean")
        if ans["events"] != 6:
            problems.append(f"two-line field has {ans['events']} events, not 6")
    if any(dec is None for dec in ans["decomps"]):
        problems.append("an event has no atomic decomposition")
    mixture, twin, broken = ans["reports"]
    for name, rep in (("mixture", mixture), ("table twin", twin)):
        if rep.overall != "pass":
            problems.append(f"{name} measure: {rep.overall}")
    if broken.overall != "fail-certified" or not any(
            c.status == "fail-certified" and c.witness for c in broken.checks):
        problems.append(f"broken table: {broken.overall} without a witness")
    # p(atom) straight from the table and the weights, not through evaluate
    matrix = np.eye(data["n"]) if data["kind"] == "classical" else np.array(data["matrix"])
    weights = np.array(data["weights"])
    want = sum(v * float(weights @ matrix[:, list(atom.basis)].sum(axis=1))
               for v, atom in zip(data["values"], ans["family"]))
    if abs(ans["mean"] - want) > TOL:
        problems.append(f"expectation {ans['mean']} != sum v*p(atom) {want}")
    return problems


def field_summary(ans: dict) -> list:
    return [ans["axioms"], ans["events"], ans["field_ok"],
            list(ans["witness"]) if ans["witness"] else None,
            [a.to_literal() for a in ans["atoms"]], ans["decomps"],
            [[c.status for c in rep.checks] for rep in ans["reports"]],
            round(ans["mean"], 9) + 0.0]


def field_exact(ans: dict) -> tuple[int, int]:
    statuses = [c.status for rep in ans["reports"] for c in rep.checks]
    return sum(s in ("pass", "fail-certified") for s in statuses), len(statuses)


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    """How to build, run, judge and summarise one workload's items."""

    name: str
    items: Callable[[np.random.Generator, int], list[Item]]
    run: Callable[..., dict]
    check: Callable[[dict, dict], list[str]]
    summary: Callable[[dict], list]
    exact: Callable[[dict], tuple[int, int]]
    size: int  # items per batch


WORKLOADS = {
    "ray_lattice": Workload("ray_lattice", lattice_items, lattice_run,
                            lattice_check, lattice_summary, lattice_exact, 64),
    "ray_similarity": Workload("ray_similarity", similarity_items, similarity_run,
                               similarity_check, similarity_summary,
                               similarity_exact, 400),
    "discrete_fields": Workload("discrete_fields", field_items, field_run,
                                field_check, field_summary, field_exact, 60),
}
