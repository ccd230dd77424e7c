"""Similarity between subspaces.

From a vantage point ``x`` two subspaces compare as

* ``s(t(x,A), t(x,B))`` when ``x`` is orthogonal to neither,
* ``1 - s(x, B)`` when ``x`` is orthogonal to ``A`` only (and symmetrically),
* ``1`` when ``x`` is orthogonal to both,

and the subspace similarity ``s(A, B)`` is the infimum over all vantage
points.  Discrete models take the exact minimum over their finite point
set, and the structure's class answers it without a per-point loop.  An
explicit table compares every point at once in one pass over its matrix
(the row sums against both bases, the projections and the orthogonal
cases, then the first ``argmin``); where the table breaks an axiom,
:func:`tau` raises at the first point that breaks it, as a point-by-point
scan would.  The classical model gives 0 for distinct subspaces, attained
at the least point of their symmetric difference, and visits no point.
The ray model is exact for every pair: equal subspaces give 1; an empty or
full side and orthogonal operands give 0; two lines give the squared cosine
of their angle; and every other pair gives 0, attained at a vantage point
read from one SVD of the principal cosines: a point of one side orthogonal
to the other, or one built from the principal vectors (see
:func:`subspace_similarity`).

The seeded sampler :func:`sampled_similarity`, whose estimate is an upper
bound on the true infimum, stays as an independent oracle; no exact path
calls it.  Every bound is therefore a comparison of two exact floats,
decided by :func:`compare_leq` as ``pass`` or ``fail-certified``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import structures as core
from .errors import FormatError
from .lattice import (
    Subspace,
    is_orthogonal,
    ortho_complement,
    project,
    similarity_to_subspace,
)
from .structures import TOL_EQ, Point, SPStructure, ensure_same_structure, similarity
from .structures import FAIL_CERTIFIED, PASS, Check, Report, worst

EXACT = "exact"
SAMPLED = "upper-bound-sampled"

_REFINE_ITERS = 200
_REFINE_DECAY = 0.7
_REFINE_TOL = 1e-12
_REFINE_STEP0 = 0.25

# Orthogonality cutoff for *sampled* vantage points, on the squared projection
# mass.  At TOL_EQ every vantage with a component of ~3e-5 is "orthogonal",
# where the fallback 1 - s(x, B) dips ~6e-5 below the generic value and the
# refiner descends into it; at 1e-24 the band keeps sampled estimates upper
# bounds up to rounding.
_ORTH_EPS = 1e-24


@dataclass(frozen=True)
class SamplerConfig:
    """Budget for the vantage-point sampler (all fields pin determinism)."""

    samples: int = 20_000
    refine_top: int = 50
    seed: int = 0

    def __post_init__(self) -> None:
        for name, low in (("samples", 1), ("refine_top", 0), ("seed", 0)):
            if (value := getattr(self, name)) < low:
                raise FormatError(f"sampler needs {name} >= {low}, got {value}")


@dataclass(frozen=True)
class SimilarityEstimate:
    """A subspace-similarity value plus how much to trust it.

    ``certainty`` is ``"exact"`` or ``"upper-bound-sampled"``; a sampled
    value never undershoots the true infimum by more than rounding noise.
    """

    value: float
    certainty: str
    witness: list | None = None

    @property
    def is_exact(self) -> bool:
        return self.certainty == EXACT

    def as_dict(self) -> dict:
        out = {"value": self.value, "certainty": self.certainty}
        if self.witness is not None:
            out["witness"] = self.witness
        return out


def exact(value: float, witness=None) -> SimilarityEstimate:
    return SimilarityEstimate(value=float(value), certainty=EXACT, witness=witness)


# ---------------------------------------------------------------------------
# vantage comparison


def tau(x: Point, a: Subspace, b: Subspace) -> float:
    """Compare ``a`` and ``b`` from the single vantage point ``x``."""
    ensure_same_structure(a.structure, b.structure)
    st = a.structure
    sxa = similarity_to_subspace(x, a)
    sxb = similarity_to_subspace(x, b)
    orth_a = sxa <= TOL_EQ
    orth_b = sxb <= TOL_EQ
    if orth_a and orth_b:
        return 1.0
    if orth_a:
        return 1.0 - sxb
    if orth_b:
        return 1.0 - sxa
    ta = project(x, a)
    tb = project(x, b)
    return st.similarity(ta, tb)


# ---------------------------------------------------------------------------
# subspace similarity


def subspace_similarity(a: Subspace, b: Subspace) -> SimilarityEstimate:
    """``s(A, B)``: the infimum of the vantage comparison over all points.

    Exact on every model.  Symmetric in its arguments, 1 exactly when
    ``A = B``.

    Two ray lines ``span(u)`` and ``span(v)`` are answered right after the
    orthogonality test, which failed, so ``c^2 > TOL_EQ`` for ``c = u . v``:
    neither line holds a point orthogonal to the other.

    Every other ray pair gives ``s(A, B) = 0``, attained at a vantage point
    read from one SVD of ``F_A^T F_B``: the principal cosines ``c_i`` and
    vectors ``u_i`` of ``A`` and ``v_i`` of ``B``, with
    ``u_i . v_j = c_i [i = j]`` (Bjorck & Golub, Math. Comp. 1973).  A point
    of one side orthogonal to the other compares them at ``1 - 1 = 0``:
    ``u_last`` when ``dim A > dim B`` (``F_B^T`` annihilates it),
    ``v_last`` when ``dim B > dim A``, or when the dimensions are equal and
    ``c_last^2 <= TOL_EQ``.

    Proof for the rest, of equal dimension ``2 <= k < d`` and every
    ``c_i^2 > TOL_EQ``.  For ``x`` seen from both sides,
    ``P_A x . P_B x = x.S.x`` with ``S = (P_A P_B + P_B P_A)/2``, so
    ``tau(x) = 0`` exactly when ``x.S.x = 0``.  ``S`` splits over orthogonal
    pieces invariant under both projectors: it is 0 on ``(A + B)'``, 1 on
    each shared direction (``c_i = 1``), and on each plane
    ``span(u_i, v_i)`` with ``c = c_i < 1`` it has the eigenpairs
    ``c(1 + c)/2`` at ``u_i + v_i`` and ``-c(1 - c)/2 < 0`` at
    ``u_i - v_i``.  ``A != B`` gives such a plane ``i``, with
    ``w- ~ u_i - v_i`` at ``l- < 0``, and as ``k >= 2`` any ``j != i`` gives
    ``w+ ~ u_j + v_j`` at ``l+ > 0`` in another piece.  Then
    ``x = sqrt(l+) w- + sqrt(-l-) w+`` has ``x.S.x = 0``, and ``P_A x``,
    ``P_B x`` are non-zero, since ``w-`` alone already projects to non-zero
    vectors on both sides and ``w+`` adds a part in an orthogonal piece.
    Inside a single plane the same recipe gives an ``x`` orthogonal to
    ``u_i`` or to ``v_i``, which is why two lines keep ``c^2``.

    :func:`_zero_witness` tries the pairs and re-checks the winner on the
    projections :func:`tau` compares.  For unequal subspaces whose principal
    angles ``g`` all lie below ``sqrt(2 TOL_EQ)``, about 4.5e-5, none passes:
    a zero witness shows one side about ``g^2/2 < TOL_EQ`` of its mass,
    which ``tau`` reads as orthogonal.  The value is still 0 by the proof,
    returned without a witness.
    """
    ensure_same_structure(a.structure, b.structure)
    st = a.structure
    if a == b:
        return exact(1.0)
    if st.kind != core.RAY:
        return _discrete_similarity(st, a, b)
    if a.is_empty or b.is_empty:
        # one side empty, the other not: any point of the other side gives 0
        return exact(0.0)
    if a.is_full or b.is_full:
        other = b if a.is_full else a
        wit = ortho_complement(other).basis_points()[0]
        return exact(0.0, witness=np.asarray(wit).tolist())
    if is_orthogonal(a, b):
        return exact(0.0, witness=np.asarray(a.basis_points()[0]).tolist())
    if a.dim == 1 and b.dim == 1:
        dot = float(np.dot(a.frame[:, 0], b.frame[:, 0]))
        return exact(min(1.0, dot * dot))
    return exact(0.0, witness=_zero_witness(a, b))


def ordered_similarities(subs, table: dict | None = None):
    """``(i, j, s(subs[i], subs[j]))`` for every ordered pair of distinct
    subspaces, row by row.  ``s`` is exact and symmetric, so each unordered
    pair is computed once and serves both orders.

    ``table`` keeps the estimates, keyed by the index pair ``(i, j)`` with
    ``i < j``; pass one (a field's ``similarities``) to share them with
    later scans of the same ``subs``."""
    table = {} if table is None else table
    for i, a in enumerate(subs):
        for j, b in enumerate(subs):
            if b is a:
                continue
            key = (i, j) if i < j else (j, i)
            est = table.get(key)
            if est is None:
                est = table[key] = subspace_similarity(a, b)
            yield i, j, est


def _zero_witness(a: Subspace, b: Subspace) -> list | None:
    """A vantage point with ``tau = 0`` as a list, if found, from one SVD of
    ``F_A^T F_B``, as :func:`subspace_similarity` builds it.  Pairs ``(i, j)``
    are tried from the most negative ``l-`` and the largest ``l+``; one is
    kept when more than ``TOL_EQ`` of its mass projects onto each side and
    its projections ``P x = F (F^T x)`` are orthogonal within ``TOL_EQ``,
    ``(P_A x . P_B x)^2 <= TOL_EQ |P_A x|^2 |P_B x|^2``: the ``cos^2`` that
    :func:`tau` reads between them, from the frames in hand."""
    fa, fb = a.frame, b.frame
    u, cos, vt = np.linalg.svd(fa.T @ fb)
    if a.dim > b.dim:
        return a.structure.as_point(fa @ u[:, -1]).tolist()
    if a.dim < b.dim or cos[-1] ** 2 <= TOL_EQ:
        return b.structure.as_point(fb @ vt[-1]).tolist()
    pu, pv = fa @ u, fb @ vt.T
    lam_neg, lam_pos = -cos * (1.0 - cos) / 2.0, cos * (1.0 + cos) / 2.0
    for i in np.argsort(lam_neg, kind="stable"):
        if lam_neg[i] >= 0.0:
            break
        w_neg = _unit(pu[:, i] - pv[:, i])
        for j in range(len(cos)):  # every c_j^2 > TOL_EQ; cos falls, l+ with it
            if j == i:
                continue
            x = _unit(math.sqrt(lam_pos[j]) * w_neg
                      + math.sqrt(-lam_neg[i]) * _unit(pu[:, j] + pv[:, j]))
            if min(np.sum((x @ fa) ** 2), np.sum((x @ fb) ** 2)) <= TOL_EQ:
                continue
            pt = a.structure.as_point(x)
            pa, pb = fa @ (fa.T @ pt), fb @ (fb.T @ pt)
            if np.dot(pa, pb) ** 2 <= TOL_EQ * np.dot(pa, pa) * np.dot(pb, pb):
                return pt.tolist()
    return None


def _unit(v: np.ndarray) -> np.ndarray:
    return v / np.linalg.norm(v)


def _discrete_similarity(st: SPStructure, a: Subspace, b: Subspace) -> SimilarityEstimate:
    """The exact minimum of :func:`tau` over the finite point set, and the
    first point attaining it, from the structure's one-pass kernel."""
    value, x = st.vantage_minimum(a, b)
    if value is None:
        # the table breaks an axiom at x: tau raises what a per-point scan meets first
        tau(x, a, b)
        raise AssertionError(f"the vantage kernel flagged point {x}, which tau accepts")
    return exact(value, witness=st.labels[x])


def sampled_similarity(a: Subspace, b: Subspace,
                       cfg: SamplerConfig | None = None) -> SimilarityEstimate:
    """Upper-bound estimate of ``s(A, B)`` for the ray model.

    Draws a prefix-stable stream of uniform sphere points (so a larger
    budget with the same seed can only lower the estimate), always includes
    the frame columns of both operands as vantage candidates, then polishes
    the best few candidates by projected coordinate descent on the sphere.
    """
    cfg = cfg or SamplerConfig()
    st = a.structure
    d = st.d
    rng = np.random.default_rng(cfg.seed)
    xs = rng.standard_normal((cfg.samples, d))
    norms = np.linalg.norm(xs, axis=1)
    keep = norms > 1e-12
    xs = xs[keep] / norms[keep, None]

    anchors = [a.frame[:, i] for i in range(a.dim)]
    anchors += [b.frame[:, i] for i in range(b.dim)]
    xs = np.vstack([np.stack(anchors), xs])

    values = _tau_batch(xs, a.frame, b.frame)
    order = np.argsort(values, kind="stable")
    best_value = float(values[order[0]])
    best_x = xs[order[0]]

    for idx in order[: max(1, cfg.refine_top)]:
        v, x = _refine(xs[idx], float(values[idx]), a.frame, b.frame)
        if v < best_value:
            best_value, best_x = v, x

    return SimilarityEstimate(
        value=float(min(1.0, max(0.0, best_value))),
        certainty=SAMPLED,
        witness=st.as_point(best_x).tolist(),
    )


def _tau_batch(xs: np.ndarray, fa: np.ndarray, fb: np.ndarray) -> np.ndarray:
    """Vectorized vantage comparison for rows of ``xs`` (unit vectors)."""
    ca = xs @ fa  # components in A
    cb = xs @ fb
    sa = np.sum(ca ** 2, axis=1)
    sb = np.sum(cb ** 2, axis=1)
    orth_a = sa <= _ORTH_EPS
    orth_b = sb <= _ORTH_EPS
    generic = ~(orth_a | orth_b)

    out = np.ones(len(xs))
    out[orth_a & ~orth_b] = 1.0 - sb[orth_a & ~orth_b]
    out[orth_b & ~orth_a] = 1.0 - sa[orth_b & ~orth_a]
    if np.any(generic):
        pa = ca[generic] @ fa.T  # projections onto A
        pb = cb[generic] @ fb.T
        na = np.linalg.norm(pa, axis=1)
        nb = np.linalg.norm(pb, axis=1)
        dots = np.sum(pa * pb, axis=1) / (na * nb)
        out[generic] = dots ** 2
    return out


def _tau_single(x: np.ndarray, fa: np.ndarray, fb: np.ndarray) -> float:
    ca = x @ fa
    cb = x @ fb
    sa = float(np.sum(ca ** 2))
    sb = float(np.sum(cb ** 2))
    if sa <= _ORTH_EPS and sb <= _ORTH_EPS:
        return 1.0
    if sa <= _ORTH_EPS:
        return 1.0 - sb
    if sb <= _ORTH_EPS:
        return 1.0 - sa
    pa = fa @ ca
    pb = fb @ cb
    dot = float(np.dot(pa, pb) / (np.linalg.norm(pa) * np.linalg.norm(pb)))
    return dot * dot


def _refine(x0: np.ndarray, v0: float, fa: np.ndarray,
            fb: np.ndarray) -> tuple[float, np.ndarray]:
    """Coordinate descent on the sphere; deterministic, only ever improves."""
    x = x0.copy()
    best = v0
    step = _REFINE_STEP0
    d = len(x)
    for _ in range(_REFINE_ITERS):
        gained = 0.0
        for j in range(d):
            for sign in (1.0, -1.0):
                cand = x.copy()
                cand[j] += sign * step
                norm = float(np.linalg.norm(cand))
                if norm < 1e-12:
                    continue
                cand /= norm
                v = _tau_single(cand, fa, fb)
                if v < best:
                    gained += best - v
                    best, x = v, cand
        if gained < _REFINE_TOL:
            break
        step *= _REFINE_DECAY
    return best, x


# ---------------------------------------------------------------------------
# exact bounds


def compare_leq(lhs: float, rhs: float) -> str:
    """Verdict for ``lhs <= rhs`` on two exact values: ``pass`` within
    ``TOL_EQ``, else ``fail-certified``."""
    return PASS if lhs <= rhs + TOL_EQ else FAIL_CERTIFIED


def continuity_rhs(base: float, link: float) -> float:
    """``base + sqrt(1 - s)/2 + (1 - s)`` for the link similarity ``s``."""
    return base + 0.5 * math.sqrt(max(0.0, 1.0 - link)) + (1.0 - link)


# ---------------------------------------------------------------------------
# theorem checks


def check_similarity_theorems(a: Subspace, b: Subspace, c: Subspace) -> Report:
    """Exercise the subspace-similarity laws on one triple.

    Checks, on exact values: the vantage bound (a member of
    ``A`` can only over-estimate ``s(A, B)``), the identity characterization
    (``s(A, B) = 1`` exactly for equal subspaces), and the triangle-like
    continuity bound ``s(A,B) <= s(A,C) + sqrt(1 - s(B,C))/2 + (1 - s(B,C))``.
    """
    s_ab = subspace_similarity(a, b)
    s_ac = subspace_similarity(a, c)
    s_bc = subspace_similarity(b, c)

    # membership vantage bound
    detail: dict = {"pairs": []}
    for x in a.basis_points():
        sxb = similarity_to_subspace(x, b)
        detail["pairs"].append({"s_xB": sxb, "verdict": compare_leq(s_ab.value, sxb)})
    vantage = Check("similarity.vantage_bound",
                    worst(pair["verdict"] for pair in detail["pairs"]), detail=detail)

    # identity characterization
    equal = a == b
    ok = abs(s_ab.value - 1.0) <= TOL_EQ if equal else s_ab.value < 1.0 - TOL_EQ
    identity = Check("similarity.identity_iff_equal", PASS if ok else FAIL_CERTIFIED, detail={
        "equal": equal, "value": s_ab.value, "certainty": s_ab.certainty})

    # triangle-like bound through C
    rhs = continuity_rhs(s_ac.value, s_bc.value)
    triangle = Check("similarity.triangle_bound", compare_leq(s_ab.value, rhs), detail={
        "s_AB": s_ab.value, "s_AC": s_ac.value, "s_BC": s_bc.value, "rhs": rhs})

    return Report([vantage, identity, triangle])


# ---------------------------------------------------------------------------
# pointwise continuity


def check_point_continuity(st: SPStructure, x: Point, y: Point, z: Point) -> float:
    """Residual of the pointwise continuity bound; non-negative when it holds.

    The bound says an observer ``z`` rates ``x`` at most as far as it rates
    ``y`` plus a penalty that vanishes as ``x`` and ``y`` merge:
    ``s(z,x) <= s(z,y) + sqrt(1 - s(x,y))/2 + (1 - s(x,y))``.
    """
    sxy = similarity(st, x, y)
    lhs = similarity(st, z, x)
    return continuity_rhs(similarity(st, z, y), sxy) - lhs
