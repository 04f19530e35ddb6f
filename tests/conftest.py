import itertools
import math

import numpy as np
import pytest

from epds import Plant, StateExploded, build_closed_loop, drift_correct, higs_preset
from epds.geometry import EPS_CONE, _as_vector, sector_tangent_cone
from epds.krasovskii import KrasovskiiHull, _dedup_sort, _subset_vertices
from epds.projection import sector_subspace, vstar_selector
from epds.sim import BLOWUP_BOUND, Trace, _step_schedule, eval_input


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def make_higs_benchmark():
    """Mass-spring-damper + hybrid-integrator loop used across the tests."""
    ctrl, sec = higs_preset(1.0, 1.0)
    plant = Plant(
        n=2,
        f_p=lambda x, u, w: np.array([x[1], -x[0] - x[1] + u + w]),
        gp=np.array([-1.0, 0.0]),
    )
    return build_closed_loop(plant, ctrl, sec)


@pytest.fixture
def higs_system():
    return make_higs_benchmark()


def orthant(dim=2):
    from epds import ConstraintSet, affine_constraint

    cons = tuple(
        affine_constraint(np.eye(dim)[i], 0.0) for i in range(dim)
    )
    return ConstraintSet(dim=dim, constraints=cons)


def unit_disk():
    """{x : 1 - x1^2 - x2^2 >= 0}"""
    from epds import ConstraintSet, quadratic_constraint

    return ConstraintSet(
        dim=2,
        constraints=(quadratic_constraint(-np.eye(2), np.zeros(2), 1.0),),
    )


def corner_cones(k1, k2):
    """The seven cones of the strata of K u -K that meet every neighborhood
    of the origin, written from the sector slopes alone: the full plane, the
    four halfplanes bounded by u = k1 e and u = k2 e, K and -K."""
    from epds import PolyhedralCone

    k_rows = [[-k1, 1.0], [k2, -1.0]]  # K: u >= k1 e and u <= k2 e
    minus_k_rows = [[k1, -1.0], [-k2, 1.0]]  # -K: u <= k1 e and u >= k2 e
    row_sets = [[]] + [[row] for row in k_rows + minus_k_rows] + [k_rows, minus_k_rows]
    return [PolyhedralCone(dim=2, rows=np.array(r).reshape(-1, 2)) for r in row_sets]


def euler_time_embedded(emb, xi0, T, h):
    """Explicit Euler on the embedded state chi = (xi, t), independent of
    ``integrate``: the clock is a state stepped by the field's unit last
    component, the input is sampled only inside ``emb.rhs``, and drift
    correction clamps the xi part.  Step sizes come from the simulator's
    schedule.  Returns the columns ``integrate`` records: (t, xi, vstar,
    branch) with the raw post-step states and the branch of the corrected
    state.
    """
    sys = emb.system
    chi = np.append(np.asarray(xi0, dtype=float), 0.0)
    t, xi, vstar, branch = [], [], [], []

    def corrected_field(chi):
        xi_c, _ = drift_correct(sys, chi[:-1])
        chi_c = np.append(xi_c, chi[-1])
        f = emb.rhs(chi_c)
        t.append(chi[-1])
        xi.append(chi[:-1])
        vstar.append(f[sys.n])
        branch.append(sys.sector.classify(*sys.output_pair(xi_c).tolist()).label)
        return chi_c, f

    for _, dt, _ in _step_schedule(emb.signal, T, h):
        chi_c, f = corrected_field(chi)
        chi = chi_c + dt * f
    corrected_field(chi)
    return np.array(t), np.array(xi), np.array(vstar), tuple(branch)


def reference_integrate(sys, xi0, signal, T, h):
    """The simulator loop as it was before its fast path, kept as the
    reference that ``integrate`` must reproduce byte for byte.

    Every conversion goes through the general helpers: ``output_pair``
    gives (e, u) and ``split`` gives (x, z) on each use, the field is
    concatenated, ``Sector.residual`` scores each row, every recorded state
    is copied when it is recorded, and the columns are stacked at the end.
    Drift correction and the field are evaluated here as well, so the
    reference shares no step code with ``integrate``.
    """
    sec = sys.sector

    def correct(xi):
        e, u = sys.output_pair(xi).tolist()
        if sec.classify(e, u).label != "outside":
            return xi, False
        out = xi.copy()
        out[sys.n] = min(max(u, min(sec.k1 * e, sec.k2 * e)), max(sec.k1 * e, sec.k2 * e))
        return out, True

    def field(xi, w):
        e, u = sys.output_pair(xi).tolist()
        pos = sec.classify(e, u)
        assert pos.label != "outside"
        x, z = sys.split(xi)
        fp = np.asarray(sys.plant.f_p(x, float(z[0]), float(w)), dtype=float).reshape(-1)
        fc = np.asarray(sys.controller.f_c(z, e), dtype=float).reshape(-1)
        edot = float(sys.plant.gp @ fp)
        fc1 = float(fc[0])
        vstar = vstar_selector(sec, pos, edot, fc1)
        return np.concatenate([fp, [vstar], fc[1:]]), edot, vstar, pos.label, abs(vstar - fc1)

    rows = []

    def record(t, state_raw, rhs, corrected):
        eu = sys.output_pair(state_raw)
        _, edot, vstar, branch, corr = rhs
        rows.append((t, np.array(state_raw), float(eu[0]), float(eu[1]), edot, vstar,
                     branch, corr, sec.residual(eu), corrected))

    raw = np.array(xi0, dtype=float)
    for t, dt, t_next in _step_schedule(signal, T, h):
        stepped, corrected = correct(raw)
        rhs = field(stepped, eval_input(signal, t))
        record(t, raw, rhs, corrected)
        raw = stepped + dt * rhs[0]
        norm = float(np.linalg.norm(raw))
        if norm > BLOWUP_BOUND:
            raise StateExploded(t_next, norm, BLOWUP_BOUND)
    final, corrected = correct(raw)
    record(T, raw, field(final, eval_input(signal, T)), corrected)
    cols = list(zip(*rows))
    return Trace(
        t=np.array(cols[0]),
        xi=np.vstack(cols[1]),
        e=np.array(cols[2]),
        u=np.array(cols[3]),
        edot=np.array(cols[4]),
        vstar=np.array(cols[5]),
        branch=tuple(cols[6]),
        correction_norm=np.array(cols[7]),
        sector_residual=np.array(cols[8]),
        drift_corrected=np.array(cols[9], dtype=bool),
        h=h,
    )



def reference_to_csv(trace, path):
    """``Trace.to_csv`` as it was before it streamed, kept as the reference
    that the block writer must reproduce byte for byte: the whole trace is
    stacked into one list of rows and the file is written as one string.
    """
    dim = trace.xi.shape[1]
    header = (
        ["t"]
        + [f"xi_{i}" for i in range(dim)]
        + ["e", "u", "edot", "vstar", "branch", "correction_norm", "sector_residual",
           "drift_corrected"]
    )
    numeric = np.column_stack(
        [trace.t, trace.xi, trace.e, trace.u, trace.edot, trace.vstar,
         trace.correction_norm, trace.sector_residual]
    ).tolist()
    lead = dim + 5  # t, xi, e, u, edot, vstar: the columns before branch
    row = ",".join(["%.17g"] * lead) + ",%s,%.17g,%.17g,%s\n"
    body = "".join(
        row % (*r[:lead], b, r[lead], r[lead + 1], "1" if d else "0")
        for r, b, d in zip(numeric, trace.branch, trace.drift_corrected.tolist())
    )
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n" + body)

def stars_and_bars(total, k):
    """Lattice of all k-tuples of nonnegative integers summing to total, in
    lexicographic order, as ``krasovskii._compositions`` built it before its
    compact lattice: the k - 1 bars sit at increasing positions among
    total + k - 1 slots, and each part is the gap between neighbouring bars.
    """
    slots = total + k - 1
    n_rows = math.comb(slots, k - 1)
    bars = np.fromiter(
        itertools.chain.from_iterable(itertools.combinations(range(slots), k - 1)),
        dtype=np.int64,
        count=n_rows * (k - 1),
    ).reshape(n_rows, k - 1)
    return np.diff(bars, axis=1, prepend=-1, append=slots) - 1


def reference_sector_krasovskii_vertices(sec, s, w):
    """``krasovskii.sector_krasovskii_vertices`` as it was before its closed
    form, kept as the reference the closed form must match: every subset of
    each convex part's rows is projected by the KKT solver
    ``project_partial`` (through ``_subset_vertices``), with the same labels,
    subset order, nesting check and deduplication.
    """
    s = _as_vector(s, 2)
    w = _as_vector(w, 2)
    cone = sector_tangent_cone(sec, s)
    E2 = sector_subspace()
    raw = []
    offset = 0
    for part in cone.parts or (cone,):
        raw += _subset_vertices(part.rows, range(offset, offset + part.n_rows), E2, w)
        offset += part.n_rows
    verts, labels = _dedup_sort(raw)
    return KrasovskiiHull(vertices=verts, subset_labels=labels, point=s, field_value=w)


def reference_contains_many(T, P, tol=EPS_CONE):
    """Membership of the points P in T as ``krasovskii._contains_many``
    tested it before its column-wise kernel: one scale matrix and one
    ``np.all`` over the rows of each convex part, with ``np.linalg.norm``
    for every norm."""
    if not T.convex:
        parts = [reference_contains_many(part, P, tol) for part in T.parts]
        return parts[0] | parts[1]
    if T.n_rows == 0:
        return np.ones(P.shape[0], dtype=bool)
    slack = P @ T.rows.T
    scale = 1.0 + np.linalg.norm(T.rows, axis=1)[None, :] * np.linalg.norm(P, axis=1)[:, None]
    return np.all(slack >= -tol * scale, axis=1)


def reference_verify_equality(hull, T, pi, simplex_resolution=0.02, witness_tol=1e-6):
    """``krasovskii.verify_equality`` as it was before it streamed its
    lattice in blocks, kept as the reference that the streamed check must
    reproduce bit for bit: the whole grid in one array, one product, one
    row-wise membership test (``reference_contains_many``) and one
    ``np.linalg.norm`` distance per point.  Returns (holds,
    n_witnesses, witnesses).
    """
    V = np.atleast_2d(hull.vertices)
    n_steps = max(1, int(round(1.0 / simplex_resolution)))
    k = V.shape[0]
    if k == 1:
        P = V.copy()
    else:
        lam = stars_and_bars(n_steps, k).astype(float) / float(n_steps)
        P = lam @ V
    in_cone = reference_contains_many(T, P)
    dists = np.linalg.norm(P - pi.w[None, :], axis=1)
    bad = in_cone & (dists > witness_tol)
    witnesses = P[bad]
    n_witnesses = int(witnesses.shape[0])
    if n_witnesses > 32:
        order = np.argsort(-dists[bad])
        witnesses = witnesses[order[:32]]
    if not n_witnesses:
        witnesses = np.zeros((0, V.shape[1]))
    return not bool(np.any(bad)), n_witnesses, witnesses
