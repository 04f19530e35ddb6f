import itertools
from collections import Counter

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize
from hypothesis import example, given, settings
from hypothesis import strategies as st

from epds import (
    DegenerateKKT,
    EpdsError,
    Infeasible,
    NotInSet,
    PolyhedralCone,
    ProjectionSubspace,
    RankDeficient,
    Sector,
    feasible,
    oracle_project,
    project_partial,
    sector_project,
    sector_subspace,
    sector_tangent_cone,
    vstar_selector,
)
import epds.projection
from epds.projection import EPS_DUAL, EPS_DUP, EPS_PHASE1, _phase1, _phase1_rows
from epds.verify import (
    random_projection_instance,
    random_rows,
    random_subspace,
    verify_projection,
    well_posed_instance,
)


def vertical_subspace():
    return ProjectionSubspace.from_columns([[0.0, 1.0]])


def test_subspace_requires_full_column_rank():
    with pytest.raises(RankDeficient):
        ProjectionSubspace(ambient_dim=2, basis=np.array([[1.0, 2.0], [2.0, 4.0]]))
    with pytest.raises(RankDeficient):  # more columns than rows: 2 nonzero singular values
        ProjectionSubspace(ambient_dim=2, basis=np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]]))


def test_feasible_examples():
    full = PolyhedralCone.full_space(3)
    assert feasible(full, ProjectionSubspace.full(3), np.array([9.0, -1.0, 0.0]))
    halfplane = PolyhedralCone(dim=2, rows=np.array([[1.0, 0.0]]))
    # E = span{(0,1)} cannot fix a violated first coordinate
    assert not feasible(halfplane, vertical_subspace(), np.array([-1.0, 0.0]))
    assert feasible(halfplane, vertical_subspace(), np.array([0.5, -3.0]))
    # the sector tangent cone always meets w + span{(0,1)}
    sec = Sector(-0.3, 1.7)
    rng = np.random.default_rng(0)
    for _ in range(50):
        e = float(rng.standard_normal())
        s = np.array([e, sec.k1 * e])
        cone = sector_tangent_cone(sec, s)
        if not cone.convex:
            continue
        assert feasible(cone, sector_subspace(), rng.standard_normal(2) * 3)


def test_project_partial_unconstrained():
    cone = PolyhedralCone.full_space(4)
    E = ProjectionSubspace.full(4)
    v = np.array([1.0, -2.0, 3.0, 0.0])
    res = project_partial(cone, E, v)
    assert np.allclose(res.w, v)
    assert res.correction_norm == 0.0
    assert np.allclose(res.eta, 0.0)


def test_project_partial_vertical_clamp_matches_oracle():
    cone = PolyhedralCone(dim=2, rows=np.eye(2))
    E = vertical_subspace()
    v = np.array([1.0, -1.0])
    res = project_partial(cone, E, v)
    w_oracle = oracle_project(cone, E, v)
    assert np.allclose(res.w, [1.0, 0.0], atol=1e-10)
    assert np.allclose(res.w, w_oracle, atol=1e-8)
    assert res.eta == pytest.approx(np.array([1.0]))


def test_project_partial_classical_orthant_clamp():
    cone = PolyhedralCone(dim=2, rows=np.eye(2))
    res = project_partial(cone, ProjectionSubspace.full(2), np.array([-1.0, -2.0]))
    assert np.allclose(res.w, [0.0, 0.0], atol=1e-12)


def test_project_partial_infeasible_raises():
    halfplane = PolyhedralCone(dim=2, rows=np.array([[1.0, 0.0]]))
    with pytest.raises(Infeasible):
        project_partial(halfplane, vertical_subspace(), np.array([-1.0, 0.0]))


def test_projection_result_invariants(rng):
    for _ in range(100):
        cone, E, v = random_projection_instance(rng, max_dim=5)
        if not feasible(cone, E, v):
            continue
        res = project_partial(cone, E, v)
        # correction lies in Im E (least-squares residual)
        eta_fit, *_ = np.linalg.lstsq(E.basis, res.w - v, rcond=None)
        resid = np.linalg.norm(E.basis @ eta_fit - (res.w - v))
        assert resid <= 1e-10 * (1 + np.linalg.norm(v))
        assert cone.contains(res.w, tol=1e-8)
        assert res.correction_norm == pytest.approx(np.linalg.norm(res.w - v), abs=1e-12)


def test_minimality_against_random_competitors(rng):
    for _ in range(30):
        cone, E, v = random_projection_instance(rng, max_dim=5)
        if not feasible(cone, E, v):
            continue
        res = project_partial(cone, E, v)
        found = 0
        for _ in range(200):
            eta = res.eta + rng.standard_normal(E.n_e) * rng.uniform(0.01, 2.0)
            w_prime = v + E.basis @ eta
            if not cone.contains(w_prime, tol=1e-12):
                continue
            found += 1
            assert np.linalg.norm(w_prime - v) >= res.correction_norm - 1e-9
        if found >= 100:
            break


def test_idempotence_when_already_in_cone(rng):
    for _ in range(50):
        cone, E, v = random_projection_instance(rng, max_dim=5)
        if not cone.contains(v):
            continue
        res = project_partial(cone, E, v)
        assert res.correction_norm <= 1e-10
        assert np.allclose(res.w, v, atol=1e-9)
        # projecting the output again is a no-op
        res2 = project_partial(cone, E, res.w)
        assert np.allclose(res2.w, res.w, atol=1e-9)


def test_sector_project_examples():
    # Active index 0 is the lower line u = k1 e, index 1 the upper line u = k2 e.
    sec = Sector(0.0, 1.0)
    # interior: unchanged
    res = sector_project(sec, (2.0, 1.0), (0.3, -0.7))
    assert np.allclose(res.w, [0.3, -0.7]) and res.correction_norm == 0.0
    assert res.active_indices == ()
    # upper boundary, candidate pushes out
    res = sector_project(sec, (1.0, 1.0), (0.0, 1.0))
    assert np.allclose(res.w, [0.0, 0.0], atol=1e-12)
    assert res.branch == "K" and res.active_indices == (1,)
    # corner, zero edot: both lines bound the cone and hold at w = 0
    assert sector_project(sec, (0.0, 0.0), (0.0, 1.0)).active_indices == (0, 1)
    # corner, positive edot
    res = sector_project(sec, (0.0, 0.0), (1.0, 2.0))
    assert np.allclose(res.w, [1.0, 1.0]) and res.branch == "K"
    assert res.active_indices == (1,)
    # corner, negative edot
    res = sector_project(sec, (0.0, 0.0), (-2.0, 1.0))
    assert np.allclose(res.w, [-2.0, 0.0]) and res.branch == "minusK"
    # At small scale a line is active only where w lies on it: v* = 1e-11 is
    # on the upper line alone, and an uncorrected w on no line at all.
    assert sector_project(sec, (0.0, 0.0), (1e-11, 2e-11)).active_indices == (1,)
    assert sector_project(sec, (1.0, 1.0), (1e-11, -3e-11)).active_indices == ()
    with pytest.raises(NotInSet):
        sector_project(sec, (0.0, 1.0), (0.0, 0.0))


def test_sector_project_is_the_clamp_on_every_stratum(monkeypatch):
    # No KKT solve, phase-1 test or cone construction on any stratum: the
    # result is vstar_selector's clamp of the vertical velocity.
    def forbidden(*args, **kwargs):
        raise AssertionError("sector_project left the closed form")

    for name in ("project_partial", "feasible", "sector_tangent_cone", "sector_subspace"):
        monkeypatch.setattr(epds.projection, name, forbidden, raising=False)
    monkeypatch.setattr(Sector, "cone_k", forbidden)
    monkeypatch.setattr(Sector, "cone_minus_k", forbidden)
    sec = Sector(-0.5, 2.0)
    # An interior point, both lines of K, both lines of -K and the corner.
    cases = [
        ("interior", (1.0, 0.5)),
        ("K", (1.0, -0.5)),
        ("K", (1.0, 2.0)),
        ("minusK", (-1.0, 0.5)),
        ("minusK", (-1.0, -2.0)),
        ("corner", (0.0, 0.0)),
    ]
    for label, s in cases:
        pos = sec.classify(*s)
        assert pos.label == label
        for w in ((0.3, -0.7), (-1.2, 4.0), (2.0, 1.0), (0.0, -3.0)):
            res = sector_project(sec, s, w)
            v = vstar_selector(sec, pos, *w)
            assert res.w.tolist() == [w[0], v]
            assert res.eta.tolist() == [v - w[1]]
            assert res.correction_norm == abs(v - w[1])


def test_sector_project_matches_grid_oracle(rng):
    E2 = sector_subspace()
    for _ in range(60):
        k1 = float(rng.uniform(-2, 2))
        sec = Sector(k1, k1 + float(rng.uniform(0.2, 3)))
        mode = rng.integers(0, 3)
        if mode == 0:
            s = np.zeros(2)
        else:
            e = float(rng.uniform(0.2, 2)) * (1 if rng.uniform() < 0.5 else -1)
            k_line = sec.k1 if mode == 1 else sec.k2
            s = np.array([e, k_line * e])
        w = rng.standard_normal(2) * 2
        res = sector_project(sec, s, w)
        w_oracle = oracle_project(sector_tangent_cone(sec, s), E2, w)
        assert np.linalg.norm(res.w - w_oracle) <= 1e-6


def test_sector_branch_containment(rng):
    # output always equals the projection onto K or onto -K, whichever is feasible
    E2 = sector_subspace()
    for _ in range(80):
        k1 = float(rng.uniform(-2, 2))
        sec = Sector(k1, k1 + float(rng.uniform(0.2, 3)))
        w = rng.standard_normal(2) * 2
        res = sector_project(sec, (0.0, 0.0), w)
        candidates = []
        for cone in (sec.cone_k(), sec.cone_minus_k()):
            if feasible(cone, E2, w):
                candidates.append(project_partial(cone, E2, w).w)
        assert any(np.allclose(res.w, c, atol=1e-9) for c in candidates)


def test_vstar_selector_examples():
    sec = Sector(0.0, 1.0)
    inside, upper, corner = sec.classify(2.0, 1.0), sec.classify(1.0, 1.0), sec.classify(0.0, 0.0)
    assert vstar_selector(sec, inside, 0.7, -0.4) == -0.4
    assert vstar_selector(sec, upper, 0.0, 1.0) == 0.0  # k2 * edot
    assert vstar_selector(sec, upper, 0.5, -1.0) == -1.0  # only bounded above
    minus_upper = sec.classify(-1.0, -1.0)  # on -K the upper line bounds from below
    assert vstar_selector(sec, minus_upper, 2.0, 0.5) == 2.0  # k2 * edot
    assert vstar_selector(sec, corner, 1.0, 2.0) == 1.0  # k2 * edot, K admits edot > 0
    assert vstar_selector(sec, corner, 1.0, -1.0) == 0.0  # k1 * edot
    assert vstar_selector(sec, corner, -1.0, 5.0) == 0.0  # -K admits edot < 0
    assert vstar_selector(sec, corner, -1.0, -5.0) == -1.0  # k2 * edot


def test_vstar_selector_agrees_with_sector_project(rng):
    for _ in range(300):
        k1 = float(rng.uniform(-2, 2))
        sec = Sector(k1, k1 + float(rng.uniform(0.2, 3)))
        mode = rng.integers(0, 4)
        if mode == 0:
            s = np.zeros(2)
        elif mode == 3:
            e = float(rng.uniform(0.2, 2)) * (1 if rng.uniform() < 0.5 else -1)
            u = float(rng.uniform(min(sec.k1 * e, sec.k2 * e), max(sec.k1 * e, sec.k2 * e)))
            s = np.array([e, u])
        else:
            e = float(rng.uniform(0.2, 2)) * (1 if rng.uniform() < 0.5 else -1)
            k_line = sec.k1 if mode == 1 else sec.k2
            s = np.array([e, k_line * e])
        w = rng.standard_normal(2) * 2
        # sector_project is vstar_selector's clamp on every stratum, so the
        # reference is the KKT solve: on the tangent cone off the corner, on
        # the branch cone that admits edot at it.
        if mode == 0:
            cone = sec.cone_k() if w[0] >= 0.0 else sec.cone_minus_k()
            assert feasible(cone, sector_subspace(), w)
        else:
            cone = sector_tangent_cone(sec, s)
        res = project_partial(cone, sector_subspace(), w)
        v = vstar_selector(sec, sec.classify(*s.tolist()), float(w[0]), float(w[1]))
        assert sector_project(sec, s, w).w.tolist() == [w[0], v]
        assert v == pytest.approx(float(res.w[1]), abs=1e-9)
        assert min(
            abs(v - w[1]), abs(v - sec.k1 * w[0]), abs(v - sec.k2 * w[0])
        ) <= 1e-9


@pytest.mark.parametrize("scale", [1e-13, 1e-11, 1.0, 1e6])
def test_kkt_sign_test_is_scale_free(scale):
    # K of Sector(-1, 0) along (0, 1) from w = scale * (1, 1): the optimum is
    # the upper line, u = 0.  The lower line's support has a negative
    # multiplier of order scale, which an absolute floor on the sign test
    # let pass first.
    res = project_partial(Sector(-1.0, 0.0).cone_k(), sector_subspace(), (scale, scale))
    assert res.w.tolist() == pytest.approx([scale, 0.0], abs=1e-12 * scale)


def test_branch_check_fires_on_a_wrong_corner_clamp(monkeypatch):
    # Criterion 2 solves each sector branch at the origin on its own, so a
    # corner clamp whose upper end is 1.5 times too far must read as branch
    # contradictions.
    clamp = epds.projection.vstar_selector

    def stretched(sec, pos, edot, fc1):
        if pos.label != "corner":
            return clamp(sec, pos, edot, fc1)
        k1e, k2e = sec.k1 * edot, sec.k2 * edot
        return float(min(max(fc1, min(k1e, k2e)), 1.5 * max(k1e, k2e)))

    monkeypatch.setattr(epds.projection, "vstar_selector", stretched)
    assert verify_projection(count=1, seed=0)["branch_contradictions"] > 0


@given(st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_singleton_property_random_instances(seed):
    rng = np.random.default_rng(seed)
    cone, E, v = random_projection_instance(rng, max_dim=4)
    if not feasible(cone, E, v):
        return
    res = project_partial(cone, E, v)
    assert res.n_distinct_optima == 1


@st.composite
def phase1_instances(draw):
    """Cones of 1-4 rows in R^2..R^4 with E = span{s_j * e_j} over the last
    n_E in {1, 2, 3} coordinates, so the entry a_ij of Gn has the sign of
    row entry j.  Each such entry is exactly 0 (row orthogonal to that
    direction) or at least 0.05 in magnitude; the first correction column
    has one shared sign or mixed signs.  |v| lies in [1e-6, 1e6]."""
    n_e = draw(st.integers(1, 3))
    n = draw(st.integers(max(2, n_e), 4))
    m = draw(st.integers(1, 4))
    shared_sign = draw(st.sampled_from([None, 1.0, -1.0]))
    rows = []
    for _ in range(m):
        row = draw(st.lists(st.floats(-1.0, 1.0), min_size=n - n_e, max_size=n - n_e))
        for j in range(n_e):
            sign = shared_sign if j == 0 and shared_sign else draw(st.sampled_from([1.0, -1.0]))
            row.append(sign * draw(st.one_of(st.just(0.0), st.floats(0.05, 1.0))))
        rows.append(row)
    direction = np.array(
        draw(
            st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n).filter(
                lambda d: np.linalg.norm(d) > 1e-3
            )
        )
    )
    v = direction / np.linalg.norm(direction) * 10.0 ** draw(st.floats(-6.0, 6.0))
    basis = np.zeros((n, n_e))
    for j in range(n_e):
        basis[n - n_e + j, j] = draw(st.floats(0.1, 10.0))
    return PolyhedralCone(dim=n, rows=np.array(rows)), ProjectionSubspace(n, basis), v


def _phase1_lp_reference(Gn, gn):
    """Least slack t >= 0 with Gn eta + t >= gn, by HiGHS at feasibility
    tolerance 1e-9.  At its default 1e-7 HiGHS is no reference for the
    1e-9 threshold of ``feasible``."""
    n_e = Gn.shape[1]
    res = scipy.optimize.linprog(
        np.eye(n_e + 1)[-1],
        A_ub=np.column_stack([-Gn, -np.ones(len(gn))]),
        b_ub=-gn,
        bounds=[(None, None)] * n_e + [(0, None)],
        method="highs",
        options={"primal_feasibility_tolerance": 1e-9, "dual_feasibility_tolerance": 1e-9},
    )
    assert res.success
    return float(res.x[-1])


@given(phase1_instances())
# Opposite rows whose parts along Im E are 1e-4 beside the row of ones in
# the dual system: solved through the normal equations, t* is off by 1.7e-9.
@example(
    instance=(
        PolyhedralCone(dim=4, rows=np.array([[0.0, 0.5, 0.0, 1.0], [0.0, -1.0, 0.0, -1.0]])),
        ProjectionSubspace(4, np.eye(4)[:, 2:]),
        np.array([0.0, 1e4, 0.0, 0.0]),
    )
)
@settings(max_examples=500, deadline=None)
def test_phase1_matches_highs_for_every_n_e(instance):
    # The exact phase-1 optimum against HiGHS on the same unit-normalized
    # rows.  Entries with 0 < |a_ij| <= 1e-9 stay out: HiGHS drops such
    # matrix entries.
    cone, E, v = instance
    Gn, gn = _phase1_rows(cone, E, v)
    t_exact = _phase1(Gn, gn)
    t_lp = _phase1_lp_reference(Gn, gn)
    assert abs(t_exact - t_lp) <= 1e-9
    if not 5e-10 <= t_exact <= 2e-9:
        assert feasible(cone, E, v) == (t_lp <= 1e-9)


@given(st.floats(-13.0, -5.0), st.sampled_from([1.0, -1.0]))
@example(log_a=-7.0, sign=1.0)
@example(log_a=-8.0, sign=1.0)
@example(log_a=-10.0, sign=1.0)
@settings(max_examples=200, deadline=None)
def test_project_partial_returns_exactly_when_feasible(log_a, sign):
    # The violated row (a, -0.5) on v = e2 is nearly orthogonal to
    # Im E = span{e1} and needs eta = 0.5 / a.  The projection reads the unit
    # rows that phase-1 reads, so it corrects v exactly when phase-1 says the
    # cone meets v + Im E, and raises Infeasible otherwise.
    a = sign * 10.0**log_a
    cone = PolyhedralCone(dim=2, rows=np.array([[a, -0.5]]))
    E = ProjectionSubspace(2, np.array([[1.0], [0.0]]))
    v = np.array([0.0, 1.0])
    if not feasible(cone, E, v):
        with pytest.raises(Infeasible):
            project_partial(cone, E, v)
        return
    res = project_partial(cone, E, v)
    assert res.eta[0] == pytest.approx(0.5 / a, rel=1e-9)


def _rows_as_instance(a, c):
    """Cone, subspace and v whose phase-1 rows are (a_i, c_i) up to the
    unit normalization: rows (a_i, -c_i) on (eta, 1), v = e_last."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    n = a.shape[1] + 1
    cone = PolyhedralCone(dim=n, rows=np.column_stack([a, -np.asarray(c, dtype=float)]))
    return cone, ProjectionSubspace(n, np.eye(n)[:, :-1]), np.eye(n)[-1]


def test_phase1_examples():
    # Exact t* = 4.1e-8: above the 1e-9 threshold, below HiGHS's default
    # 1e-7 tolerance.  Infeasible at n_E = 1 and, through a zero second
    # column, at n_E = 2.
    a = np.array([[1.0], [-1.0], [1.0]])
    c = [-5.88e-7, 6.70e-7, -2.40e-6]
    for rows in (a, np.column_stack([a, np.zeros(3)])):
        cone, E, v = _rows_as_instance(rows, c)
        assert _phase1(*_phase1_rows(cone, E, v)) == pytest.approx(4.1e-8, rel=1e-6)
        assert not feasible(cone, E, v)
    # A row nearly orthogonal to E is still a row: eta = 5e9 satisfies it.
    assert feasible(*_rows_as_instance([[1e-10]], [0.5]))


def test_phase1_early_exit_and_enumeration_match_highs(monkeypatch):
    # _phase1 returns 0 without enumerating supports when eta = 0 or the
    # foot of a violated row meets every row.  On fixed-seed draws both
    # paths run, infeasible draws among the enumerated ones, and every
    # value is HiGHS's, so an exit that skipped the row test would show.
    supports = epds.projection._supports
    calls = []

    def recording(m, size):
        calls.append(size)
        return supports(m, size)

    monkeypatch.setattr(epds.projection, "_supports", recording)
    rng = np.random.default_rng(29)
    paths = Counter()
    for _ in range(300):
        Gn, gn = _phase1_rows(*random_projection_instance(rng))
        before = len(calls)
        t = _phase1(Gn, gn)
        t_lp = _phase1_lp_reference(Gn, gn)
        assert abs(t - t_lp) <= 1e-9
        if len(calls) == before:
            paths["zero" if np.all(gn <= 0.0) else "foot"] += 1
        else:
            paths["infeasible" if t_lp > 1e-9 else "enumerated"] += 1
    assert min(paths[key] for key in ("zero", "foot", "enumerated", "infeasible")) > 0, paths


def _with_copies(Gn, gn, rng, kind):
    """Gn, gn plus copies of their rows, shuffled in: exact duplicates,
    positive multiples renormalized to unit length (equal up to roundoff)
    or unit positive combinations of two rows (implied by them)."""
    rows = np.column_stack([Gn, gn])
    extra = []
    for _ in range(2):
        i, j = rng.integers(len(rows), size=2)
        if kind == "duplicate":
            extra.append(rows[i])
        elif kind == "scaled":
            r = rows[i] * float(rng.uniform(0.1, 10.0))
            extra.append(r / np.linalg.norm(r))
        else:
            r = float(rng.uniform(0.1, 2.0)) * rows[i] + float(rng.uniform(0.1, 2.0)) * rows[j]
            extra.append(r / max(np.linalg.norm(r), 1e-30))
    rows = np.vstack([rows, extra])[rng.permutation(len(rows) + len(extra))]
    return rows[:, :-1], rows[:, -1]


@pytest.mark.parametrize("kind", ["duplicate", "scaled", "dependent"])
def test_dependent_supports_change_neither_phase1_nor_optimum(kind):
    # A support with exactly dependent rows is singular and skipped, never
    # inverted; one that is dependent up to roundoff (a renormalized
    # multiple) must fail the residual and sign checks.  Neither loses
    # anything: the LP dual's vertices and the KKT optimum live on
    # independent rows.  A combination row is implied only where the others
    # hold, so it keeps t* only at t* = 0.
    rng = np.random.default_rng(31)
    # Three copies of one row at n_E = 2: singular square and Gram supports.
    Gn = np.tile([[0.6, -0.8]], (3, 1))
    assert _phase1(Gn, np.full(3, 0.3)) == 0.0
    assert np.allclose(epds.projection._kkt_optima(Gn, np.full(3, 0.3)), [0.18, -0.24])
    checked = Counter()
    for _ in range(150):
        Gn, gn = _phase1_rows(*random_projection_instance(rng))
        Gc, gc = _with_copies(Gn, gn, rng, kind)
        t, tc = _phase1(Gn, gn), _phase1(Gc, gc)
        if kind != "dependent" or t == 0.0:
            assert abs(tc - t) <= 1e-12
        optima = epds.projection._kkt_optima(Gn, gn)
        if t > EPS_PHASE1 or not len(optima):
            continue
        copies = epds.projection._kkt_optima(Gc, gc)
        scale = 1e-9 * (1.0 + np.linalg.norm(optima[0]))
        assert len(copies) and np.all(np.linalg.norm(copies - optima[0], axis=1) <= scale)
        checked[Gn.shape[1]] += 1
    assert sorted(checked) == [1, 2, 3], checked


def _well_posed_lp_reference(cone, E, v, bound_factor=30.0):
    """``well_posed_instance`` with its box test as a HiGHS LP that bounds
    eta by |eta_i| <= bound (HiGHS's default options)."""
    G = cone.rows @ E.basis
    rn = np.linalg.norm(G, axis=1)
    if np.any(rn < 1e-12):
        return False
    Gn = G / rn[:, None]
    k, n_e = G.shape
    for size in range(2, n_e + 1):
        for subset in itertools.combinations(range(k), size):
            if np.linalg.svd(Gn[list(subset)], compute_uv=False)[-1] < 1e-2:
                return False
    g = -(cone.rows @ v)
    bound = bound_factor * (1.0 + float(np.linalg.norm(v)))
    res = scipy.optimize.linprog(
        np.eye(n_e + 1)[-1],
        A_ub=np.column_stack([-Gn, -np.ones(k)]),
        b_ub=-g / rn,
        bounds=[(-bound, bound)] * n_e + [(0, None)],
        method="highs",
    )
    return bool(res.success and res.x[-1] <= 1e-9)


def test_well_posed_instance_matches_box_lp():
    rng = np.random.default_rng(11)
    per_n_e = Counter()
    while per_n_e.total() < 500:
        cone, E, v = random_projection_instance(rng)
        if not feasible(cone, E, v):
            continue
        assert well_posed_instance(cone, E, v) == _well_posed_lp_reference(cone, E, v)
        per_n_e[E.n_e] += 1
    assert sorted(per_n_e) == [1, 2, 3]


def _conditioned_basis(rng, n, n_e, log_ratio):
    """Random n x n_E basis whose column singular values run log-evenly from
    1 down to 10**log_ratio."""
    Q1 = np.linalg.qr(rng.standard_normal((n, n_e)))[0]
    Q2 = np.linalg.qr(rng.standard_normal((n_e, n_e)))[0]
    return Q1 @ np.diag(np.logspace(0.0, log_ratio, n_e)) @ Q2.T


@given(st.integers(0, 2**32 - 1), st.floats(-11.0, -1.0))
@example(seed=4074418350, log_ratio=-6.766735510274243)  # in E's coordinates: w off by 9e-5
@example(seed=2198257139, log_ratio=-9.558403872803662)  # in E's coordinates: DegenerateKKT
@example(seed=1615833082, log_ratio=-10.962706377136122)  # in E's coordinates: infeasible
@settings(max_examples=200, deadline=None)
def test_ill_conditioned_basis_matches_orthonormal_oracle(seed, log_ratio):
    # The same Im E through an ill-conditioned E and through an orthonormal
    # basis of it must give the same feasibility and the same w; the oracle
    # on the orthonormal basis is the reference.  Any backward-stable
    # orthonormalization fixes the span of a floating-point E only to about
    # eps over the singular-value ratio (a QR basis moves w by up to 3e-9 at
    # ratio 1e-11), so the basis comes from the SVD of E, which pins the
    # subspace and leaves the solve to be compared.
    rng = np.random.default_rng(seed)
    n_e = int(rng.integers(2, 4))
    n = int(rng.integers(n_e, 6))
    cone = PolyhedralCone(dim=n, rows=random_rows(rng, int(rng.integers(1, min(4, n) + 1)), n))
    E = _conditioned_basis(rng, n, n_e, log_ratio)
    v = rng.standard_normal(n) * float(rng.uniform(0.5, 3.0))
    U = ProjectionSubspace(n, np.linalg.svd(E, full_matrices=False)[0])
    is_feasible = feasible(cone, U, v)
    assert feasible(cone, ProjectionSubspace(n, E), v) == is_feasible
    if not is_feasible:
        return
    res = project_partial(cone, ProjectionSubspace(n, E), v)
    w_norm = np.linalg.norm(res.w)
    assert np.linalg.norm(res.w - oracle_project(cone, U, v)) <= 1e-9 * (1.0 + w_norm)
    # E eta is formed in floating point, whose error grows with |E| |eta|,
    # that is with |w - v| over the column singular-value ratio.
    recon = np.linalg.norm(v + E @ res.eta - res.w)
    assert recon <= 1e-9 * (1.0 + w_norm) + 1e-14 * np.linalg.norm(E, 2) * np.linalg.norm(res.eta)


def _project_partial_gelsy_reference(cone, E, v):
    """Active-set KKT enumeration in the caller's E coordinates, one subset
    at a time by QR with column pivoting (LAPACK gelsy) and one refinement
    step, under the metric 2 E^T E.  Returns (w, active_indices,
    n_distinct_optima) and raises as ``project_partial`` does."""
    G, g = cone.rows @ E.basis, -(cone.rows @ v)
    k, n_e = G.shape
    Q2 = 2.0 * (E.basis.T @ E.basis)
    G_norms = np.linalg.norm(G, axis=1)
    passing = []
    for size in range(k + 1):
        for subset in itertools.combinations(range(k), size):
            GW = G[list(subset)]
            kkt = np.block([[Q2, -GW.T], [GW, np.zeros((size, size))]])
            rhs = np.concatenate([np.zeros(n_e), g[list(subset)]])
            sol, *_ = scipy.linalg.lstsq(kkt, rhs, lapack_driver="gelsy")
            if not np.all(np.isfinite(sol)):
                continue
            corr, *_ = scipy.linalg.lstsq(kkt, rhs - kkt @ sol, lapack_driver="gelsy")
            if np.all(np.isfinite(corr)):
                sol = sol + corr
            if np.linalg.norm(kkt @ sol - rhs) > 1e-8 * (1.0 + np.linalg.norm(rhs)):
                continue
            eta, lam = sol[:n_e], sol[n_e:]
            if np.any(G @ eta - g < -1e-9 * (np.abs(g) + G_norms * np.linalg.norm(eta))):
                continue
            if lam.size and np.min(lam) < -EPS_DUAL * max(1.0, float(np.max(np.abs(lam)))):
                continue
            passing.append(eta)
    if not passing:
        Gn, gn = G, g
        if k:
            norms = np.maximum(np.linalg.norm(np.column_stack([G, g]), axis=1), 1e-30)
            Gn, gn = G / norms[:, None], g / norms
        if _phase1(Gn, gn) > 1e-9:
            raise Infeasible("the cone does not meet v + Im E")
        raise DegenerateKKT("no active subset passed the KKT checks")
    ws = [v + E.basis @ eta for eta in passing]
    distinct = []
    for w in ws:
        if all(np.linalg.norm(w - d) > EPS_DUP * (1.0 + np.linalg.norm(w)) for d in distinct):
            distinct.append(w)
    slack = G @ passing[0] - g
    act = np.flatnonzero(np.abs(slack) <= 1e-8 * (1.0 + np.abs(g) + G_norms))
    return ws[0], tuple(int(i) for i in act), len(distinct)


@st.composite
def kkt_instances(draw):
    """Cones of 1-3 random unit rows in R^2..R^5 plus up to two rows that
    are a duplicate, a positive multiple or a combination of others, or
    orthogonal to Im E, in shuffled order; E has n_E in {1, 2, 3} and a
    column singular-value ratio in [1e-3, 1]."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_e = draw(st.integers(1, 3))
    n = draw(st.integers(max(2, n_e), 5))
    E = _conditioned_basis(rng, n, n_e, draw(st.floats(-3.0, 0.0)))
    rows = list(random_rows(rng, draw(st.integers(1, min(3, n))), n))
    kinds = ["duplicate", "scaled", "dependent"] + (["orthogonal"] if n > n_e else [])
    for kind in draw(st.lists(st.sampled_from(kinds), max_size=2)):
        i, j = rng.integers(len(rows), size=2)
        if kind == "duplicate":
            rows.append(rows[i].copy())
        elif kind == "scaled":
            rows.append(rows[i] * float(rng.uniform(0.1, 10.0)))
        elif kind == "dependent":
            a, b = rng.uniform(-2.0, 2.0, size=2)
            rows.append(a * rows[i] + b * rows[j])
        else:
            Q = np.linalg.qr(E)[0]
            r = rng.standard_normal(n)
            r -= Q @ (Q.T @ r)
            rows.append(r / np.linalg.norm(r))
    rows = np.array(rows)[rng.permutation(len(rows))]
    v = rng.standard_normal(n) * float(rng.uniform(0.5, 3.0))
    return PolyhedralCone(dim=n, rows=rows), ProjectionSubspace(n, E), v


@given(kkt_instances())
# The second row is orthogonal to Im E and violated: Infeasible.  A solve that
# inverts the row's roundoff-sized part along Im E returns eta ~ -4e16.
@example(
    instance=(
        PolyhedralCone(
            dim=2, rows=np.array([[0.19217965, -0.98135976], [0.72436774, 0.6894138]])
        ),
        ProjectionSubspace(2, np.array([[-0.6894138], [0.72436774]])),
        np.array([-1.78722985, -3.21370725]),
    )
)
# Three copies of one row at n_E = 2: every support of two or three rows
# is singular and must be skipped, not inverted.
@example(
    instance=(
        PolyhedralCone(dim=2, rows=np.tile([[0.45274238, -0.89164137]], (3, 1))),
        ProjectionSubspace(
            2, np.array([[0.57132068, 0.82072693], [-0.82072693, 0.57132068]])
        ),
        np.array([-0.51196622, -1.23334215]),
    )
)
@settings(max_examples=300, deadline=None)
def test_batched_kkt_matches_gelsy_reference(instance):
    cone, E, v = instance
    try:
        ref = _project_partial_gelsy_reference(cone, E, v)
    except EpdsError as err:
        with pytest.raises(EpdsError) as raised:
            project_partial(cone, E, v)
        assert type(raised.value) is type(err)
        return
    res = project_partial(cone, E, v)
    w_ref, act_ref, n_ref = ref
    assert res.active_indices == act_ref
    assert res.n_distinct_optima == n_ref
    assert np.linalg.norm(res.w - w_ref) <= 1e-10 * (1.0 + np.linalg.norm(w_ref))


def test_kkt_optima_solves_supports_of_at_most_n_e_rows(monkeypatch):
    # By Caratheodory's theorem for cones an optimum is reached on at most
    # n_E independent active rows, so no larger support is solved.
    supports = epds.projection._supports
    sizes = []

    def recording(m, size):
        sizes.append(size)
        return supports(m, size)

    monkeypatch.setattr(epds.projection, "_supports", recording)
    rng = np.random.default_rng(7)
    cone = PolyhedralCone(dim=4, rows=random_rows(rng, 4, 4))
    E = random_subspace(rng, 4, 2)
    v = rng.standard_normal(4)
    optima = epds.projection._kkt_optima(*_phase1_rows(cone, E, v))
    assert sizes and max(sizes) <= E.n_e < cone.n_rows
    assert len(optima) >= 1
