"""Closed-loop projection-based control as an extended projected system.

A SISO plant (state x, input u, scalar output e along a fixed row) is
interconnected with a controller (state z, output u = z1) whose input-output
pair (e, u) must stay inside a sector.  The lifted state is xi = (x, z), the
constraint set is the preimage of the sector under the output map H, and
corrections act only on controller states.  Because the output maps are
linear, the projected field differs from the unprojected one in the single
coordinate z1, computed by a two-dimensional projection of (edot, fc1) in
the (e, u)-plane; everything else, including the e-dynamics, passes through
untouched.

That projection has a closed form: the z1-rate is fc1 clamped into the
interval that the tight sector lines impose (k1*edot and/or k2*edot, oriented
by the branch), and at the corner the interval of whichever branch admits
edot.  ``closed_loop_rhs`` evaluates it in plain floats through
``projection.vstar_selector``; the KKT projection (``project_partial`` on
``sector_tangent_cone``) and the brute-force oracle are kept as its
references, not on the simulation path.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NotInSet, ZeroOutputRow
from .geometry import Sector, _as_vector, _readonly
from .projection import ProjectionSubspace, vstar_selector


@dataclass(frozen=True)
class Plant:
    """Continuous plant dynamics x' = f_p(x, u, w) with output e = gp . x."""

    n: int
    f_p: Callable[[np.ndarray, float, float], np.ndarray]
    gp: np.ndarray

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("plant state dimension must be positive")
        gp = _as_vector(self.gp, self.n)
        if np.linalg.norm(gp) == 0.0:
            raise ZeroOutputRow("plant output row gp is zero")
        object.__setattr__(self, "gp", _readonly(gp))


@dataclass(frozen=True)
class Controller:
    """Controller dynamics z' = f_c(z, e); the output is fixed to u = z1."""

    m: int
    f_c: Callable[[np.ndarray, float], np.ndarray]

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("controller state dimension must be at least 1")


@dataclass(frozen=True)
class ClosedLoopSystem:
    """Plant-controller interconnection with its sector constraint.

    H maps xi = (x, z) to the constrained pair (e, u); E spans the
    controller coordinates, the only admissible correction directions.
    """

    plant: Plant
    controller: Controller
    sector: Sector
    H: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "H", _readonly(self.H))

    @functools.cached_property
    def E(self) -> ProjectionSubspace:
        """The correction subspace, built on first use: the simulator's
        closed form never needs it, and its construction takes an SVD."""
        basis = np.zeros((self.dim, self.m))
        basis[self.n :, :] = np.eye(self.m)
        return ProjectionSubspace(ambient_dim=self.dim, basis=basis)

    @property
    def n(self) -> int:
        return self.plant.n

    @property
    def m(self) -> int:
        return self.controller.m

    @property
    def dim(self) -> int:
        return self.plant.n + self.controller.m

    def split(self, xi) -> tuple[np.ndarray, np.ndarray]:
        xi = _as_vector(xi, self.dim)
        return xi[: self.n], xi[self.n :]

    def output_pair(self, xi) -> np.ndarray:
        """(e, u) = H xi."""
        return self.H @ _as_vector(xi, self.dim)

    def in_set(self, xi) -> bool:
        """Lifted set membership: xi belongs iff H xi lies in the sector."""
        return self.sector.contains(self.output_pair(xi))

    def unprojected_field(self, xi, w: float = 0.0) -> np.ndarray:
        x, z = self.split(xi)
        fp = _as_vector(self.plant.f_p(x, float(z[0]), float(w)), self.n)
        fc = _as_vector(self.controller.f_c(z, float(self.plant.gp @ x)), self.m)
        return np.concatenate([fp, fc])


def build_closed_loop(plant: Plant, controller: Controller, sector) -> ClosedLoopSystem:
    """Assemble H and E and validate the structural invariants.

    ``sector`` may be a Sector or a (k1, k2) pair.  Raises ZeroOutputRow
    when gp vanishes and DegenerateSector when k1 >= k2.
    """
    if not isinstance(sector, Sector):
        k1, k2 = sector
        sector = Sector(k1, k2)  # raises DegenerateSector if k1 >= k2
    g = float(np.linalg.norm(plant.gp))
    if g == 0.0:
        raise ZeroOutputRow("plant output row gp is zero")
    # H = [gp 0; 0 e1] has orthogonal rows, so its singular values are
    # |gp| and 1: the rank test needs no SVD.
    if min(g, 1.0) <= 1e-12 * max(g, 1.0):
        raise ZeroOutputRow("output map H lost full row rank")
    n, m = plant.n, controller.m
    H = np.zeros((2, n + m))
    H[0, :n] = plant.gp
    H[1, n] = 1.0
    return ClosedLoopSystem(plant=plant, controller=controller, sector=sector, H=H)


@dataclass(frozen=True)
class RhsEval:
    """Projected closed-loop field plus step diagnostics."""

    field: np.ndarray
    edot: float
    vstar: float
    branch: str
    correction_norm: float

    def __post_init__(self):
        object.__setattr__(self, "field", _readonly(self.field))


def closed_loop_rhs(sys: ClosedLoopSystem, xi, w: float = 0.0) -> RhsEval:
    """Projected field at xi via the two-dimensional reduction.

    Computes the unprojected field, forms (edot, fc1) in the (e, u)-plane,
    projects it into the sector tangent cone along the vertical direction,
    and replaces only the z1-rate by the result.  Plant components and the
    remaining controller components pass through unchanged.

    The projection is the closed-form clamp of fc1 into the interval that
    the point's position admits (``vstar_selector``), with the point
    classified once by ``Sector.classify``: off the corner the tight sector
    line bounds it, at the corner the branch that admits edot does.
    ``project_partial`` on ``sector_tangent_cone`` (KKT enumeration) and
    ``oracle_project`` are its references in the tests.
    """
    xi = _as_vector(xi, sys.dim)
    e, u = sys.H.dot(xi).tolist()  # ndarray.dot: the BLAS call of @, with less overhead
    sec = sys.sector
    pos = sec.classify(e, u)
    if pos.label == "outside":
        raise NotInSet(f"output pair {[e, u]} is outside the sector")
    n = sys.plant.n
    x, z = xi[:n], xi[n:]
    fp = _as_vector(sys.plant.f_p(x, float(z[0]), float(w)), n)
    fc = _as_vector(sys.controller.f_c(z, e), sys.controller.m).tolist()
    edot = float(sys.plant.gp.dot(fp))
    fc1 = fc[0]
    vstar = vstar_selector(sec, pos, edot, fc1)
    return RhsEval(
        field=[*fp.tolist(), vstar, *fc[1:]],  # RhsEval freezes it into an array
        edot=edot,
        vstar=vstar,
        branch=pos.label,
        correction_norm=abs(vstar - fc1),
    )


def higs_preset(k_h: float, omega_h: float) -> tuple[Controller, Sector]:
    """Hybrid integrator preset: z' = omega_h * e inside the [0, k_h] sector."""
    if not (k_h > 0.0):
        raise ValueError("k_h must be positive")
    if not (omega_h > 0.0):
        raise ValueError("omega_h must be positive")
    controller = Controller(
        m=1, f_c=lambda z, e, _w=float(omega_h): np.array([_w * e])
    )
    return controller, Sector(0.0, float(k_h))


@dataclass(frozen=True)
class GrowthReport:
    """Sampled linear-growth certificate for the projected field.

    ``violations`` lists samples where the supplied M failed the
    precondition on the unprojected field; ``c_observed`` is the smallest c
    with |projected field| <= c * kappa * M * (1 + |xi|) over the clean
    samples, kappa = max(1, |k1|, |k2|).
    """

    m_prime_observed: float
    c_observed: float
    kappa: float
    n_samples: int
    violations: tuple[dict, ...]


def _sample_state(sys: ClosedLoopSystem, rng: np.random.Generator, radius: float) -> np.ndarray:
    n, m = sys.n, sys.m
    gp = sys.plant.gp
    x = rng.standard_normal(n)
    nx = np.linalg.norm(x)
    if nx > 0:
        x *= rng.uniform(0.0, radius) / nx
    kind = rng.uniform()
    if kind < 0.1:
        # corner: force e = 0 by removing the gp-component
        x = x - (float(gp @ x) / float(gp @ gp)) * gp
    e = float(gp @ x)
    lo = min(sys.sector.k1 * e, sys.sector.k2 * e)
    hi = max(sys.sector.k1 * e, sys.sector.k2 * e)
    if kind < 0.1:
        u = 0.0
    elif kind < 0.5:
        u = (sys.sector.k1 if rng.uniform() < 0.5 else sys.sector.k2) * e
    else:
        u = rng.uniform(lo, hi) if hi > lo else lo
    z = np.zeros(m)
    z[0] = u
    if m > 1:
        rest = rng.standard_normal(m - 1)
        nr = np.linalg.norm(rest)
        if nr > 0:
            rest *= rng.uniform(0.0, radius) / nr
        z[1:] = rest
    return np.concatenate([x, z])


def growth_check(
    sys: ClosedLoopSystem,
    M: float,
    samples: int,
    seed: int = 0,
    radius: float = 1e3,
) -> GrowthReport:
    """Sample the lifted set and bound the projected field's growth.

    The caller's M must satisfy |f(xi)| <= M (1 + |xi|); samples breaking
    that precondition are reported as violations and excluded from the fit.
    States mix interior points, boundary-line points and corner states so
    the projection actually engages.
    """
    if M <= 0:
        raise ValueError("M must be positive")
    rng = np.random.default_rng(seed)
    kappa = max(1.0, abs(sys.sector.k1), abs(sys.sector.k2))
    c_obs = 0.0
    m_prime = 0.0
    violations: list[dict] = []
    for i in range(samples):
        xi = _sample_state(sys, rng, radius)
        scale = 1.0 + float(np.linalg.norm(xi))
        f = sys.unprojected_field(xi, 0.0)
        f_norm = float(np.linalg.norm(f))
        if f_norm > M * scale:
            violations.append(
                {"index": i, "f_norm": f_norm, "bound": M * scale, "xi_norm": scale - 1.0}
            )
            continue
        r = closed_loop_rhs(sys, xi, 0.0)
        p_norm = float(np.linalg.norm(r.field))
        m_prime = max(m_prime, p_norm / scale)
        c_obs = max(c_obs, p_norm / (kappa * M * scale))
    return GrowthReport(
        m_prime_observed=m_prime,
        c_observed=c_obs,
        kappa=kappa,
        n_samples=samples,
        violations=tuple(violations),
    )
