import numpy as np
import pytest

from epds import Plant, build_closed_loop, drift_correct, higs_preset
from epds.sim import _step_schedule


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
