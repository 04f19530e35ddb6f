"""Exception types shared across the library."""


class EpdsError(Exception):
    """Base class for all library-specific errors."""


class NotInSet(EpdsError):
    """A point required to belong to the constraint set does not."""


class CqViolated(EpdsError):
    """Active-constraint gradients are linearly dependent at the point."""


class RankDeficient(EpdsError):
    """A matrix required to have full row or column rank does not."""


class Infeasible(EpdsError):
    """The cone does not meet the affine set v + Im E."""


class DegenerateKKT(EpdsError):
    """No candidate active subset passed the KKT checks.

    This signals numerical breakdown: under row independence and
    feasibility some subset always passes.
    """


class NoFeasiblePoint(EpdsError):
    """The oracle found no feasible point: Fourier-Motzkin elimination
    proved every branch of the cone empty along v + Im E."""


class ZeroOutputRow(EpdsError):
    """Plant output row is zero, so the lifted output map loses row rank."""


class DegenerateSector(EpdsError):
    """Sector slopes must satisfy k1 < k2."""


class InitialStateOutsideSet(EpdsError):
    """Initial state of a simulation violates the lifted sector set."""


class StateExploded(EpdsError):
    """State norm exceeded the blow-up bound during integration."""

    def __init__(self, t: float, norm: float, bound: float):
        super().__init__(
            f"state norm {norm:.3e} exceeded blow-up bound {bound:.3e} at t={t:.6g}"
        )
        self.t = t
        self.norm = norm
        self.bound = bound


class ScenarioError(EpdsError):
    """A scenario document failed validation.

    ``field`` names the offending entry (dotted path into the JSON document)
    so callers can produce machine-readable diagnostics.
    """

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field
        self.message = message
