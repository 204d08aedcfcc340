"""Exception types shared across the package."""


class MMRabiError(Exception):
    """Base class for all package errors."""


class StateNotInSpace(MMRabiError):
    """Basis state is not a member of the given Hilbert space."""


class IndexOutOfRange(MMRabiError):
    """Mode or qubit index outside the model dimensions."""


class CutoffTooSmall(MMRabiError):
    """Photon cutoff too small for the requested operation."""


class SpaceMismatch(MMRabiError):
    """Operands live in different Hilbert spaces."""


class ConditionsViolated(MMRabiError):
    """Parameter constraints for an analytic solution do not hold.

    Carries a list of (name, magnitude) pairs describing each violated
    constraint and by how much.
    """

    def __init__(self, violations):
        self.violations = list(violations)
        detail = "; ".join(f"{name}: off by {mag:.3e}" for name, mag in self.violations)
        super().__init__(f"solution conditions violated: {detail}")


class ConvergenceFailure(MMRabiError):
    """Eigensolver failed to converge."""


class InvalidSchedule(MMRabiError):
    """Protocol schedule is malformed (empty duration, bad breakpoints)."""


class StepFailure(MMRabiError):
    """Time integrator failed; message carries the failure time."""


class PositivityLoss(MMRabiError):
    """Density matrix developed a significantly negative eigenvalue."""


class ConfigError(MMRabiError):
    """Experiment configuration failed to parse or validate."""


class RegimeViolation(MMRabiError):
    """Circuit parameters leave the validity regime of the effective model."""
