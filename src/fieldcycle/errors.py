"""Exception types shared across the instrument model."""


class FieldCycleError(Exception):
    """Base class for all errors raised by this package."""


# field map
class OutOfDomain(FieldCycleError):
    """Axial position outside the field map's valid domain."""


class FieldNotReachable(FieldCycleError):
    """Requested field value is not attained anywhere on the map domain."""


class NoConvergence(FieldCycleError):
    """Calibration could not satisfy every anchor within its tolerance."""


class NonMonotonicModel(FieldCycleError):
    """Spline knots or prescribed slopes violate strict monotonicity."""


# motion
class DistanceExceedsTravel(FieldCycleError):
    """Planned move is longer than the actuator travel range."""


class InvalidTarget(FieldCycleError):
    """Cruise-velocity target is non-positive or above the velocity limit."""


# sequencer
class SpecInvalid(FieldCycleError):
    """Sequence specification is structurally invalid."""


# spin
class NearDivergence(FieldCycleError):
    """Operating point sits inside the guard band of a vanishing denominator."""


class StepTooCoarse(FieldCycleError):
    """Integrator error estimate still above tolerance at the step cap."""

    def __init__(self, message, estimate):
        super().__init__(message)
        self.estimate = estimate


class NonlinearRegime(FieldCycleError):
    """Polarization is outside the linear (small tanh argument) regime."""


# relaxometry
class FitDiverged(FieldCycleError):
    """Nonlinear least-squares decay fit failed to converge."""


class InsufficientPoints(FieldCycleError):
    """Too few points in the decay curve to fit."""


# orchestrator
class SchemaViolation(FieldCycleError):
    """Experiment spec document does not conform to the schema."""

    def __init__(self, message, path="$"):
        super().__init__(f"{path}: {message}")
        self.path = path


class UnknownKind(FieldCycleError):
    """Experiment spec names a kind this tool does not implement."""


class UnsupportedVersion(FieldCycleError):
    """Experiment spec schema_version is not supported."""
