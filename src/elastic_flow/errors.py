"""Exception types shared across the package."""


class CurveError(Exception):
    """Base class for curve construction and geometry failures."""


class DegenerateCurve(CurveError):
    """A curve has (nearly) coincident consecutive nodes."""


class BadParams(CurveError):
    """Curve-family parameters outside their documented ranges; `key`, when
    given, names the parameter at fault by its [initial] config key."""

    def __init__(self, reason: str, key: str | None = None):
        self.key = key
        self.reason = reason
        super().__init__(reason if key is None else f"{key}: {reason}")


class SolverFailure(RuntimeError):
    """Linear solve residual exceeded the configured tolerance."""


class SingularityDetected(RuntimeError):
    """Curvature or mesh degeneracy crossed the blow-up detector."""


class ReparamFailure(RuntimeError):
    """Constant-speed redistribution did not converge."""


class WindowMismatch(ValueError):
    """Trajectories do not cover the requested comparison window."""


class OutOfDomain(ValueError):
    """Query outside the computed range of a Gronwall majorant."""


class BadExponent(ValueError):
    """Interpolation-inequality exponent fell outside [0, 1]."""


class ConfigError(ValueError):
    """Malformed or out-of-range configuration entry."""

    def __init__(self, key: str, reason: str):
        self.key = key
        self.reason = reason
        super().__init__(f"{key}: {reason}")


class IoError(OSError):
    """Failure while emitting or reading artifact files."""
