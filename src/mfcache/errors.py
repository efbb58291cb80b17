"""Exception types shared across the package."""


class ConfigurationError(ValueError):
    """A scenario or parameter set violates its invariants.

    The message names the offending key (e.g. ``geometry.lambda_b``) when the
    error originates from a scenario file.
    """


class SolverError(RuntimeError):
    """Numerical failure inside the HJB/FPK machinery (non-finite update,
    mass drift beyond tolerance, CFL violation detected mid-run)."""


class PolicyError(RuntimeError):
    """A policy refused to evaluate (e.g. built from an unconverged solve)."""


class BarrierExclusionError(RuntimeError):
    """Every replication of an experiment point hit the backhaul barrier, so
    the point has no cost to report (a run-time outcome, not a bad input)."""
