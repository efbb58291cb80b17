"""Exception types shared across the package."""

import math


class ConfigurationError(ValueError):
    """A scenario or parameter set violates its invariants.

    The message names the offending key (e.g. ``geometry.lambda_b``) when the
    error originates from a scenario file.
    """


def require_finite(section: str, fields: dict[str, object]) -> None:
    """Reject the first float in ``fields`` that is NaN or infinite, naming it
    ``section.key``; other values are left to the caller's checks.

    Range checks written as comparisons let NaN through, and an infinite
    setting only fails later inside the numerics, so configuration objects
    call this before their range checks.
    """
    for key, value in fields.items():
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigurationError(f"{section}.{key} must be finite")


class SolverError(RuntimeError):
    """Numerical failure inside the HJB/FPK machinery: a non-finite value
    update, or a pass output that fails its density or solution checks. A
    grid that violates the step-size condition is a bad input, rejected by
    ``Grid.check_cfl`` on entry to each pass with :class:`ConfigurationError`."""


class PolicyError(RuntimeError):
    """A policy refused to evaluate (e.g. built from an unconverged solve)."""


class BarrierExclusionError(RuntimeError):
    """Every replication of an experiment point hit the backhaul barrier, so
    the point has no cost to report (a run-time outcome, not a bad input)."""
