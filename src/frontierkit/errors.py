"""Exception types shared across the library.

The command line maps them to exit codes: `ConfigError` and its subclass
`UnresolvablePeaks` exit 2; every other `FrontierKitError`, like a
`ValueError` or `ArithmeticError`, exits 3.
"""


class FrontierKitError(Exception):
    """Base class for all library errors."""


class DomainError(FrontierKitError):
    """Evaluation requested outside the closure of an effective domain."""


class RootBracketFailure(FrontierKitError):
    """A sign change could not be bracketed after bracket expansion."""


class DivergenceViolation(FrontierKitError):
    """The effort-cost/utility primitives fail the interior-maximizer condition."""


class UStarAtOrigin(FrontierKitError):
    """Gap classification requested at a gap peak located at zero."""


class EmptySupport(FrontierKitError):
    """A frontier distribution with no support points."""


class NonFiniteValue(FrontierKitError):
    """A payoff evaluation hit a -inf frontier value."""


class PreconditionViolation(FrontierKitError):
    """An operation's stated precondition does not hold."""


class InvalidProfile(FrontierKitError):
    """A supergradient profile fails its validity flags where required."""


class NonConvergent(FrontierKitError):
    """A difference-quotient sequence failed to settle."""


class ParamsOutOfRange(FrontierKitError):
    """Smoothing parameters violate their admissible ranges."""


class ConfigError(FrontierKitError):
    """A configuration file failed validation; message names the offending key."""


class UnresolvablePeaks(ConfigError):
    """The primitives put ``u1`` too close to ``u0`` for the peak solves (exit 2)."""
