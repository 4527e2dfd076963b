"""Exception types shared across the library.

The command line maps them to exit codes: `ConfigError` and its subclasses
exit 2, among them `InadmissiblePrimitives` (primitives that fail
`MoralHazardPrimitives.validate`, or whose ``phi_inv`` overflows just above
``u0``) and `UnresolvablePeaks` (``u0`` beyond the
peak solver's reach, ``u1`` too close to ``u0``, or solved peaks off the
identity ``u0 - u1 = kappa(L1)``). Every other
`FrontierKitError`, like a `ValueError` or `ArithmeticError`, exits 3.
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


class InadmissiblePrimitives(ConfigError, DivergenceViolation):
    """The configured primitives fail the model's shape conditions, or put the
    frontiers past the float range just above ``u0`` (exit 2)."""


class UnresolvablePeaks(ConfigError):
    """The primitives put ``u0`` beyond the peak solver's reach, ``u1`` too
    close to ``u0`` to tell apart, or the solved peaks off the identity
    ``u0 - u1 = kappa(L1)`` (exit 2)."""
