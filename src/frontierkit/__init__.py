"""Concave frontier calculus, deadline mechanisms, and verification suites."""

from .errors import (
    ConfigError,
    DivergenceViolation,
    DomainError,
    EmptySupport,
    FrontierKitError,
    InadmissiblePrimitives,
    InvalidProfile,
    NonConvergent,
    NonFiniteValue,
    ParamsOutOfRange,
    PreconditionViolation,
    RootBracketFailure,
    UnresolvablePeaks,
    UStarAtOrigin,
)
from .frontiers import (
    AffineFrontier,
    CallableFrontier,
    Frontier,
    ParametricFrontier,
    PiecewiseLinearFrontier,
    QuadraticFrontier,
    directional_deriv,
    gap_argmax,
    midpoint_concavity_slack,
)
from .gap_analysis import (
    GapClassification,
    GapKind,
    GapWitness,
    classify_u_star,
    is_saddle,
    shared_supergradient_interval,
)
from .mechanism import (
    BreakthroughDistribution,
    Mechanism,
    TimeGrid,
    deadline_for_promise,
    dominance_check,
    make_deadline_mechanism,
    no_delay_improve,
    normalize,
    payoff,
    payoff_affine_rewrite,
    pi_G,
    promised_utility,
)
from .mixture import (
    FrontierDistribution,
    mixture_domain,
    mixture_peak,
    mixture_value,
    verify_mixture_regularity,
)
from .quadrature import MeasureOnTime
from .report import Check, VerificationReport
from .smoothing import (
    SmoothedPair,
    SmoothingParams,
    averaged_right_derivative,
    build_sequence,
    build_smooth_pair,
    verify_monster,
)
from .technology import (
    MoralHazardPrimitives,
    PowerCost,
    PowerUtility,
    Technology,
    effort_star,
    make_moral_hazard_technology,
    verify_ui_assumptions,
)
from .variational import (
    IntegrabilityReport,
    SupergradientProfile,
    euler_residual,
    gateaux_closed_form,
    gateaux_fd,
    integrability_bounds,
    stieltjes_ibp,
    strict_concavity_probe,
    warmup_identity,
)

__all__ = [name for name in dir() if not name.startswith("_")]
