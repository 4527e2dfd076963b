"""Concave frontier calculus, deadline mechanisms, and verification suites.

Names load on first use (PEP 562): ``import frontierkit`` loads no
submodule, and ``frontierkit.payoff`` imports `mechanism` when first asked
for. A name is not kept on the package, so one that a submodule rebinds
(as a tracer does) is read afresh.
"""

import importlib

# submodule -> the public names it gives the package
_NAMES = {
    "errors": (
        "ConfigError", "DivergenceViolation", "DomainError", "EmptySupport", "FrontierKitError",
        "InadmissiblePrimitives", "InvalidProfile", "NonConvergent", "NonFiniteValue", "ParamsOutOfRange",
        "PreconditionViolation", "RootBracketFailure", "UnresolvablePeaks", "UStarAtOrigin",
    ),
    "frontiers": (
        "AffineFrontier", "CallableFrontier", "Frontier", "ParametricFrontier", "PiecewiseLinearFrontier",
        "QuadraticFrontier", "directional_deriv", "gap_argmax", "midpoint_concavity_slack",
    ),
    "gap_analysis": (
        "GapClassification", "GapKind", "GapWitness", "classify_u_star", "shared_supergradient_interval",
    ),
    "mechanism": (
        "BreakthroughDistribution", "Mechanism", "TimeGrid", "deadline_for_promise", "dominance_check",
        "make_deadline_mechanism", "no_delay_improve", "normalize", "payoff", "payoff_affine_rewrite", "pi_G",
    ),
    "mixture": ("FrontierDistribution", "mixture_domain", "mixture_peak", "mixture_value", "verify_mixture_regularity"),
    "quadrature": ("MeasureOnTime",),
    "report": ("Check", "VerificationReport"),
    "roots": (),
    "smoothing": (
        "SmoothedPair", "SmoothingParams", "averaged_right_derivative", "build_sequence", "build_smooth_pair",
        "verify_monster",
    ),
    "technology": (
        "MoralHazardPrimitives", "PowerCost", "PowerUtility", "Technology", "effort_star",
        "make_moral_hazard_technology", "verify_ui_assumptions",
    ),
    "variational": (
        "IntegrabilityReport", "SupergradientProfile", "euler_residual", "gateaux_closed_form", "gateaux_fd",
        "integrability_bounds", "stieltjes_ibp", "strict_concavity_probe", "warmup_identity",
    ),
}
_SOURCE = {name: module for module, names in _NAMES.items() for name in names}

__all__ = sorted([*_NAMES, *_SOURCE])


def __getattr__(name):
    module = _SOURCE.get(name, name)
    if module not in _NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # importing a submodule binds it here, so later lookups skip the import system
    sub = globals().get(module) or importlib.import_module(f"{__name__}.{module}")
    return sub if module == name else getattr(sub, name)


def __dir__():
    return __all__
