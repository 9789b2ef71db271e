"""Exact construction and certification of lines on twisted surface models.

The package works entirely in exact arithmetic: rationals, integers
(the twists over the Eisenstein field Q(omega) are composed on int
pairs a + b omega), and unramified p-adic rings mod p^K with sound
valuations (a value that is zero at the working precision has an
indeterminate valuation, never a guessed one); at precision 1 such a
ring is a finite field F_{p^d}.
On top of that tower it builds sparse multivariate polynomials, the
twisted models of a surface of sigma-type in P^5, line charts on those
models, local factorization of the restricted quartic over Z_p, and a
search that combines congruence targets at 3 and 5 with a real anchor
and certifies the lines it finds.
"""

from .errors import (
    BadLocusError,
    ConfigError,
    ConicPointError,
    DegenerateLineError,
    HmsError,
    NotOnSurfaceError,
    PrecisionError,
    RationalityError,
    RegimeError,
    SearchExhausted,
    SingularPointError,
)
from .padics import IndeterminateValuation, UElt, UnramifiedRing
from .mpoly import SparsePoly, elementary_symmetric
from .quartics import BinaryQuartic, real_root_count, roots_over_Fq
from .hensel import BlockReport, HenselReport, hensel_factor_quartic
from .galois import (
    QuarticGaloisGroup,
    SolvabilityReport,
    frobenius_cycle_type,
    quartic_galois_group,
    resolvent_cubic,
    solvability_report,
)
from .surface import (
    ModularFormValues,
    OrdinarityCertificate,
    SigmaProfile,
    SurfaceModel,
    TwistData,
    char3_twist,
    identity_twist,
    modular_form_values,
    ordinarity_from_profile,
    rho0_twist,
    sigma_profile,
    twist_by_name,
    twisted_equations,
)
from .lines import (
    CuspProximityReport,
    Line,
    TangentConeChart,
    char3_leading_profile,
    char3_quartic_display,
    cusp_proximity,
    labc_line,
    labc_params_of_line,
    parity_admissible,
    quartic_of_line,
)
from .search import (
    LocalTarget,
    SearchConfig,
    SolvableLineCertificate,
    build_model,
    certify_line,
    crt_parameter,
    derive_chart_params,
    find_lines,
    intersection_points,
    load_config,
    parse_config,
)
from .verify import verify_paper

__version__ = "0.1.0"

__all__ = [
    "BadLocusError",
    "ConfigError",
    "ConicPointError",
    "DegenerateLineError",
    "HmsError",
    "NotOnSurfaceError",
    "PrecisionError",
    "RationalityError",
    "RegimeError",
    "SearchExhausted",
    "SingularPointError",
    "IndeterminateValuation",
    "UnramifiedRing",
    "UElt",
    "SparsePoly",
    "elementary_symmetric",
    "BinaryQuartic",
    "real_root_count",
    "roots_over_Fq",
    "BlockReport",
    "HenselReport",
    "hensel_factor_quartic",
    "QuarticGaloisGroup",
    "SolvabilityReport",
    "frobenius_cycle_type",
    "quartic_galois_group",
    "resolvent_cubic",
    "solvability_report",
    "ModularFormValues",
    "OrdinarityCertificate",
    "SigmaProfile",
    "SurfaceModel",
    "TwistData",
    "char3_twist",
    "identity_twist",
    "modular_form_values",
    "ordinarity_from_profile",
    "rho0_twist",
    "sigma_profile",
    "twist_by_name",
    "twisted_equations",
    "CuspProximityReport",
    "Line",
    "TangentConeChart",
    "char3_leading_profile",
    "char3_quartic_display",
    "cusp_proximity",
    "labc_line",
    "labc_params_of_line",
    "parity_admissible",
    "quartic_of_line",
    "LocalTarget",
    "SearchConfig",
    "SolvableLineCertificate",
    "build_model",
    "certify_line",
    "crt_parameter",
    "derive_chart_params",
    "find_lines",
    "intersection_points",
    "load_config",
    "parse_config",
    "verify_paper",
    "__version__",
]
