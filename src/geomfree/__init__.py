"""geomfree: a certified trigonometric kernel built from first principles.

sin, cos, pi (via Q, the first positive zero of cosine), and arcsin are
constructed purely from the sine power series and its consequences; no
platform trigonometric function is used outside the benchmark baseline.
Exact-rational polynomial algebra replays the coefficient-level proofs
of the Pythagorean and sine-addition identities, and every numeric
evaluation carries a proven absolute error bound.
"""

import types

from .analysis import (
    OdeTrajectory,
    QuadratureResult,
    arc_length,
    arcsin_derivative_check,
    arcsin_newton,
    arcsin_quadrature,
    ode_oracle,
    quarter_circle_area,
    unit_circle_point,
)
from .constants import ConstantsTable, find_q, pi_value, q_multiples_table, shared_table
from .errors import (
    DomainError,
    GeomfreeError,
    InvalidTolerance,
    StepTooLarge,
    ToleranceTooTight,
    UnknownIdentity,
)
from .exact_series import (
    BiPoly,
    UniPoly,
    cauchy_product,
    sine_sum_split,
    substitute_sum,
    truncated_cos,
    truncated_sin,
    uni_to_bi,
    verify_pythagorean,
    verify_sine_sum,
    verify_sine_sum_split,
)
from .identities import (
    IdentityCheck,
    check_identity,
    check_periodicity,
    default_samples,
    registered_identities,
    solve_sine_cubic,
    special_angles,
)
from .report import CheckResult, build_report, report_to_json, validate_report
from .series_kernel import (
    CertifiedValue,
    cos_eval,
    cos_eval_exact,
    ode_coefficients,
    sin_eval,
    sin_eval_exact,
)

__version__ = "0.1.0"

# every public name imported above, and nothing else
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, types.ModuleType))
