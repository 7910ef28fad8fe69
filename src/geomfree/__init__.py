"""geomfree: a certified trigonometric kernel built from first principles.

sin, cos, pi (via Q, the first positive zero of cosine), and arcsin are
constructed purely from the sine power series and its consequences; no
platform trigonometric function is used outside the benchmark baseline.
Exact-rational polynomial algebra replays the coefficient-level proofs
of the Pythagorean and sine-addition identities, and every numeric
evaluation carries a proven absolute error bound.

A fresh `import geomfree` loads only what evaluating sin, cos and Q needs:
errors, series_kernel (with doubledouble) and constants.  The names of
analysis, exact_series, identities and report, and those four modules
themselves, are attributes of the package all the same: the first access
to one of them imports its module (PEP 562) and keeps the value, so a
process that only evaluates never loads arcsin, the quadratures, the exact
polynomial proofs, the identity suite or the report.
"""

import importlib
import types

from .constants import ConstantsTable, find_q, pi_value, q_multiples_table, shared_table
from .errors import (
    DomainError,
    GeomfreeError,
    InvalidTolerance,
    StepTooLarge,
    ToleranceTooTight,
    UnknownIdentity,
)
from .series_kernel import (
    CertifiedValue,
    cos_eval,
    cos_eval_exact,
    ode_coefficients,
    sin_eval,
    sin_eval_exact,
)

__version__ = "0.1.0"

# the public names whose module loads on first access, by module
_DEFERRED = {
    "analysis": ("OdeTrajectory", "QuadratureResult", "arc_length", "arcsin_derivative_check",
                 "arcsin_newton", "arcsin_quadrature", "ode_oracle", "quarter_circle_area",
                 "unit_circle_point"),
    "exact_series": ("BiPoly", "UniPoly", "cauchy_product", "sine_sum_split", "substitute_sum",
                     "truncated_cos", "truncated_sin", "uni_to_bi", "verify_pythagorean",
                     "verify_sine_sum", "verify_sine_sum_split"),
    "identities": ("IdentityCheck", "check_identity", "check_periodicity", "default_samples",
                   "registered_identities", "solve_sine_cubic", "special_angles"),
    "report": ("CheckResult", "build_report", "report_to_json", "validate_report"),
}
_MODULE_OF = {name: module for module, names in _DEFERRED.items() for name in names}

# every public name imported above or deferred, and nothing else
__all__ = sorted([name for name, value in globals().items()
                  if not name.startswith("_") and not isinstance(value, types.ModuleType)]
                 + list(_MODULE_OF))


def __getattr__(name):
    """Import a deferred name's module on its first access and keep the name."""
    if name in _DEFERRED:  # the import binds the submodule in the package's globals
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__name__}.{_MODULE_OF[name]}")
    value = globals()[name] = getattr(module, name)
    return value


def __dir__():
    return sorted({*globals(), *_MODULE_OF, *_DEFERRED})
