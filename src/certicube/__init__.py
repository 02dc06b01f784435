"""Certified multivariate integration on simplices.

Convex sandwich bounds, curvature-based error certificates for positive
degree-2-exact cubature rules, and an adaptive bisection integrator
that returns a value together with a rigorous error radius.
"""

from .adaptive import AdaptiveConfig, integrate_adaptive
from .bounds import (CertifiedResult, SandwichResult, hh_sandwich,
                     midpoint_bound, rule_bound)
from .cubature import (CubatureRule, RuleReport, apply_rule, builtin,
                       load_rule, save_rule, verify)
from .field import (ScalarField, convexify, d2f_sup_norm, hessian_at,
                    parse_expr)
from .geometry import Simplex, bisect, load_simplex, unit_simplex, volume
from .moments import (MomentTable, central_second_moment,
                      central_second_moment_unit, integrate_poly2,
                      moment_table, monomial_moment)
from .qform import QuadraticForm, evaluate, operator_norm, sum_abs_bound

__all__ = [
    "AdaptiveConfig", "CertifiedResult", "CubatureRule", "MomentTable",
    "QuadraticForm", "RuleReport", "SandwichResult", "ScalarField",
    "Simplex", "apply_rule", "bisect", "builtin", "central_second_moment",
    "central_second_moment_unit", "convexify", "d2f_sup_norm", "evaluate",
    "hessian_at", "hh_sandwich", "integrate_adaptive", "integrate_poly2",
    "load_rule", "load_simplex", "midpoint_bound", "moment_table",
    "monomial_moment", "operator_norm", "parse_expr", "rule_bound",
    "save_rule", "sum_abs_bound", "unit_simplex", "verify", "volume",
]

__version__ = "0.1.0"
