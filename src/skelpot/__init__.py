"""Exact potential theory on finite metric graphs.

Rational-arithmetic metric graphs, piecewise-affine functions and their
Laplacian measures, Dirichlet/Green/Poisson machinery, monotone smooth
regularization of subharmonic functions, rationalization certificates,
tent decompositions, and a Lagerberg-style superform calculus.
"""

from .graph import (Edge, EdgePoint, GraphError, MetricGraph,
                    TangentDirection, Vertex, point_to_json, point_sort_key)
from .pa_function import (DiscreteMeasure, PAFunction, SlopeVerdict,
                          integrate, linear_combine)
from .linalg import SingularMatrixError, is_psd_exact, solve_exact
from .potential import (GreenFunction, GreenVerdict, NotHarmonicError,
                        NotSubharmonicError, dirichlet_solve,
                        evaluation_formula_check, green, green_to_json_dict,
                        is_subharmonic_green, local_green_pairing,
                        maximum_principle_check, poisson)
from .regularize import (RegularizationSequence, build_regularization,
                         eval_smoothed, sample_points, smooth_max,
                         smooth_max_n, theta)
from .rationalize import (RationalizationCertificate, RationalizationError,
                          rationalize, tent_decompose, tent_reconstruction)
from .superforms import (AffineMap, Poly, SuperForm, d_prime, d_second,
                         format_form, hessian_form, is_positive_11,
                         j_involution, parse_form, pullback, wedge)
from .rational import RationalParseError, format_rational, parse_rational

__all__ = [name for name in dir() if not name.startswith("_")]

__version__ = "0.1.0"
