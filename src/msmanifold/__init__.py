"""Mean-square invariant manifolds of ill-posed stochastic evolution
equations: gap certification, Monte Carlo fixed-point solvers for the
unstable/stable graphs, and the supporting resolvent and regression
machinery."""

__version__ = "0.1.0"

from . import errors
from .condexp import (CondexpEstimate, RegressionBasis, condexp_anchor,
                      condexp_ito_zero, condexp_lsmc, default_basis)
from .config import (canonical_json, config_hash, load_config,
                     problem_from_config, validate_config)
from .example_pde import build_example_problem, example_eigenvalues
from .lyapunov_perron import (FixedPointTrace, LipschitzCertificate, LPConfig,
                              ManifoldGraph, gap_report_for, invariance_residual,
                              lipschitz_bound, lipschitz_certify,
                              lp_backward_map, lp_backward_solve,
                              lp_forward_map, lp_forward_solve, stable_graph,
                              unstable_graph)
from .oracles import (RefinementStudy, deterministic_lp_oracle,
                      linear_manifold_oracle, moment_oracle, refinement_study)
from .problem import (GapReport, NoiseModel, NonlinearityModel, SpectralProblem,
                      build_problem, callable_nonlinearity,
                      diagonal_linear_noise, gap_delta, gap_eta, gap_report,
                      linear_nonlinearity, project,
                      saturated_noise, saturated_polynomial_nonlinearity,
                      semigroup_apply, zero_noise, zero_nonlinearity)
from .resolvent import (BoundaryTriple, DEFAULT_LADDER, HilleYosidaData,
                        boundary_columns, c_kappa, convolve_diamond,
                        estimate_delta, extend_projection, lambda_regularize,
                        resolvent_boundary)
from .stochastic import (ProcessEnsemble, TimeGrid, WienerEnsemble,
                         integrate_mild, ms_norm, resample_future,
                         sample_wiener, weighted_norm)

__all__ = [
    "__version__",
    "errors",
    # problem
    "SpectralProblem", "NonlinearityModel", "NoiseModel", "GapReport",
    "build_problem", "semigroup_apply", "project", "gap_report",
    "gap_eta", "gap_delta", "zero_nonlinearity",
    "linear_nonlinearity", "saturated_polynomial_nonlinearity",
    "callable_nonlinearity", "zero_noise", "diagonal_linear_noise",
    "saturated_noise",
    # resolvent
    "HilleYosidaData", "BoundaryTriple", "DEFAULT_LADDER",
    "resolvent_boundary", "boundary_columns", "lambda_regularize",
    "extend_projection", "convolve_diamond", "c_kappa", "estimate_delta",
    # stochastic
    "TimeGrid", "WienerEnsemble", "ProcessEnsemble", "sample_wiener",
    "resample_future", "integrate_mild", "ms_norm", "weighted_norm",
    # condexp
    "RegressionBasis", "CondexpEstimate", "default_basis", "condexp_lsmc",
    "condexp_anchor", "condexp_ito_zero",
    # lyapunov_perron
    "LPConfig", "FixedPointTrace", "ManifoldGraph", "LipschitzCertificate",
    "gap_report_for", "lp_backward_map", "lp_backward_solve",
    "unstable_graph", "lp_forward_map", "lp_forward_solve", "stable_graph",
    "lipschitz_bound", "lipschitz_certify", "invariance_residual",
    # oracles
    "RefinementStudy", "linear_manifold_oracle",
    "deterministic_lp_oracle", "moment_oracle", "refinement_study",
    # config
    "load_config", "validate_config", "problem_from_config", "config_hash",
    "canonical_json",
    # example
    "build_example_problem", "example_eigenvalues",
]
