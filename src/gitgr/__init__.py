"""Exact combinatorics of GIT quotients of Grassmannians by diagonal
one-parameter subgroups: semistable loci, quotient structure, line bundle
cohomology and section decompositions, all in integer arithmetic."""

from .params import GrassParams
from .errors import (EnumerationCapError, InvariantViolationError,
                     NotCertifiedError, UnsupportedCaseError)
from .weyl import (build_w_sr, build_w0_coset, bruhat_leq, contains_reflection,
                   coset_subset, evaluate_word, factor_w_tilde)
from .semistability import (enumerate_A, lambda_weights,
                            minimal_semistable_subset, plucker_weight,
                            ss_equals_stable)
from .quotient import (detect_induction_case, fibration, orbit_stratification,
                       picard_rank, report)
from .cohomology import (bott_line_bundle, cohomology_on_X,
                         proj_space_cohomology)
from .reps import (Calibration, HighestWeightPair, calibrate_descent,
                   cauchy_sections, decompose_sections,
                   generation_in_degree_one, invariant_hilbert, weyl_dim)

__version__ = "0.1.0"

__all__ = [
    "GrassParams", "EnumerationCapError",
    "InvariantViolationError", "NotCertifiedError", "UnsupportedCaseError",
    "build_w_sr", "build_w0_coset", "bruhat_leq", "contains_reflection",
    "coset_subset", "evaluate_word", "factor_w_tilde",
    "enumerate_A", "lambda_weights",
    "minimal_semistable_subset", "plucker_weight", "ss_equals_stable",
    "detect_induction_case", "fibration",
    "orbit_stratification", "picard_rank", "report",
    "bott_line_bundle", "cohomology_on_X", "proj_space_cohomology",
    "Calibration", "HighestWeightPair", "calibrate_descent", "cauchy_sections",
    "decompose_sections", "generation_in_degree_one", "invariant_hilbert",
    "weyl_dim",
]
