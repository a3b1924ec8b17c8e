"""Sparse recovery with combined l1/l2 and sparse-group-lasso penalties.

The toolkit covers the full loop: penalty definitions with exact proximal
maps, an active-set Newton solver for the multiplier and noise-constrained
program forms, recovery certificates from restricted-isometry constants, the
deterministic low-coherence binary matrix construction, grouping-effect
verification on solved instances, and seeded reproductions of the standard
numerical studies.
"""

import importlib

__version__ = "0.1.0"

# Each public name under the module that defines it.  Modules load on first
# read (PEP 562), so importing the package loads no numpy and the CLI can cap
# the BLAS threads first.  kkt exports nothing here but resolves as a submodule.
_EXPORTS = {
    "regularizers": ("Partition", "PenaltyKind", "RegularizerSpec", "penalty_value", "prox",
                     "sparsity_index"),
    "solvers": ("Problem", "Lagrangian", "Constrained", "SolverOptions", "SolveResult",
                "InfeasibleError", "solve_lagrangian", "solve_constrained", "solution_path",
                "lambda_zero_threshold"),
    "rip": ("Certificate", "certificate", "error_bounds", "delta_bound_from_mu", "RipEstimate",
            "exact_rip", "rnsp_check"),
    "matrices": ("DeVoreParams", "devore_matrix", "devore_min_prime", "fixture_matrix"),
    "grouping": ("Preprocessed", "preprocess", "GroupingReport", "grouping_check", "grouping_bound"),
    "kkt": (),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_HOME)


def __getattr__(name):
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value  # later reads skip this hook
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS, *_HOME})
