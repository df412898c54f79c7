"""Exact-arithmetic renorming of the space of null sequences, with
certified Gateaux derivatives and machine-checkable descent certificates
showing non-attainment of best approximations from finite-codimension
subspaces.

The package is a lazy namespace (PEP 562): a module loads on the first use
of one of its names, so ``import proxinorm`` costs almost nothing."""

from importlib import import_module

__version__ = "0.1.0"

#: Each module and the names the package exports from it.
_EXPORTS = {
    "approxlin": (
        "LinearityReport", "build_report", "coherence_margin", "span_match_feasible",
        "verify_linearity_bound",
    ),
    "construction": ("ConstructionTable", "canonical_table"),
    "demo": ("run_demo", "sign_table"),
    "descent": (
        "DescentCertificate", "DescentChain", "Subspace", "certify_descent",
        "minimizing_sequence", "verify_chain",
    ),
    "errors": (
        "BudgetError", "DepthBudgetError", "EliminationBudgetError", "HypothesisError",
        "InputFormatError", "PrecisionBudgetError", "PreconditionError", "ProxinormError",
        "SearchBudgetError",
    ),
    "gateaux": (
        "derivative_from_json", "derivative_to_json", "dminus_norm", "dplus_norm", "dplus_sup",
    ),
    "kernel": (),
    "linalg": ("feasible", "kernel_directions"),
    "norms": ("norm_enclosure",),
    "trig": (),
    "vectors": ("Enclosure", "SparseVec", "l1_norm", "pair", "sgn", "sup_norm"),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_OWNER)


def __getattr__(name):
    # Not cached here: a later lookup sees whatever the owning module holds.
    if name in _EXPORTS:
        return import_module(f"{__name__}.{name}")
    if name in _OWNER:
        return getattr(import_module(f"{__name__}.{_OWNER[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_EXPORTS, *__all__})
