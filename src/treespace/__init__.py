"""Unrooted binary phylogenetic trees: splits, rearrangement neighbourhoods,
and the extremal shapes of the TBR neighbourhood-size statistic.

Submodules load on first use (PEP 562): ``import treespace`` compiles
nothing but this file, and ``treespace.gamma`` imports
:mod:`treespace.metrics` when it is first read.  So each command-line call
loads only the modules its subcommand runs.
"""

__version__ = "0.1.0"

# Each submodule and the public names it defines.
_EXPORTS = {
    "errors": (
        "Cyclic",
        "DegreeViolation",
        "Disconnected",
        "DuplicateLabel",
        "EmptyLabel",
        "InvalidOp",
        "NewickSyntaxError",
        "NotPerfectSize",
        "RangeError",
        "TooFewLeaves",
        "TooManyLeaves",
        "TreeError",
    ),
    "extremal": ("ExtremalScanResult", "extremal_scan", "is_caterpillar", "is_complete"),
    "generators": ("TreeFamily", "all_trees", "caterpillar", "complete", "perfect", "random_tree", "tree_count"),
    "metrics": (
        "caterpillar_gamma",
        "caterpillar_tbr_size",
        "complete_tbr_size",
        "gamma",
        "gamma_complete",
        "nni_size",
        "perfect_tbr_size",
        "spr_op_count",
        "spr_size",
        "tbr_op_count",
        "tbr_size",
    ),
    "newick_io": ("BRANCH_LENGTHS_DISCARDED", "ROOT_SUPPRESSED", "NewickDoc", "parse_newick", "serialize_newick"),
    "rearrange": (
        "NeighbourhoodReport",
        "OpKind",
        "RearrangementOp",
        "apply_op",
        "enumerate_ops",
        "op_survey",
    ),
    "tree_core": ("MAX_LEAVES", "CanonicalForm", "PhyloTree"),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_EXPORTS, *_MODULE_OF])


def __getattr__(name: str):
    import importlib

    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _MODULE_OF:
        return getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
