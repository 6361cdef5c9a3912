"""The package's public names: adding or removing one changes this test."""

import treespace

PUBLIC = {
    # exceptions
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
    "UnknownLeaf",
    # tree_core
    "MAX_LEAVES",
    "CanonicalForm",
    "PhyloTree",
    "Split",
    # newick_io
    "BRANCH_LENGTHS_DISCARDED",
    "ROOT_SUPPRESSED",
    "NewickDoc",
    "parse_newick",
    "serialize_newick",
    # metrics
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
    # rearrange
    "NeighbourhoodReport",
    "OpKind",
    "RearrangementOp",
    "apply_op",
    "classify_op",
    "enumerate_ops",
    "op_survey",
    # generators
    "TreeFamily",
    "all_trees",
    "caterpillar",
    "complete",
    "perfect",
    "random_tree",
    "tree_count",
    # extremal
    "ExtremalScanResult",
    "extremal_scan",
    "is_caterpillar",
    "is_complete",
    # the submodules the package imports
    "errors",
    "extremal",
    "generators",
    "metrics",
    "newick_io",
    "rearrange",
    "tree_core",
}


def test_public_names():
    assert set(treespace.__all__) == PUBLIC
