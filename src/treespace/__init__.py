"""Unrooted binary phylogenetic trees: splits, rearrangement neighbourhoods,
and the extremal shapes of the TBR neighbourhood-size statistic."""

__version__ = "0.1.0"

from .errors import (
    Cyclic,
    DegreeViolation,
    Disconnected,
    DuplicateLabel,
    EmptyLabel,
    InvalidOp,
    NewickSyntaxError,
    NotPerfectSize,
    RangeError,
    TooFewLeaves,
    TooManyLeaves,
    TreeError,
    UnknownLeaf,
)
from .extremal import ExtremalScanResult, extremal_scan, is_caterpillar, is_complete
from .generators import TreeFamily, all_trees, caterpillar, complete, perfect, random_tree, tree_count
from .metrics import (
    caterpillar_gamma,
    caterpillar_tbr_size,
    complete_tbr_size,
    gamma,
    gamma_complete,
    nni_size,
    perfect_tbr_size,
    spr_op_count,
    spr_size,
    tbr_op_count,
    tbr_size,
)
from .newick_io import (
    BRANCH_LENGTHS_DISCARDED,
    ROOT_SUPPRESSED,
    NewickDoc,
    parse_newick,
    serialize_newick,
)
from .rearrange import (
    NeighbourhoodReport,
    OpKind,
    RearrangementOp,
    apply_op,
    classify_op,
    enumerate_ops,
    op_survey,
)
from .tree_core import (
    MAX_LEAVES,
    CanonicalForm,
    PhyloTree,
    Split,
    build_tree,
)

__all__ = [name for name in dir() if not name.startswith("_")]
