"""splitkit: split-digraph recognition, splittance, and repair from degree sequences.

The top level holds the answer functions, the types they take and return,
the errors they raise, and the oracles a caller checks them against.
Orderings, partition measures and enumeration live in their modules.
"""

from .digraphs import Digraph, EditSet, degree_sequence, edit_set, repair, verify_split_partition
from .errors import (
    BudgetExceededError,
    EmptySequenceError,
    NegativeDegreeError,
    NotDigraphicError,
    NotGraphicError,
    OutOfRangeError,
    SequenceValidationError,
    SplitkitError,
    UnbalancedSequenceError,
)
from .oracle import (
    EnumerationBudget,
    brute_min_partition_measure,
    brute_realize,
    brute_splittance,
)
from .sequences import IntegerPairSequence
from .splittance import (
    QuadPartition,
    SplittanceMatrix,
    digraph_splittance,
    fulkerson_slack,
    is_digraphic,
    is_split_sequence,
    maximal_sequences,
    split_partitions,
    splittance_matrix,
)
from .undirected import (
    IntegerSequence,
    corrected_durfee,
    eg_slack,
    is_graphic,
    is_split_undirected,
    splittance_sequence,
    undirected_splittance,
)

__version__ = "0.1.0"

__all__ = [
    "BudgetExceededError",
    "Digraph",
    "EditSet",
    "EmptySequenceError",
    "EnumerationBudget",
    "IntegerPairSequence",
    "IntegerSequence",
    "NegativeDegreeError",
    "NotDigraphicError",
    "NotGraphicError",
    "OutOfRangeError",
    "QuadPartition",
    "SequenceValidationError",
    "SplitkitError",
    "SplittanceMatrix",
    "UnbalancedSequenceError",
    "brute_min_partition_measure",
    "brute_realize",
    "brute_splittance",
    "corrected_durfee",
    "degree_sequence",
    "digraph_splittance",
    "eg_slack",
    "edit_set",
    "fulkerson_slack",
    "is_digraphic",
    "is_graphic",
    "is_split_sequence",
    "is_split_undirected",
    "maximal_sequences",
    "repair",
    "split_partitions",
    "splittance_matrix",
    "splittance_sequence",
    "undirected_splittance",
    "verify_split_partition",
]
