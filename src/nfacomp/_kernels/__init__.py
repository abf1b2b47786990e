"""Hot-loop kernels over bitmask-encoded automata, in pure Python."""

from .pure import SubsetExploration, antichain_included, explore_subsets, product_nonempty


def backend_name():
    """The kernel backend in use; there is one, ``"pure"``."""
    return "pure"
