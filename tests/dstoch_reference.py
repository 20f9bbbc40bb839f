"""Exhaustive decomposability search, kept as reference code.

``dstoch.decomposability_witness`` reads its witness off the components of
the bipartite row/column support graph.  This is the search it replaced:
try every permutation P, in lexicographic order, until the symmetrized
support graph of P @ M is disconnected.  It costs n! products, so tests
use it only for small n.
"""

import itertools

from reduktor.dstoch import (
    UNIT_COMPRESSION_TOL,
    _entries,
    _partition_from_components,
    _support_components,
    compression,
    perm_matrix,
)


def exhaustive_witness(m, tol=UNIT_COMPRESSION_TOL, *, support_tol=1e-9):
    """(perm, BlockPartition) of the first splitting permutation, or None."""
    a = _entries(m)
    n = a.shape[0]
    if compression(a) < 1.0 - tol:
        return None
    for perm in itertools.permutations(range(n)):
        comps = _support_components(perm_matrix(perm) @ a, support_tol)
        if len(comps) >= 2:
            return perm, _partition_from_components(comps)
    return None
