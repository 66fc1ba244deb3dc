"""Fixture: nothing here may fire ``no-densify``, bar one allowlisted ``.toarray()``."""

import numpy as np
from scipy import sparse


def stay_sparse(graph, adjacency):
    csr = sparse.csr_matrix(graph)
    row_sums = np.asarray(csr.sum(axis=1)).ravel()
    buffer = np.asarray(csr.data, dtype=np.float64)
    dense_input = np.asarray(adjacency, dtype=np.float64)
    reference = csr.toarray()
    return row_sums, buffer, dense_input, reference
