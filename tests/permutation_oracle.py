"""Reference permutation unitaries, one outer product per member.

`quantum.permutation_computation` forms U = V_s^T V* + (I - V^T V*) from the
stacked member rows.  This is the form it replaced: the sum over members of
|v_mapping[l]><v_l|, plus the identity less |v_l><v_l| on the rest of the
space, accumulated one member at a time.  The checks are its own: closure
of the mapping on the label set, then every pair of member vectors within
tol() of orthogonal, with the error types and texts of the library.
"""

import numpy as np

from ctkit import PreconditionError, TransformError
from ctkit.tolerance import tol


def permutation_unitary(mapping: dict, members) -> np.ndarray:
    members = tuple(members)
    labels = [l for l, _ in members]
    if set(mapping) != set(labels) or set(mapping.values()) != set(labels):
        missing = set(mapping.values()) - set(labels) or set(labels) - set(mapping)
        raise TransformError(f"permutation is not closed on the label set: {sorted(map(repr, missing))}")
    vec = {l: s.vector for l, s in members}
    for i, a in enumerate(labels):
        for b in labels[i + 1:]:
            if abs(np.vdot(vec[a], vec[b])) > tol():
                raise PreconditionError("permutation members must be orthonormal")
    dim = members[0][1].dim
    u = np.zeros((dim, dim), dtype=complex)
    covered = np.zeros((dim, dim), dtype=complex)
    for label in labels:
        u += np.outer(vec[mapping[label]], vec[label].conj())
        covered += np.outer(vec[label], vec[label].conj())
    return u + (np.eye(dim) - covered)
