"""Dense reference operators for structured measurers, built by a separate route.

The library stores a measurer (or any projector-controlled map) as a control
basis, one class per basis ket and one small target map per class (a dense
unitary, or a permutation held as its index vector), and applies it by
contracting on the factor axes of a joint state.  Everything here instead
writes the operator out in full: each control basis ket is a Kronecker
product of its per-factor rows, the local operator is the sum of
|b_i><b_i| (x) T_class(i) over all kets, and the operator on a joint state is
assembled column by column from explicit multi-indices.  Nothing here calls
the library's contraction, partial trace or unitary embedding code.
"""

import itertools

import numpy as np


def control_kets(control):
    """Every control basis ket, in row order, as full vectors."""
    dims = [b.shape[0] for b in control.bases]
    kets = []
    for digits in itertools.product(*(range(d) for d in dims)):
        vec = np.ones(1, dtype=complex)
        for b, k in zip(control.bases, digits):
            vec = np.kron(vec, b[k])
        kets.append(vec)
    return kets


def local_operator(control):
    """sum_i |b_i><b_i| (x) T_class(i) on control (x) target; the rest class
    (index len(maps)) acts as the identity.  A map held as an index vector p
    (T x = x[p]) is read as the permutation matrix np.eye(d_t)[p]."""
    d_t = control.target_dim
    maps = [np.eye(d_t)[t] if np.ndim(t) == 1 else t for t in control.maps] + [np.eye(d_t)]
    kets = control_kets(control)
    size = len(kets) * d_t
    out = np.zeros((size, size), dtype=complex)
    for ket, cls in zip(kets, control.classes):
        out += np.kron(np.outer(ket, ket.conj()), maps[int(cls)])
    return out


def joint_operator(control, dims, factors):
    """The local operator acting on factors (control, target) of a joint space
    with the given factor dims, and as the identity on every other factor."""
    c, t = factors
    local = local_operator(control)
    d_t = dims[t]
    size = int(np.prod(dims))
    out = np.zeros((size, size), dtype=complex)
    indices = list(itertools.product(*(range(d) for d in dims)))
    flat = {idx: k for k, idx in enumerate(indices)}
    for col, idx in enumerate(indices):
        local_col = idx[c] * d_t + idx[t]
        for local_row in range(local.shape[0]):
            amp = local[local_row, local_col]
            if amp == 0:
                continue
            row_idx = list(idx)
            row_idx[c], row_idx[t] = divmod(local_row, d_t)
            out[flat[tuple(row_idx)], col] += amp
    return out


def comparer_projector(basis_a, basis_b):
    """sum_k |u_k v_k><u_k v_k| over paired kets of two factors, each
    product ket written out with `np.kron` and added as a dense outer product."""
    size = len(basis_a[0]) * len(basis_b[0])
    out = np.zeros((size, size), dtype=complex)
    for u, v in zip(basis_a, basis_b):
        w = np.kron(u, v)
        out += np.outer(w, w.conj())
    return out
