"""Shared builders for the test suite."""

import os

# one BLAS thread, as perfbench/run.py pins it: two threads time-sharing one
# CPU can stretch a single SVD twentyfold and trip the suite's time bounds
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from pathlib import Path

import numpy as np
import pytest

from ctkit import (
    ClassicalModel,
    QuantumModel,
    basis_state,
    classical_substrate,
    extensional_attribute,
    normalized,
    quantum_substrate,
    variable,
)

FIXTURE_DIR = Path(__file__).resolve().parent.parent / "fixtures"


def basis_variable(substrate, labels=None):
    """Variable over the standard basis, one single-state attribute per label."""
    if substrate.kind == "classical":
        pool = list(substrate.labels)
        labels = pool if labels is None else list(labels)
        return variable(
            substrate,
            [(lab, extensional_attribute(substrate, [lab])) for lab in labels],
        )
    dim = substrate.dimension
    labels = list(range(dim)) if labels is None else list(labels)
    return variable(
        substrate,
        [
            (lab, extensional_attribute(substrate, [basis_state(dim, k)]))
            for k, lab in enumerate(labels)
        ],
    )


def state_variable(substrate, pairs):
    """Variable from (label, PureState) pairs, one state per attribute."""
    return variable(
        substrate,
        [(lab, extensional_attribute(substrate, [s])) for lab, s in pairs],
    )


@pytest.fixture
def qubit():
    return quantum_substrate("qubit", 2)


@pytest.fixture
def qubit_model(qubit):
    return QuantumModel(qubit)


@pytest.fixture
def qutrit():
    return quantum_substrate("qutrit", 3)


@pytest.fixture
def qutrit_model(qutrit):
    return QuantumModel(qutrit)


@pytest.fixture
def bit():
    return classical_substrate("bit", [0, 1])


@pytest.fixture
def bit_model(bit):
    return ClassicalModel(bit)


def ket(*coeffs):
    return normalized(np.array(coeffs, dtype=complex))


def plus():
    return ket(1, 1)


def minus():
    return ket(1, -1)


def random_unitary(rng, d):
    """A random d x d unitary, the QR factor of a complex Gaussian matrix."""
    q, r = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    return q * (np.diag(r) / np.abs(np.diag(r)))
