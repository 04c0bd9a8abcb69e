"""Column-stacking vectorization helpers for 2x2 operators and their channels.

A 2x2 operator X is flattened column-major into the 4-vector
[X00, X10, X01, X11]; indices 0 and 3 form the population (diagonal) sector,
indices 1 and 2 the coherence (off-diagonal) sector.  A channel acting on X
becomes a 4x4 matrix acting on vec(X).
"""
from __future__ import annotations

import numpy as np

# vec(I), also the row vector implementing the trace on vectorized operators.
TRACE_VEC = np.array([1.0, 0.0, 0.0, 1.0])

POPULATION_IDX = (0, 3)
COHERENCE_IDX = (1, 2)


def vec(matrix: np.ndarray) -> np.ndarray:
    """Column-stack a 2x2 matrix into a 4-vector."""
    return np.asarray(matrix, dtype=complex).flatten("F")


def unvec(vector: np.ndarray) -> np.ndarray:
    """Inverse of :func:`vec`."""
    return np.asarray(vector, dtype=complex).reshape((2, 2), order="F")


def sandwich(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Superoperator matrix of X -> left @ X @ right^dagger."""
    return np.kron(np.conj(right), left)


def conjugation(unitary: np.ndarray) -> np.ndarray:
    """Superoperator matrix of X -> U X U^dagger."""
    return sandwich(unitary, unitary)


def trace_of_vec(vector: np.ndarray) -> complex:
    return vector[..., 0] + vector[..., 3]


def hermitize(matrix: np.ndarray) -> np.ndarray:
    """Project onto the Hermitian part, removing eigensolver noise."""
    return 0.5 * (matrix + matrix.conj().T)


def sector_coupling(superoperator: np.ndarray) -> float:
    """Largest matrix element mixing populations and coherences.

    Returns the maximum modulus over the population->coherence and
    coherence->population blocks and the coherence-flip entries.  A channel
    decouples populations from coherences exactly when this vanishes; that
    property is what permits the polynomial-cost accumulation of the
    single-readout (end-of-run pointer) statistics.
    """
    s = np.asarray(superoperator)
    worst = 0.0
    for i in COHERENCE_IDX:
        for j in POPULATION_IDX:
            worst = max(worst, abs(s[i, j]), abs(s[j, i]))
    worst = max(worst, abs(s[1, 2]), abs(s[2, 1]))
    return float(worst)
