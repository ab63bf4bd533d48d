"""Test-only states and distances: seeded random states, hyperentangled inputs.

No pipeline draws a random state or measures a trace distance, so these
live beside the tests that use them rather than in the package.
"""

import numpy as np

from fransonsim.qcore import PAIR_LABELS, DensityMatrix, PhotonPairState


def trace_distance(a: DensityMatrix, b: DensityMatrix) -> float:
    """Half the trace norm of the difference of two states."""
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    eigs = np.linalg.eigvalsh(a.data - b.data)
    return float(0.5 * np.abs(eigs).sum())


def _haar_ket(dim: int, rng: np.random.Generator) -> np.ndarray:
    vec = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return vec / np.linalg.norm(vec)


def random_state(n_qubits: int, kind: str = "pure", seed: int = 0) -> DensityMatrix:
    """Deterministic random state: Haar pure, or a mixture of Haar pures."""
    if not 1 <= n_qubits <= len(PAIR_LABELS):
        raise ValueError(f"n_qubits must be in [1, {len(PAIR_LABELS)}], got {n_qubits}")
    rng = np.random.default_rng(seed)
    dim = 2**n_qubits
    if kind == "pure":
        return DensityMatrix.pure(_haar_ket(dim, rng))
    if kind == "mixed":
        weights = rng.dirichlet(np.ones(dim))
        data = np.zeros((dim, dim), dtype=complex)
        for w in weights:
            ket = _haar_ket(dim, rng)
            data += w * np.outer(ket, ket.conj())
        return DensityMatrix(data)
    raise ValueError(f"kind must be 'pure' or 'mixed', got {kind!r}")


def hyperentangled_input(pol: DensityMatrix, et: DensityMatrix) -> PhotonPairState:
    """pol (pol_A, pol_B) x et (et_A, et_B) on the pair register (pol_A, et_A, pol_B, et_B).

    The Kronecker product orders the qubits (pol_A, pol_B, et_A, et_B); one
    transpose of its ``(2,)*8`` tensor swaps the middle two on both sides.
    """
    if pol.dim != 4 or et.dim != 4:
        raise ValueError("pol and et parts must each cover two qubits")
    joint = np.kron(pol.data, et.data).reshape((2,) * 8)
    data = joint.transpose(0, 2, 1, 3, 4, 6, 5, 7).reshape(16, 16)
    return PhotonPairState(DensityMatrix(data, weight=pol.weight * et.weight))
