"""Test-only states, count sets and distances: seeded random, maximally mixed and hyperentangled
states, sparse count sets, and the fit batch of a default run.

No pipeline draws a random or maximally mixed state, a sparse count set or
measures a trace distance, so these live beside the tests that use them rather than in the
package.
"""

import numpy as np

from fransonsim import cli, tomo
from fransonsim.qcore import PAIR_LABELS, DensityMatrix, PhotonPairState


def trace_distance(a: DensityMatrix, b: DensityMatrix) -> float:
    """Half the trace norm of the difference of two states."""
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    eigs = np.linalg.eigvalsh(a.data - b.data)
    return float(0.5 * np.abs(eigs).sum())


def maximally_mixed(n_qubits: int, weight: float = 1.0) -> DensityMatrix:
    """I / 2**n_qubits, of the given weight."""
    dim = 2**n_qubits
    return DensityMatrix(np.eye(dim, dtype=complex) / dim, weight=weight)


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


def sparse_count_sets(n_base, seed=20261019):
    """Seeded bootstrap-style count sets with only 2 or 3 non-zero settings, as a (B, 36) stack.

    Each of ``n_base`` base sets has counts 1 to 3 on 2 or 3 random
    settings; 20 Poisson resamples are drawn from each, and the resamples
    that kept 2 or 3 non-zero settings are returned, base set by base set.
    They are fitted at 3 pairs per setting: their likelihood is flat along
    most of the 15 directions of a Newton step.
    """
    rng = np.random.default_rng(seed)
    blocks = []
    for _ in range(n_base):
        base = np.zeros(36)
        k = rng.integers(2, 4)
        settings = rng.choice(36, size=k, replace=False)
        base[settings] = rng.integers(1, 4, size=k)
        draws = rng.poisson(base, size=(20, 36)).astype(float)
        nonzero = np.count_nonzero(draws, axis=1)
        blocks.append(draws[(nonzero >= 2) & (nonzero <= 3)])
    return np.concatenate(blocks)


def default_fit_batch(monkeypatch, experiment):
    """The counts, flux, options and fit record of the one likelihood fit of a default run."""
    seen = []
    real = tomo._mle_fits

    def spy(counts, pairs_per_setting, **opts):
        fits = real(counts, pairs_per_setting, **opts)
        seen.append((counts, pairs_per_setting, opts, fits))
        return fits

    runs = {"purify": cli.run_purification, "chsh-sweep": cli.run_chsh_sweep}
    with monkeypatch.context() as patch:
        patch.setattr(tomo, "_mle_fits", spy)
        runs[experiment](cli.default_config(experiment))
    [fit] = seen
    return fit
