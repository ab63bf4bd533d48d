"""Entanglement transfer through a pair of unbalanced interferometers.

Each photon enters an interferometer whose long arm is delayed by more than
the coincidence window, carries a relative phase, and contains a half-wave
plate that flips the polarization. The output coupler is a polarizing beam
splitter, so the path taken becomes a function of polarization, and a final
bit flip on photon B conditioned on odd port parity makes the process
deterministic: no port combination is discarded.

On the design manifold (energy-time part in the |SS>/|LL> Bell state) the
stage swaps the degrees of freedom: the polarization input reappears on the
path modes while the energy-time entanglement, dephased by whatever
visibility it arrived with, reappears in polarization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .qcore import (
    EMPTY_POSTSELECTION_TRACE,
    DensityMatrix,
    PhotonPairState,
    PostselectionError,
)

__all__ = [
    "FRANSON_POSTSELECTION_FRACTION",
    "InterferometerConfig",
    "TransferOutcome",
    "transfer",
    "block_long_arms",
    "sum_phase_scan",
    "fringe_visibility",
]

# In a time-resolved coincidence histogram the short-short and long-long
# events overlap in the central peak while cross terms land in side peaks;
# for uniform arrival statistics the central peak holds half the pairs.
# The source here models post-window pairs directly, so this constant is
# bookkeeping metadata, not a weight applied to the state.
FRANSON_POSTSELECTION_FRACTION = 0.5


@dataclass(frozen=True)
class InterferometerConfig:
    """Geometry and phases of the two analysis interferometers.

    Phases are radians applied to the long arm of each interferometer.
    ``delta_t_ns`` is the long-short arm delay and must exceed the
    coincidence window so the cross terms are resolvable; both are
    nanoseconds. ``phase_jitter_sigma`` (radians) adds Gaussian phase noise
    per interferometer, applied as the ensemble-averaged dephasing
    exp(-sigma^2 / 2) on each long-arm coherence.
    """

    phase_a: float = 0.0
    phase_b: float = 0.0
    delta_t_ns: float = 2.6
    coincidence_window_ns: float = 1.0
    phase_jitter_sigma: float = 0.0

    def __post_init__(self) -> None:
        for name in ("phase_a", "phase_b"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        # written as "not (ok)" so that NaN, which fails every comparison, is refused
        if not self.delta_t_ns > 0.0:
            raise ValueError(f"delta_t_ns must be positive, got {self.delta_t_ns}")
        if not self.coincidence_window_ns > 0.0:
            raise ValueError(
                f"coincidence_window_ns must be positive, got {self.coincidence_window_ns}"
            )
        if not self.coincidence_window_ns < self.delta_t_ns:
            raise ValueError(
                f"coincidence_window_ns ({self.coincidence_window_ns}) must be "
                f"smaller than delta_t_ns ({self.delta_t_ns}) to resolve the arms"
            )
        if not self.phase_jitter_sigma >= 0.0:
            raise ValueError(
                f"phase_jitter_sigma must be nonnegative, got {self.phase_jitter_sigma}"
            )


@dataclass(frozen=True)
class TransferOutcome:
    """Everything the transfer stage produces.

    ``port_probs`` lists the four coincidence-port probabilities in the
    order (S,S), (S,L), (L,S), (L,L); they always sum to one because the
    protocol keeps every port.
    """

    joint_out: PhotonPairState
    pol_out: DensityMatrix
    path_out: DensityMatrix
    port_probs: np.ndarray
    franson_postselection_fraction: float = FRANSON_POSTSELECTION_FRACTION

    def __post_init__(self) -> None:
        probs = np.array(self.port_probs, dtype=float, copy=True)
        if probs.shape != (4,):
            raise ValueError(f"port_probs must have shape (4,), got {probs.shape}")
        if probs.min() < -1e-12:
            raise ValueError(f"negative port probability: {probs.min():.3e}")
        if abs(probs.sum() - 1.0) > 1e-9:
            raise ValueError(f"port probabilities sum to {probs.sum():.12g}, not 1")
        probs.setflags(write=False)
        object.__setattr__(self, "port_probs", probs)


# Bits (a, x, b, y) of each index of the pair register
# |pol_A, et_A, pol_B, et_B>, pol_A most significant.
_BITS = [(i >> 3 & 1, i >> 2 & 1, i >> 1 & 1, i & 1) for i in range(16)]
# The circuit after its phases permutes the basis: the long-arm flips
# (pol ^= et per photon), the PBS CNOTs (et ^= pol per photon) and the parity
# correction (pol_B ^= et_A ^ et_B) take |a, x, b, y> to |a^x, a, a^y, b>.
# _SOURCE[k] is the input index that lands on output index k.
_TARGET = [(a ^ x) << 3 | a << 2 | (a ^ y) << 1 | b for a, x, b, y in _BITS]
_SOURCE = np.array([_TARGET.index(k) for k in range(16)])
_ET_A = np.array([x for _, x, _, _ in _BITS], dtype=float)
_ET_B = np.array([y for _, _, _, y in _BITS], dtype=float)
# _FLIPS[i, j] counts the path qubits on which basis states i and j differ:
# the power of the jitter damping on that coherence.
_FLIPS = np.array([[(x ^ u) + (y ^ v) for _, u, _, v in _BITS] for _, x, _, y in _BITS])
# _STEP_A[i, j] = x_i - x_j: the power of exp(i phase_a) on that coherence.
_STEP_A = _ET_A[:, None] - _ET_A
# The block of both photons in the short arm (x = y = 0): indices 0, 2, 8, 10.
_SHORT = np.array([i for i, (_, x, _, y) in enumerate(_BITS) if x == y == 0])


def _damping(cfg: InterferometerConfig) -> np.ndarray:
    """Ensemble-averaged jitter: exp(-sigma^2/2) per differing path qubit."""
    sigma = cfg.phase_jitter_sigma
    # sigma * sigma overflows to inf (damping 0) where sigma**2 would raise
    return math.exp(-0.5 * sigma * sigma) ** _FLIPS


def _transfer_mask(cfg: InterferometerConfig) -> np.ndarray:
    """The phases and the jitter of the circuit, as one elementwise 16x16 mask."""
    amp = np.exp(1.0j * (cfg.phase_a * _ET_A + cfg.phase_b * _ET_B))
    mask = np.outer(amp, amp.conj())
    if cfg.phase_jitter_sigma > 0.0:
        mask = mask * _damping(cfg)
    return mask


def _transferred(stack: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """The circuit on every state of a (B, 16, 16) stack: the mask, then the permutation."""
    return (stack * mask)[:, _SOURCE[:, None], _SOURCE]


def _blocked(stack: np.ndarray) -> tuple[np.ndarray, list[float]]:
    """The renormalized short-arm block of a (B, 16, 16) stack, and each row's trace.

    Raises :class:`PostselectionError` for the first row where nothing survives.
    """
    data = np.zeros_like(stack)
    data[:, _SHORT[:, None], _SHORT] = stack[:, _SHORT[:, None], _SHORT]
    kept = data.trace(axis1=1, axis2=2).real.tolist()
    if any(tr < EMPTY_POSTSELECTION_TRACE for tr in kept):
        raise PostselectionError(
            f"no population left in the short arms (trace below "
            f"{EMPTY_POSTSELECTION_TRACE})"
        )
    data /= np.array(kept)[:, None, None]
    return data, kept


def transfer(state: PhotonPairState, cfg: InterferometerConfig) -> TransferOutcome:
    """Run the photon pair through both interferometers.

    Circuit, in order: long-arm phases (with optional jitter), long-arm
    polarization flips, the polarizing beam splitters (path becomes a
    function of polarization), and the deterministic parity correction on
    photon B. The jitter is applied as its ensemble average, a
    phase-damping factor exp(-sigma^2/2) on each long-arm coherence.

    The phases and the damping act on the state as one elementwise
    (Hadamard-product) mask; the rest of the circuit is one fixed
    permutation of the 16 basis states. This is the one-state call of the
    stacked kernels that the pipeline runs on all sweep points at once.
    """
    data = _transferred(state.rho.data[None], _transfer_mask(cfg))[0]
    out = PhotonPairState(DensityMatrix(data, weight=state.weight))
    pol_out, path_out = out.pol_marginal(), out.et_marginal()
    return TransferOutcome(out, pol_out, path_out, np.diag(path_out.data).real.copy())


def block_long_arms(state: PhotonPairState) -> PhotonPairState:
    """Postselect both photons into the short arms.

    Physically: beam blocks in both long arms, used to characterize the
    polarization input without interference. Projects both energy-time
    qubits onto |S> by keeping the x = y = 0 block of the state,
    renormalizes, and folds the success probability into the weight.
    Raises :class:`PostselectionError` when nothing survives.
    """
    [data], [kept] = _blocked(state.rho.data[None])
    return PhotonPairState(DensityMatrix(data, weight=state.weight * kept))


# Diagonal-basis coincidence parity: projector onto both photons giving the
# same +/-45 deg outcome. Port populations are phase-independent here by
# construction (the parity correction makes the protocol deterministic), so
# the interference fringe lives in the polarization correlations; this
# observable is the standard fringe used to calibrate the sum phase.
_KET_D = np.array([1.0, 1.0], dtype=complex) / math.sqrt(2.0)
_KET_A = np.array([1.0, -1.0], dtype=complex) / math.sqrt(2.0)
_EVEN_PARITY = np.kron(np.outer(_KET_D, _KET_D), np.outer(_KET_D, _KET_D)) + np.kron(
    np.outer(_KET_A, _KET_A), np.outer(_KET_A, _KET_A)
)


def sum_phase_scan(
    state: PhotonPairState,
    cfg: InterferometerConfig,
    phases: Sequence[float],
) -> list[tuple[float, float]]:
    """Interference fringe versus the interferometer sum phase.

    For each phase the pair is transferred with that sum phase loaded on
    interferometer A (only the sum matters; ``cfg.phase_a`` and
    ``cfg.phase_b`` are ignored) and the probability of correlated
    diagonal-basis outcomes is recorded. For a source of visibility V the
    fringe is (1 + V cos(phase + source phase)) / 2, so a scan covering the
    extrema recovers V via :func:`fringe_visibility`.

    The probability is linear in the state, and the phase enters only as
    exp(i phase (x_i - x_j)) on each coherence, so the fringe is
    c0 + 2 Re(c1 exp(i phase)): c0 and c1 are the fringe observable on the
    jitter-damped state masked to coherences of et_A step 0 and 1, each
    taken through the transfer permutation once.
    """
    phis = np.array([float(phi) for phi in phases])
    bad = phis[~np.isfinite(phis)]
    if bad.size:
        raise ValueError(f"scan phase must be finite, got {bad[0]}")
    data = state.rho.data
    if cfg.phase_jitter_sigma > 0.0:
        data = data * _damping(cfg)
    steps = np.stack([data * (_STEP_A == 0), data * (_STEP_A == 1)])
    permuted = steps[:, _SOURCE[:, None], _SOURCE].reshape((2,) + (2,) * 8)
    # polarization marginal of the output, then its overlap with the parity
    c0, c1 = np.einsum("nabcdebgd,egac->n", permuted, _EVEN_PARITY.reshape(2, 2, 2, 2))
    probs = c0.real + 2.0 * (c1 * np.exp(1.0j * phis)).real
    return [(float(phi), float(prob)) for phi, prob in zip(phis, probs)]


def fringe_visibility(points: Sequence[tuple[float, float]]) -> float:
    """(max - min) / (max + min) of the scanned fringe."""
    probs = [p for _, p in points]
    if not probs:
        raise ValueError("empty fringe scan")
    top, bottom = max(probs), min(probs)
    if top + bottom <= 0.0:
        raise ValueError("fringe has no counts, visibility undefined")
    return (top - bottom) / (top + bottom)
