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
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .qcore import (
    EMPTY_POSTSELECTION_TRACE,
    PAIR_LAYOUT,
    DensityMatrix,
    PhotonPairState,
    PostselectionError,
    QuantumChannel,
    apply_channel,
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
    per interferometer: sampled per call when a random generator is passed
    to :func:`transfer`, otherwise applied as the ensemble-averaged
    dephasing exp(-sigma^2 / 2) on each long-arm coherence.
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


# Bits (a, x, b, y) of each index of the canonical register
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


def transfer(
    state: PhotonPairState,
    cfg: InterferometerConfig,
    rng: np.random.Generator | None = None,
) -> TransferOutcome:
    """Run the photon pair through both interferometers.

    Circuit, in order: long-arm phases (with optional jitter), long-arm
    polarization flips, the polarizing beam splitters (path becomes a
    function of polarization), and the deterministic parity correction on
    photon B. When ``rng`` is given and jitter is configured, one Gaussian
    phase offset per interferometer is drawn for this call; without ``rng``
    the jitter is applied as its ensemble average, a phase-damping factor
    exp(-sigma^2/2) on each long-arm coherence.

    The phases and the damping act on the state as one elementwise
    (Hadamard-product) mask; the rest of the circuit is one fixed
    permutation of the 16 basis states.
    """
    if state.layout != PAIR_LAYOUT:
        raise ValueError(f"transfer needs the layout {PAIR_LAYOUT.labels}")
    phase_a, phase_b = cfg.phase_a, cfg.phase_b
    if cfg.phase_jitter_sigma > 0.0 and rng is not None:
        phase_a += rng.normal(0.0, cfg.phase_jitter_sigma)
        phase_b += rng.normal(0.0, cfg.phase_jitter_sigma)

    amp = np.exp(1.0j * (phase_a * _ET_A + phase_b * _ET_B))
    mask = np.outer(amp, amp.conj())
    if cfg.phase_jitter_sigma > 0.0 and rng is None:
        mask = mask * math.exp(-0.5 * cfg.phase_jitter_sigma**2) ** _FLIPS
    data = (state.rho.data * mask)[_SOURCE[:, None], _SOURCE]
    out = PhotonPairState(DensityMatrix(data, weight=state.weight))

    pol_out = out.pol_marginal()
    path_out = out.et_marginal()
    port_probs = np.diag(path_out.data).real.copy()
    return TransferOutcome(
        joint_out=out, pol_out=pol_out, path_out=path_out, port_probs=port_probs
    )


def block_long_arms(state: PhotonPairState) -> PhotonPairState:
    """Postselect both photons into the short arms.

    Physically: beam blocks in both long arms, used to characterize the
    polarization input without interference. Projects both energy-time
    qubits onto |S>, renormalizes, and folds the success probability into
    the weight. Raises :class:`PostselectionError` when nothing survives.
    """
    project_s = np.diag([1.0, 0.0]).astype(complex)
    blocker = QuantumChannel(
        (np.kron(project_s, project_s),), trace_preserving=False
    )
    et_labels = tuple(l for l in state.layout.labels if l.startswith("et"))
    try:
        rho = apply_channel(state.rho, blocker, et_labels, state.layout)
    except PostselectionError:
        raise PostselectionError(
            f"no population left in the short arms (trace below "
            f"{EMPTY_POSTSELECTION_TRACE})"
        ) from None
    return PhotonPairState(rho, layout=state.layout)


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
    interferometer A (only the sum matters) and the probability of
    correlated diagonal-basis outcomes is recorded. For a source of
    visibility V the fringe is (1 + V cos(phase + source phase)) / 2, so a
    scan covering the extrema recovers V via :func:`fringe_visibility`.
    """
    points: list[tuple[float, float]] = []
    for phi in phases:
        scan_cfg = replace(cfg, phase_a=float(phi), phase_b=0.0)
        outcome = transfer(state, scan_cfg)
        prob = float(
            np.einsum("ab,ba->", outcome.pol_out.data, _EVEN_PARITY).real
        )
        points.append((float(phi), prob))
    return points


def fringe_visibility(points: Sequence[tuple[float, float]]) -> float:
    """(max - min) / (max + min) of the scanned fringe."""
    probs = [p for _, p in points]
    if not probs:
        raise ValueError("empty fringe scan")
    top, bottom = max(probs), min(probs)
    if top + bottom <= 0.0:
        raise ValueError("fringe has no counts, visibility undefined")
    return (top - bottom) / (top + bottom)
