"""Photon-pair source and polarization optics.

The source emits hyperentangled pairs: a configurable two-photon
polarization state tensored with an energy-time Bell state whose coherence
is reduced to a configurable interference visibility. Polarization noise is
built from Jones matrices of half- and quarter-wave plates, either as fixed
(coherent) plates or as an incoherent average over a spinning plate, which
is the standard way to turn a pure polarization state into a mixed one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Union

import numpy as np

from .qcore import (
    PAULI_I,
    PAULI_X,
    PAULI_Z,
    DensityMatrix,
    PhotonPairState,
    _integer_fields,
    _liouville_map,
    _superoperator,
)

__all__ = [
    "WaveplateSpec",
    "SourceConfig",
    "CoherentStage",
    "RotatingPlateStage",
    "NoisyChannelSpec",
    "jones",
    "make_source_state",
    "apply_noisy_channel",
]

POL_INPUTS = ("bell_p", "pure_HV", "pure_VH")
ARMS = ("A", "B")
WAVEPLATE_KINDS = ("half", "quarter")


@dataclass(frozen=True)
class WaveplateSpec:
    """A wave plate: retardance kind and fast-axis angle in radians.

    The angle is reduced modulo pi since a wave plate is invariant under a
    half turn of its fast axis.
    """

    kind: str = "half"
    angle: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in WAVEPLATE_KINDS:
            raise ValueError(f"kind must be one of {WAVEPLATE_KINDS}, got {self.kind!r}")
        if not math.isfinite(self.angle):
            raise ValueError(f"angle must be finite, got {self.angle}")
        object.__setattr__(self, "angle", float(self.angle) % math.pi)


@dataclass(frozen=True)
class SourceConfig:
    """Photon-pair source settings.

    ``pol_input`` selects the polarization part: ``bell_p`` prepares
    sqrt(p)|HH> + sqrt(1-p)|VV> with p = ``balance_p``; ``pure_HV`` and
    ``pure_VH`` prepare the corresponding product states. The energy-time
    part is a |SS>/|LL> Bell state with relative phase ``sum_phase`` whose
    off-diagonal coherence is scaled by ``franson_visibility``.
    """

    balance_p: float = 0.5
    franson_visibility: float = 1.0
    sum_phase: float = 0.0
    pol_input: str = "bell_p"

    def __post_init__(self) -> None:
        if not 0.0 <= self.balance_p <= 0.5:
            raise ValueError(f"balance_p must be in [0, 0.5], got {self.balance_p}")
        if not 0.0 <= self.franson_visibility <= 1.0:
            raise ValueError(
                f"franson_visibility must be in [0, 1], got {self.franson_visibility}"
            )
        if not math.isfinite(self.sum_phase):
            raise ValueError(f"sum_phase must be finite, got {self.sum_phase}")
        if self.pol_input not in POL_INPUTS:
            raise ValueError(
                f"pol_input must be one of {POL_INPUTS}, got {self.pol_input!r}"
            )


@dataclass(frozen=True)
class CoherentStage:
    """Fixed wave plates in each arm, applied in listed order."""

    plates_a: tuple[WaveplateSpec, ...] = ()
    plates_b: tuple[WaveplateSpec, ...] = ()

    def __post_init__(self) -> None:
        for name in ("plates_a", "plates_b"):
            value = getattr(self, name)
            plates = tuple(value) if np.iterable(value) else None
            if plates is None or not all(isinstance(plate, WaveplateSpec) for plate in plates):
                raise ValueError(f"{name} must be a sequence of WaveplateSpec, got {value!r}")
            object.__setattr__(self, name, plates)


@dataclass(frozen=True)
class RotatingPlateStage:
    """A spinning wave plate in one arm, averaged over a full revolution."""

    arm: str = "A"
    kind: str = "half"
    steps: int = 360

    def __post_init__(self) -> None:
        if self.arm not in ARMS:
            raise ValueError(f"arm must be one of {ARMS}, got {self.arm!r}")
        if self.kind not in WAVEPLATE_KINDS:
            raise ValueError(f"kind must be one of {WAVEPLATE_KINDS}, got {self.kind!r}")
        _integer_fields(self, "steps")
        if self.steps < 4 or self.steps % 2:
            raise ValueError(f"steps must be an even integer >= 4, got {self.steps}")


Stage = Union[CoherentStage, RotatingPlateStage]


@dataclass(frozen=True)
class NoisyChannelSpec:
    """Ordered pipeline of polarization-noise stages, one photon pair wide."""

    stages: tuple[Stage, ...] = ()

    def __post_init__(self) -> None:
        stages = tuple(self.stages)
        for stage in stages:
            if not isinstance(stage, (CoherentStage, RotatingPlateStage)):
                raise ValueError(f"unsupported stage type {type(stage).__name__}")
        object.__setattr__(self, "stages", stages)


def jones(spec: WaveplateSpec) -> np.ndarray:
    """Jones matrix of a wave plate at angle theta from the H axis.

    Half wave: [[cos 2t, sin 2t], [sin 2t, -cos 2t]].
    Quarter wave: exp(-i pi/4) [[c^2 + i s^2, (1-i) s c], [(1-i) s c, s^2 + i c^2]]
    with c = cos t, s = sin t. Both are unitary; the quarter-wave global
    phase is fixed so that the plate at 0 deg is diag(1, i) up to that phase.
    """
    theta = spec.angle
    if spec.kind == "half":
        c2, s2 = math.cos(2 * theta), math.sin(2 * theta)
        return np.array([[c2, s2], [s2, -c2]], dtype=complex)
    c, s = math.cos(theta), math.sin(theta)
    cross = (1.0 - 1.0j) * s * c
    mat = np.array(
        [[c * c + 1.0j * s * s, cross], [cross, s * s + 1.0j * c * c]], dtype=complex
    )
    return np.exp(-1.0j * math.pi / 4.0) * mat


# The product kets of pol_input, and the SS/LL mixture of visibility 0.
_PRODUCT_KETS = {"pure_HV": (0, 1, 0, 0), "pure_VH": (0, 0, 1, 0)}
_ET_DIAGONAL = np.diag([0.5, 0.0, 0.0, 0.5]).astype(complex)


def _interleaved(pol: np.ndarray, et: np.ndarray) -> np.ndarray:
    """pol (pol_A, pol_B) x et (et_A, et_B) on the pair register, per row of two (B, 4, 4) stacks."""
    grouped = pol[:, :, None, :, None] * et[:, None, :, None, :]  # kron per row
    # qubit order (pol_A, pol_B, et_A, et_B) on both sides, to (pol_A, et_A, pol_B, et_B)
    interleaved = grouped.reshape((-1,) + (2,) * 8).transpose(0, 1, 3, 2, 4, 5, 7, 6, 8)
    return interleaved.reshape(-1, 16, 16)


def _source_stack(cfgs) -> np.ndarray:
    """The (B, 16, 16) source states of a sequence of source configs, unchecked.

    Each is the projector on its normalized polarization ket times the
    |SS>/|LL> Bell state of phase ``sum_phase`` dephased to visibility V,
    V |Bell><Bell| + (1 - V) diag(1/2, 0, 0, 1/2).
    """
    kets = np.array([
        (math.sqrt(cfg.balance_p), 0.0, 0.0, math.sqrt(1.0 - cfg.balance_p))
        if cfg.pol_input == "bell_p" else _PRODUCT_KETS[cfg.pol_input]
        for cfg in cfgs
    ], dtype=complex)
    kets = kets / np.linalg.norm(kets, axis=1, keepdims=True)
    bells = np.zeros((len(kets), 4), dtype=complex)
    bells[:, 0] = 1.0
    bells[:, 3] = np.exp(1.0j * np.array([cfg.sum_phase for cfg in cfgs]))
    bells = bells / math.sqrt(2.0)
    vis = np.array([cfg.franson_visibility for cfg in cfgs])[:, None, None]
    et = vis * (bells[:, :, None] * bells.conj()[:, None, :]) + (1.0 - vis) * _ET_DIAGONAL
    return _interleaved(kets[:, :, None] * kets.conj()[:, None, :], et)


def make_source_state(cfg: SourceConfig) -> PhotonPairState:
    """Hyperentangled two-photon state emitted by the source.

    The one-state call of the stacked source builder the pipeline runs.
    """
    return PhotonPairState(DensityMatrix(_source_stack([cfg])[0]))


def _plate_channel(kind: str) -> tuple[np.ndarray, ...]:
    """Kraus operators of one wave plate averaged over a revolution of its fast axis.

    The Jones matrices of the plates are affine in (cos 2t, sin 2t):
    half wave J = cos 2t Z + sin 2t X, quarter wave
    J = exp(-i pi/4) [(1+i)/2 I + (1-i)/2 (cos 2t Z + sin 2t X)]. Averaging
    J rho J^dag over ``steps`` equally spaced angles k pi / steps, a full
    revolution since the plate period is pi, cancels every term linear in
    cos 2t or sin 2t and the cross term cos 2t sin 2t, and leaves cos^2 and
    sin^2 at 1/2 each, for every even ``steps`` >= 4. The average is thus
    the continuous one, and its minimal Kraus form has Choi rank 2 (half:
    Z/sqrt 2, X/sqrt 2) or 3 (quarter: I/sqrt 2, Z/2, X/2). A stage's
    ``steps`` is only validated: the stage's superoperator is built from
    these operators alone, so ``steps`` changes neither the cost nor the
    result.

    A spinning half-wave plate takes any linear polarization to the
    maximally mixed state; circular components survive with flipped
    handedness, which is why the purification scenarios drive it with
    linearly polarized light.
    """
    if kind == "half":
        return (PAULI_Z / math.sqrt(2.0), PAULI_X / math.sqrt(2.0))
    return (PAULI_I / math.sqrt(2.0), PAULI_Z / 2.0, PAULI_X / 2.0)


@lru_cache(maxsize=None)
def _plate_superoperator(kind: str, arm: str) -> np.ndarray:
    """The read-only 16x16 Liouville matrix on (pol_A, pol_B) of a rotating plate on ``arm``."""
    ops = [np.kron(op, PAULI_I) if arm == "A" else np.kron(PAULI_I, op)
           for op in _plate_channel(kind)]
    sop = _superoperator(np.array(ops))
    sop.setflags(write=False)
    return sop


def _plates_unitary(plates: tuple[WaveplateSpec, ...]) -> np.ndarray:
    """The Jones matrix of plates traversed in listed order; the identity for none."""
    u = np.eye(2, dtype=complex)
    for plate in plates:
        u = jones(plate) @ u
    return u


def _channel_stack(stack: np.ndarray, spec: NoisyChannelSpec) -> np.ndarray:
    """The noise pipeline on every state of a (B, 16, 16) stack, unchecked.

    Every stage acts on (pol_A, pol_B) alone, so the pipeline is one CPTP
    map there: the product, last stage leftmost, of one 16x16 Liouville
    matrix per stage (:func:`~fransonsim.qcore._superoperator`), U x conj(U)
    with U = U_A x U_B for a coherent stage, and the cached matrix of
    :func:`_plate_superoperator` for a rotating plate. It is applied to the
    whole stack by one :func:`~fransonsim.qcore._liouville_map`, one 16x16
    product per state. Without stages the stack is returned as it is.
    """
    if not spec.stages:
        return stack
    sop = None
    for stage in spec.stages:
        if isinstance(stage, CoherentStage):
            u = np.kron(_plates_unitary(stage.plates_a), _plates_unitary(stage.plates_b))
            step = _superoperator(u[None])
        else:
            step = _plate_superoperator(stage.kind, stage.arm)
        sop = step if sop is None else step @ sop
    return _liouville_map(stack, sop, ("pol_A", "pol_B"))


def apply_noisy_channel(state: PhotonPairState, spec: NoisyChannelSpec) -> PhotonPairState:
    """Send the pair through the polarization-noise pipeline.

    Stages act on polarization qubits only, in order; energy-time qubits are
    untouched, which is the operational premise of the purification scheme.
    The one-state call of the stacked channel; validated once, on return.
    """
    if not spec.stages:
        return state
    data = _channel_stack(state.rho.data[None], spec)[0]
    return PhotonPairState(DensityMatrix(data, weight=state.weight))
