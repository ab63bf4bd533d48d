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
    QuantumChannel,
    kraus_map,
)

__all__ = [
    "WaveplateSpec",
    "SourceConfig",
    "CoherentStage",
    "RotatingPlateStage",
    "NoisyChannelSpec",
    "jones",
    "make_source_state",
    "hyperentangled_input",
    "rotating_plate_channel",
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
        object.__setattr__(self, "plates_a", tuple(self.plates_a))
        object.__setattr__(self, "plates_b", tuple(self.plates_b))


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


def _pol_part(cfg: SourceConfig) -> DensityMatrix:
    if cfg.pol_input == "bell_p":
        ket = np.array(
            [math.sqrt(cfg.balance_p), 0.0, 0.0, math.sqrt(1.0 - cfg.balance_p)],
            dtype=complex,
        )
        return DensityMatrix.pure(ket)
    if cfg.pol_input == "pure_HV":
        return DensityMatrix.pure(np.array([0, 1, 0, 0], dtype=complex))
    return DensityMatrix.pure(np.array([0, 0, 1, 0], dtype=complex))


def _et_part(cfg: SourceConfig) -> DensityMatrix:
    """|SS>/|LL> Bell state dephased down to the configured visibility."""
    vis = cfg.franson_visibility
    bell = np.array(
        [1.0, 0.0, 0.0, np.exp(1.0j * cfg.sum_phase)], dtype=complex
    ) / math.sqrt(2.0)
    coherent = np.outer(bell, bell.conj())
    diagonal = np.diag([0.5, 0.0, 0.0, 0.5]).astype(complex)
    return DensityMatrix(vis * coherent + (1.0 - vis) * diagonal)


def hyperentangled_input(pol: DensityMatrix, et: DensityMatrix) -> PhotonPairState:
    """Assemble pol (pol_A, pol_B) x et (et_A, et_B) on the pair register."""
    if pol.dim != 4 or et.dim != 4:
        raise ValueError("pol and et parts must each cover two qubits")
    grouped = np.kron(pol.data, et.data)  # order (pol_A, pol_B, et_A, et_B)
    interleaved = grouped.reshape((2,) * 8).transpose(0, 2, 1, 3, 4, 6, 5, 7)
    return PhotonPairState(
        DensityMatrix(interleaved.reshape(16, 16), weight=pol.weight * et.weight)
    )


def make_source_state(cfg: SourceConfig) -> PhotonPairState:
    """Hyperentangled two-photon state emitted by the source."""
    return hyperentangled_input(_pol_part(cfg), _et_part(cfg))


def rotating_plate_channel(kind: str = "half", steps: int = 360) -> QuantumChannel:
    """Uniform average of one wave plate over a revolution of its fast axis.

    The Jones matrices of the plates are affine in (cos 2t, sin 2t):
    half wave J = cos 2t Z + sin 2t X, quarter wave
    J = exp(-i pi/4) [(1+i)/2 I + (1-i)/2 (cos 2t Z + sin 2t X)]. Averaging
    J rho J^dag over ``steps`` equally spaced angles k pi / steps, a full
    revolution since the plate period is pi, cancels every term linear in
    cos 2t or sin 2t and the cross term cos 2t sin 2t, and leaves cos^2 and
    sin^2 at 1/2 each, for every even ``steps`` >= 4. The average is thus
    the continuous one, and its minimal Kraus form has Choi rank 2 (half:
    Z/sqrt 2, X/sqrt 2) or 3 (quarter: I/sqrt 2, Z/2, X/2); ``steps`` is
    only validated and changes neither the cost nor the result.

    A spinning half-wave plate takes any linear polarization to the
    maximally mixed state; circular components survive with flipped
    handedness, which is why the purification scenarios drive it with
    linearly polarized light.
    """
    RotatingPlateStage(arm="A", kind=kind, steps=steps)  # reuse validation
    return _plate_channel(kind)


@lru_cache(maxsize=None)
def _plate_channel(kind: str) -> QuantumChannel:
    if kind == "half":
        ops = (PAULI_Z / math.sqrt(2.0), PAULI_X / math.sqrt(2.0))
    else:
        ops = (PAULI_I / math.sqrt(2.0), PAULI_Z / 2.0, PAULI_X / 2.0)
    return QuantumChannel(ops, trace_preserving=True)


def apply_noisy_channel(state: PhotonPairState, spec: NoisyChannelSpec) -> PhotonPairState:
    """Send the pair through the polarization-noise pipeline.

    Stages act on polarization qubits only, in order; energy-time qubits are
    untouched, which is the operational premise of the purification scheme.
    Each plate or plate stack is one contraction on the target axes of the
    state; the state is validated once, on return.
    """
    if not spec.stages:
        return state
    data = state.rho.data
    for stage in spec.stages:
        if isinstance(stage, CoherentStage):
            for arm, plates in (("A", stage.plates_a), ("B", stage.plates_b)):
                if not plates:
                    continue
                u = np.eye(2, dtype=complex)
                for plate in plates:
                    u = jones(plate) @ u
                data = kraus_map(data, (u,), (f"pol_{arm}",))
        else:
            channel = rotating_plate_channel(stage.kind, stage.steps)
            data = kraus_map(data, channel.kraus, (f"pol_{stage.arm}",))
    return PhotonPairState(DensityMatrix(data, weight=state.weight))
