"""Physics stages against a generic gate-by-gate oracle.

The oracle lifts every operator to the full register with ``lift_unitary``
and applies it as a dense 16x16 conjugation: one Kraus operator per plate
position for the rotating plates, and the seven-gate transfer circuit
(phase gates, phase-damping jitter channel, long-arm flips, both PBS CNOTs
and the parity correction). The stages under test contract small operators
on the state's target axes and fold the transfer into masks and one basis
permutation; both must agree on random mixed inputs.
"""

import math

import numpy as np
import pytest

from fransonsim.optics import (
    CoherentStage,
    NoisyChannelSpec,
    RotatingPlateStage,
    WaveplateSpec,
    apply_noisy_channel,
    jones,
)
from fransonsim.qcore import (
    PAIR_LAYOUT,
    DensityMatrix,
    PhotonPairState,
    QuantumChannel,
    apply_channel,
    apply_unitary,
    lift_unitary,
    random_state,
)
from fransonsim.transfer import InterferometerConfig, block_long_arms, transfer

TOL = 1e-12
SEEDS = range(8)


def lifted(data, kraus, targets):
    """Sum of K rho K^dag with each K lifted to the full register."""
    out = np.zeros_like(data)
    for k in kraus:
        big = lift_unitary(k, targets, PAIR_LAYOUT)
        out += big @ data @ big.conj().T
    return out


def plate_positions(kind, steps):
    """One Kraus operator per plate position of the rotating plate."""
    scale = 1.0 / math.sqrt(steps)
    return [scale * jones(WaveplateSpec(kind, k * math.pi / steps)) for k in range(steps)]


def oracle_channel(data, spec):
    for stage in spec.stages:
        if isinstance(stage, CoherentStage):
            for arm, plates in (("A", stage.plates_a), ("B", stage.plates_b)):
                for plate in plates:
                    data = lifted(data, [jones(plate)], (f"pol_{arm}",))
        else:
            kraus = plate_positions(stage.kind, stage.steps)
            data = lifted(data, kraus, (f"pol_{stage.arm}",))
    return data


# Basis |pol, et> with pol most significant: X on pol when et is L.
LONG_ARM_FLIP = np.array(
    [[1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0]], dtype=complex
)
# PBS as a CNOT, pol control and et target: V swaps ports.
PBS_CNOT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)


def parity_correction():
    """X on pol_B for basis states whose two path qubits disagree."""
    gate = np.zeros((16, 16), dtype=complex)
    for i in range(16):
        et_a, et_b = (i >> 2) & 1, i & 1
        gate[i ^ (2 if et_a ^ et_b else 0), i] = 1.0
    return gate


def oracle_transfer(data, cfg, rng=None):
    phases = {"A": cfg.phase_a, "B": cfg.phase_b}
    if cfg.phase_jitter_sigma > 0.0 and rng is not None:
        for arm in phases:
            phases[arm] += rng.normal(0.0, cfg.phase_jitter_sigma)
    for arm in ("A", "B"):
        gate = np.diag([1.0, np.exp(1.0j * phases[arm])])
        data = lifted(data, [gate], (f"et_{arm}",))
    if cfg.phase_jitter_sigma > 0.0 and rng is None:
        lam = 1.0 - math.exp(-cfg.phase_jitter_sigma**2)
        jitter = [np.diag([1.0, math.sqrt(1.0 - lam)]), np.diag([0.0, math.sqrt(lam)])]
        for arm in ("A", "B"):
            data = lifted(data, jitter, (f"et_{arm}",))
    for arm in ("A", "B"):
        data = lifted(data, [LONG_ARM_FLIP], (f"pol_{arm}", f"et_{arm}"))
    for arm in ("A", "B"):
        data = lifted(data, [PBS_CNOT], (f"pol_{arm}", f"et_{arm}"))
    return lifted(data, [parity_correction()], PAIR_LAYOUT.labels)


def random_pair(seed):
    return PhotonPairState(random_state(4, "mixed", seed))


def random_plates(rng, count):
    kinds = ("half", "quarter")
    return tuple(
        WaveplateSpec(kinds[rng.integers(2)], rng.uniform(0.0, math.pi))
        for _ in range(count)
    )


class TestKernelAgainstLift:
    def test_unitaries_on_reordered_targets(self):
        """apply_unitary equals the lifted conjugation on any target tuple."""
        rng = np.random.default_rng(5)
        for seed in SEEDS:
            rho = random_state(4, "mixed", seed)
            targets = tuple(str(t) for t in rng.permutation(PAIR_LAYOUT.labels))
            targets = targets[: 1 + seed % 4]
            dim = 2 ** len(targets)
            u, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
            out = apply_unitary(rho, u, targets, PAIR_LAYOUT)
            np.testing.assert_allclose(out.data, lifted(rho.data, [u], targets), atol=TOL)

    def test_channels_on_reordered_targets(self):
        """apply_channel equals the lifted Kraus sum, weight included."""
        rng = np.random.default_rng(7)
        for seed in SEEDS:
            rho = random_state(4, "mixed", seed)
            targets = ("et_B", "pol_A")
            g = rng.normal(size=(12, 4)) + 1j * rng.normal(size=(12, 4))
            q, _ = np.linalg.qr(g)
            # the first two of three Kraus operators: a postselecting channel
            channel = QuantumChannel((q[:4], q[4:8]), trace_preserving=False)
            out = apply_channel(rho, channel, targets, PAIR_LAYOUT)
            want = lifted(rho.data, channel.kraus, targets)
            tr = want.trace().real
            np.testing.assert_allclose(out.data, want / tr, atol=TOL)
            assert out.weight == pytest.approx(tr, abs=TOL)


class TestChannelAgainstOracle:
    def test_coherent_plate_stacks_on_both_arms(self):
        """Stacks of fixed plates on both arms match the gate-by-gate path."""
        rng = np.random.default_rng(11)
        for seed in SEEDS:
            state = random_pair(seed)
            spec = NoisyChannelSpec(
                (
                    CoherentStage(random_plates(rng, 3), random_plates(rng, 2)),
                    CoherentStage((), random_plates(rng, 1)),
                )
            )
            out = apply_noisy_channel(state, spec)
            np.testing.assert_allclose(
                out.rho.data, oracle_channel(state.rho.data, spec), atol=TOL
            )

    @pytest.mark.parametrize("steps", [4, 6, 36, 360])
    def test_rotating_plates_of_both_kinds_on_both_arms(self, steps):
        """The closed-form plate average equals the per-position mixture."""
        for seed in SEEDS:
            state = random_pair(seed)
            kinds = ("half", "quarter") if seed % 2 else ("quarter", "half")
            spec = NoisyChannelSpec(
                (
                    RotatingPlateStage("A", kinds[0], steps),
                    RotatingPlateStage("B", kinds[1], steps),
                    RotatingPlateStage("A", kinds[1], steps),
                )
            )
            out = apply_noisy_channel(state, spec)
            np.testing.assert_allclose(
                out.rho.data, oracle_channel(state.rho.data, spec), atol=TOL
            )


class TestTransferAgainstOracle:
    def check(self, state, out, want):
        np.testing.assert_allclose(out.joint_out.rho.data, want, atol=TOL)
        assert out.joint_out.weight == state.weight
        want_state = PhotonPairState(DensityMatrix(want))
        np.testing.assert_allclose(
            out.pol_out.data, want_state.pol_marginal().data, atol=TOL
        )
        np.testing.assert_allclose(
            out.path_out.data, want_state.et_marginal().data, atol=TOL
        )
        np.testing.assert_allclose(
            out.port_probs, np.diag(want_state.et_marginal().data).real, atol=TOL
        )

    def test_random_phases(self):
        """Masks plus one permutation equal the seven-gate circuit."""
        rng = np.random.default_rng(13)
        for seed in SEEDS:
            state = random_pair(seed)
            cfg = InterferometerConfig(
                phase_a=rng.uniform(-math.pi, math.pi),
                phase_b=rng.uniform(-math.pi, math.pi),
            )
            self.check(state, transfer(state, cfg), oracle_transfer(state.rho.data, cfg))

    def test_analytic_jitter(self):
        """The damping mask equals the phase-damping channel on both arms."""
        for seed in SEEDS:
            state = random_pair(seed)
            cfg = InterferometerConfig(
                phase_a=0.3 * seed, phase_b=-0.2, phase_jitter_sigma=0.1 + 0.2 * seed
            )
            self.check(state, transfer(state, cfg), oracle_transfer(state.rho.data, cfg))

    def test_sampled_jitter_keeps_draw_order(self):
        """A seeded rng draws arm A then arm B, as the gate-by-gate oracle does."""
        cfg = InterferometerConfig(phase_a=0.4, phase_b=1.1, phase_jitter_sigma=0.7)
        for seed in SEEDS:
            state = random_pair(seed)
            rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            for _ in range(3):
                self.check(
                    state,
                    transfer(state, cfg, rng=rng),
                    oracle_transfer(state.rho.data, cfg, rng=oracle_rng),
                )
            assert rng.random() == oracle_rng.random()


class TestBlockingAgainstOracle:
    def test_block_long_arms(self):
        """Short-arm postselection equals the lifted projector, weight included."""
        project_s = np.diag([1.0, 0.0]).astype(complex)
        for seed in SEEDS:
            state = random_pair(seed)
            want = lifted(state.rho.data, [np.kron(project_s, project_s)], ("et_A", "et_B"))
            tr = want.trace().real
            out = block_long_arms(state)
            np.testing.assert_allclose(out.rho.data, want / tr, atol=TOL)
            assert out.weight == pytest.approx(tr, abs=TOL)
