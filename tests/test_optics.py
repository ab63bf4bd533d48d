"""Wave-plate algebra, source states, and scrambling-channel behavior."""

import numpy as np
import pytest

from fransonsim import optics, qcore
from fransonsim.qcore import (
    DensityMatrix,
    PhotonPairState,
    concurrence,
    purity,
)
from fransonsim.optics import (
    CoherentStage,
    NoisyChannelSpec,
    RotatingPlateStage,
    SourceConfig,
    WaveplateSpec,
    apply_noisy_channel,
    jones,
    make_source_state,
)

from oracle_states import hyperentangled_input, random_state

HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)


def random_density(rng, dim):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    return DensityMatrix(rho / np.trace(rho).real)


class TestJonesMatrices:
    def test_half_plate_at_zero_is_z(self):
        """A half plate with fast axis horizontal flips V."""
        np.testing.assert_allclose(
            jones(WaveplateSpec("half", 0.0)), np.diag([1.0, -1.0]), atol=1e-15
        )

    def test_half_plate_at_45_deg_is_x(self):
        """A half plate at 45 degrees swaps H and V."""
        np.testing.assert_allclose(
            jones(WaveplateSpec("half", np.pi / 4)),
            np.array([[0.0, 1.0], [1.0, 0.0]]),
            atol=1e-12,
        )

    def test_half_plate_at_22p5_deg_is_hadamard(self):
        """A half plate at 22.5 degrees realizes the Hadamard rotation."""
        np.testing.assert_allclose(
            jones(WaveplateSpec("half", np.pi / 8)), HADAMARD, atol=1e-12
        )

    def test_quarter_plate_at_zero(self):
        """A quarter plate at 0 retards V by a quarter wave."""
        want = np.exp(-1j * np.pi / 4) * np.diag([1.0, 1j])
        np.testing.assert_allclose(jones(WaveplateSpec("quarter", 0.0)), want, atol=1e-12)

    def test_jones_is_unitary(self):
        """Every plate matrix is unitary at any angle."""
        rng = np.random.default_rng(61)
        for _ in range(200):
            kind = "half" if rng.uniform() < 0.5 else "quarter"
            u = jones(WaveplateSpec(kind, rng.uniform(0.0, np.pi)))
            np.testing.assert_allclose(u @ u.conj().T, np.eye(2), atol=1e-12)

    def test_angle_wraps_mod_pi(self):
        """Plate settings are periodic in pi."""
        a = jones(WaveplateSpec("half", 0.3))
        b = jones(WaveplateSpec("half", 0.3 + np.pi))
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_rejects_unknown_kind(self):
        """Only half and quarter plates exist."""
        with pytest.raises(ValueError, match="kind"):
            WaveplateSpec("third", 0.0)


class TestSourceState:
    def test_ideal_source_is_pure(self):
        """V = 1 and a pure polarization input give a pure 4-qubit state."""
        state = make_source_state(SourceConfig(franson_visibility=1.0))
        assert purity(state.rho) == pytest.approx(1.0, abs=1e-12)

    def test_polarization_marginal_matches_bell_p(self):
        """The polarization marginal is the tilted Bell projector."""
        p = 0.3
        state = make_source_state(SourceConfig(balance_p=p))
        ket = np.array([np.sqrt(p), 0.0, 0.0, np.sqrt(1.0 - p)])
        np.testing.assert_allclose(
            state.pol_marginal().data, np.outer(ket, ket), atol=1e-12
        )

    def test_pure_input_variants(self):
        """pure_HV and pure_VH select the corresponding product kets."""
        hv = make_source_state(SourceConfig(pol_input="pure_HV")).pol_marginal()
        vh = make_source_state(SourceConfig(pol_input="pure_VH")).pol_marginal()
        assert hv.data[1, 1] == pytest.approx(1.0, abs=1e-12)
        assert vh.data[2, 2] == pytest.approx(1.0, abs=1e-12)

    def test_arrival_time_marginal_closed_form(self):
        """The arrival-time marginal is V Bell plus (1 - V) classical SS/LL."""
        for v in (0.0, 0.5, 0.979, 1.0):
            phi = 0.4
            cfg = SourceConfig(franson_visibility=v, sum_phase=phi)
            got = make_source_state(cfg).et_marginal().data
            bell = np.array([1.0, 0.0, 0.0, np.exp(1j * phi)]) / np.sqrt(2.0)
            want = v * np.outer(bell, bell.conj()) + (1.0 - v) * np.diag(
                [0.5, 0.0, 0.0, 0.5]
            )
            np.testing.assert_allclose(got, want, atol=1e-12)

    def test_arrival_time_purity(self):
        """Partially coherent time marginals have purity (1 + V^2) / 2."""
        for v in (0.0, 0.25, 0.7, 1.0):
            state = make_source_state(SourceConfig(franson_visibility=v))
            assert purity(state.et_marginal()) == pytest.approx(
                (1.0 + v * v) / 2.0, abs=1e-12
            )

    def test_sum_phase_lands_on_ll_coherence(self):
        """The pump phase shows up on the SS-LL off-diagonal element."""
        phi = 1.1
        state = make_source_state(SourceConfig(sum_phase=phi))
        coher = state.et_marginal().data[0, 3]
        assert coher == pytest.approx(0.5 * np.exp(-1j * phi), abs=1e-12)

    def test_hyperentangled_input_interleaves(self):
        """Joint states carry pol on qubits 0, 2 and arrival time on 1, 3."""
        rng = np.random.default_rng(67)
        for _ in range(50):
            pol = random_density(rng, 4)
            et = random_density(rng, 4)
            state = hyperentangled_input(pol, et)
            np.testing.assert_allclose(state.pol_marginal().data, pol.data, atol=1e-12)
            np.testing.assert_allclose(state.et_marginal().data, et.data, atol=1e-12)

    def test_config_validation(self):
        """Out-of-range balance or visibility is refused."""
        with pytest.raises(ValueError, match="balance_p"):
            SourceConfig(balance_p=0.7)
        with pytest.raises(ValueError, match="visibility"):
            SourceConfig(franson_visibility=1.2)
        with pytest.raises(ValueError, match="pol_input"):
            SourceConfig(pol_input="bell_m")


class TestRotatingPlateChannel:
    def test_trace_preserving_for_all_step_counts(self):
        """The uniform plate mixture is trace preserving for any step count."""
        for kind in ("half", "quarter"):
            acc = sum(k.conj().T @ k for k in optics._plate_channel(kind))
            np.testing.assert_allclose(acc, np.eye(2), atol=1e-12)
        state = PhotonPairState(random_state(4, "mixed", seed=5))
        for steps in (4, 8, 90, 360):
            for kind in ("half", "quarter"):
                spec = NoisyChannelSpec((RotatingPlateStage("B", kind, steps),))
                out = apply_noisy_channel(state, spec)
                assert np.trace(out.rho.data).real == pytest.approx(1.0, abs=1e-12)
                assert out.weight == 1.0

    def test_half_plate_scrambles_linear_inputs(self):
        """Linearly polarized light averages to the fully mixed state."""
        channel = optics._plate_channel("half")
        for theta in np.linspace(0.0, np.pi, 13):
            ket = np.array([np.cos(theta), np.sin(theta)])
            out = sum(k @ np.outer(ket, ket) @ k.conj().T for k in channel)
            np.testing.assert_allclose(out, np.eye(2) / 2.0, atol=1e-12)

    def test_half_plate_flips_circular_input(self):
        """Half-plate averaging maps circular light to the opposite handedness."""
        # the rotating half plate keeps circular coherence, so this channel is
        # a scrambler for linear but not for circular polarization
        right = np.array([1.0, -1j]) / np.sqrt(2.0)
        left = np.array([1.0, 1j]) / np.sqrt(2.0)
        channel = optics._plate_channel("half")
        out = sum(k @ np.outer(right, right.conj()) @ k.conj().T for k in channel)
        np.testing.assert_allclose(out, np.outer(left, left.conj()), atol=1e-12)

    def test_quarter_plate_partial_scramble(self):
        """A rotating quarter plate leaves residual polarization on H input."""
        channel = optics._plate_channel("quarter")
        ket = np.array([1.0, 0.0])
        out = sum(k @ np.outer(ket, ket) @ k.conj().T for k in channel)
        np.testing.assert_allclose(out, np.diag([0.75, 0.25]), atol=1e-12)

    @pytest.mark.parametrize("kind", ["half", "quarter"])
    @pytest.mark.parametrize("arm", ["A", "B"])
    def test_the_plate_table_is_the_superoperator_of_its_kind_and_arm(self, kind, arm):
        """The table's entry is bitwise the Liouville matrix of the plate's Kraus set, read-only.

        The table holds exactly the four (kind, arm) pairs.
        """
        assert len(optics._PLATE_SUPEROPERATORS) == 4
        sop = optics._PLATE_SUPEROPERATORS[kind, arm]
        ops = [np.kron(op, qcore.PAULI_I) if arm == "A" else np.kron(qcore.PAULI_I, op)
               for op in optics._plate_channel(kind)]
        built = qcore._superoperator(np.array(ops, dtype=complex))
        assert (sop.shape, sop.dtype, sop.strides) == (built.shape, built.dtype, built.strides)
        assert sop.tobytes() == built.tobytes()
        assert not sop.flags.writeable
        with pytest.raises(ValueError):
            sop[0, 0] = 1.0

    def test_step_count_validation(self):
        """Step counts must be even and at least four."""
        with pytest.raises(ValueError, match="steps"):
            RotatingPlateStage(steps=5)
        with pytest.raises(ValueError, match="steps"):
            RotatingPlateStage(steps=2)


class TestNoisyChannelPipeline:
    def test_rotating_stage_matches_uniform_mixture(self):
        """The pipeline equals the explicit uniform plate-position mixture."""
        steps = 24
        state = make_source_state(SourceConfig(pol_input="pure_VH"))
        out = apply_noisy_channel(
            state, NoisyChannelSpec((RotatingPlateStage("A", "half", steps),))
        )
        acc = np.zeros_like(state.rho.data)
        for k in range(steps):
            u = jones(WaveplateSpec("half", k * np.pi / steps))
            full = np.kron(np.kron(u, np.eye(2)), np.eye(4))
            acc += full @ state.rho.data @ full.conj().T / steps
        np.testing.assert_allclose(out.rho.data, acc, atol=1e-12)

    def test_step_count_changes_neither_cost_nor_result(self, monkeypatch):
        """steps = 10**9 gives the steps = 4 state without visiting plate positions."""
        calls = []

        def counting_jones(spec):
            calls.append(spec)
            if len(calls) > 64:
                raise AssertionError("the rotating plate enumerates its positions")
            return jones(spec)

        monkeypatch.setattr(optics, "jones", counting_jones)
        state = PhotonPairState(random_state(4, "mixed", seed=3))
        outs = [
            apply_noisy_channel(
                state,
                NoisyChannelSpec(
                    (RotatingPlateStage("A", "half", steps),
                     RotatingPlateStage("B", "quarter", steps))
                ),
            )
            for steps in (4, 10**9)
        ]
        np.testing.assert_allclose(outs[1].rho.data, outs[0].rho.data, atol=1e-15)

    def test_untouched_arm_is_preserved(self):
        """Scrambling arm A leaves the arm-B polarization marginal intact."""
        state = make_source_state(SourceConfig(pol_input="pure_VH"))
        out = apply_noisy_channel(
            state, NoisyChannelSpec((RotatingPlateStage("A", "half", 360),))
        )
        pol = out.pol_marginal()
        marg_b = np.einsum("abac->bc", pol.data.reshape(2, 2, 2, 2))
        np.testing.assert_allclose(marg_b, np.diag([1.0, 0.0]), atol=1e-12)

    def test_coherent_plates_compose_in_order(self):
        """Plates in one stage act in sequence on the same arm."""
        plates = (WaveplateSpec("half", 0.2), WaveplateSpec("quarter", 1.0))
        state = make_source_state(SourceConfig(pol_input="pure_HV"))
        out = apply_noisy_channel(state, NoisyChannelSpec((CoherentStage(plates, ()),)))
        u = jones(plates[1]) @ jones(plates[0])
        full = np.kron(np.kron(u, np.eye(2)), np.eye(4))
        want = full @ state.rho.data @ full.conj().T
        np.testing.assert_allclose(out.rho.data, want, atol=1e-12)

    def test_stages_apply_to_named_arms(self):
        """A coherent stage can address both arms independently."""
        state = make_source_state(SourceConfig())
        stage = CoherentStage(
            (WaveplateSpec("half", np.pi / 8),), (WaveplateSpec("half", np.pi / 4),)
        )
        out = apply_noisy_channel(state, NoisyChannelSpec((stage,)))
        ua = jones(WaveplateSpec("half", np.pi / 8))
        ub = jones(WaveplateSpec("half", np.pi / 4))
        full = np.kron(np.kron(ua, np.eye(2)), np.kron(ub, np.eye(2)))
        want = full @ state.rho.data @ full.conj().T
        np.testing.assert_allclose(out.rho.data, want, atol=1e-12)

    def test_empty_channel_is_identity(self):
        """No stages means no change."""
        state = make_source_state(SourceConfig())
        out = apply_noisy_channel(state, NoisyChannelSpec(()))
        np.testing.assert_allclose(out.rho.data, state.rho.data, atol=1e-15)

    def test_scrambled_arm_kills_polarization_entanglement(self):
        """Full scrambling of one arm leaves zero polarization concurrence."""
        state = make_source_state(SourceConfig(pol_input="bell_p"))
        out = apply_noisy_channel(
            state, NoisyChannelSpec((RotatingPlateStage("A", "half", 360),))
        )
        assert concurrence(out.pol_marginal()) == pytest.approx(0.0, abs=1e-10)

    def test_arrival_time_untouched_by_polarization_noise(self):
        """Channel noise acts on polarization only."""
        cfg = SourceConfig(franson_visibility=0.979)
        state = make_source_state(cfg)
        out = apply_noisy_channel(
            state, NoisyChannelSpec((RotatingPlateStage("A", "half", 360),))
        )
        np.testing.assert_allclose(
            out.et_marginal().data, state.et_marginal().data, atol=1e-12
        )

    def test_arm_validation(self):
        """Stages address arms A and B only."""
        with pytest.raises(ValueError, match="arm"):
            RotatingPlateStage(arm="C")

    @pytest.mark.parametrize("field, plates", [
        ("plates_a", ("half",)),
        ("plates_b", [WaveplateSpec(), None]),
        ("plates_a", WaveplateSpec("quarter", 0.3)),
        ("plates_b", 2),
    ])
    def test_coherent_plates_must_be_waveplates(self, field, plates):
        """A coherent stage refuses plates that are not WaveplateSpecs, naming the arm's field."""
        with pytest.raises(ValueError, match=f"{field} must be a sequence of WaveplateSpec"):
            CoherentStage(**{field: plates})
        stage = CoherentStage(plates_a=[WaveplateSpec()], plates_b=iter([WaveplateSpec()]))
        assert stage.plates_a == stage.plates_b == (WaveplateSpec(),)
