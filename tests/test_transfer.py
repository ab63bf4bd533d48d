"""Transfer-stage physics: swap action, dephasing, fringes, blocking."""

import numpy as np
import pytest

from fransonsim.qcore import (
    DensityMatrix,
    PHI_PLUS_KET,
    PostselectionError,
    concurrence,
    fidelity_to,
    purity,
)
from fransonsim.optics import (
    NoisyChannelSpec,
    RotatingPlateStage,
    SourceConfig,
    apply_noisy_channel,
    make_source_state,
)
from fransonsim.transfer import (
    InterferometerConfig,
    _check_ports,
    block_long_arms,
    fringe_visibility,
    sum_phase_scan,
    transfer,
)

from oracle_states import (
    hyperentangled_input,
    maximally_mixed,
    pure,
    random_state,
    trace_distance,
)

IDEAL_ET = pure(PHI_PLUS_KET)


def ideal_input(pol):
    """Hyperentangled state with a perfect arrival-time Bell component."""
    return hyperentangled_input(pol, IDEAL_ET)


def dephased_bell(v, phi=0.0):
    """V-weighted Bell projector plus classical HH/VV remainder."""
    ket = np.array([1.0, 0.0, 0.0, np.exp(1j * phi)]) / np.sqrt(2.0)
    return v * np.outer(ket, ket.conj()) + (1.0 - v) * np.diag([0.5, 0.0, 0.0, 0.5])


class TestBasisAction:
    def test_sixteen_basis_states(self):
        """Each register basis ket follows the documented transfer rule."""
        phase_a, phase_b = 0.7, -0.3
        cfg = InterferometerConfig(phase_a=phase_a, phase_b=phase_b)
        for a in (0, 1):
            for x in (0, 1):
                for b in (0, 1):
                    for y in (0, 1):
                        ket = np.zeros(16)
                        ket[(a << 3) | (x << 2) | (b << 1) | y] = 1.0
                        out = transfer(
                            hyperentangled_input(
                                pure(
                                    np.eye(4)[(a << 1) | b].astype(float)
                                ),
                                pure(
                                    np.eye(4)[(x << 1) | y].astype(float)
                                ),
                            ),
                            cfg,
                        )
                        # phases are global on basis states; only populations count
                        want = np.zeros(16)
                        pol_a, pol_b = a ^ x, a ^ y
                        path_a, path_b = a, b
                        want[(pol_a << 3) | (path_a << 2) | (pol_b << 1) | path_b] = 1.0
                        np.testing.assert_allclose(
                            out.joint_out.rho.data, np.outer(want, want), atol=1e-12
                        )

    def test_phase_accumulates_on_long_arm_amplitudes(self):
        """Arm phases multiply exactly the amplitudes that took a long arm."""
        # |H>_pol x (|SS> + |LL>)/sqrt(2) per photon pair: output coherence
        # between the x = y = 0 and x = y = 1 images carries e^{i(phi_a+phi_b)}
        phase_a, phase_b = 0.9, 0.4
        pol = pure(np.array([1.0, 0.0, 0.0, 0.0]))
        out = transfer(
            ideal_input(pol),
            InterferometerConfig(phase_a=phase_a, phase_b=phase_b),
        )
        rho = out.pol_out.data
        assert rho[0, 3] == pytest.approx(
            0.5 * np.exp(-1j * (phase_a + phase_b)), abs=1e-12
        )


class TestSwapAction:
    def test_random_inputs_swap_exactly(self):
        """Transfer swaps polarization onto the path register, 200 seeds."""
        cfg = InterferometerConfig()
        for seed in range(200):
            pol = random_state(2, kind="mixed", seed=seed)
            outcome = transfer(ideal_input(pol), cfg)
            assert trace_distance(outcome.pol_out, pure(PHI_PLUS_KET)) < 1e-10
            assert trace_distance(outcome.path_out, pol) < 1e-10

    def test_pure_inputs_swap_exactly(self):
        """Pure polarization inputs land on the path register unchanged."""
        cfg = InterferometerConfig()
        for seed in range(50):
            pol = random_state(2, kind="pure", seed=seed)
            outcome = transfer(ideal_input(pol), cfg)
            assert trace_distance(outcome.path_out, pol) < 1e-10

    def test_round_trip_restores_polarization(self):
        """Re-injecting the path state through a fresh stage returns the input."""
        cfg = InterferometerConfig()
        for seed in range(100):
            pol = random_state(2, kind="mixed", seed=seed)
            first = transfer(ideal_input(pol), cfg)
            second = transfer(ideal_input(first.path_out), cfg)
            assert trace_distance(second.path_out, pol) < 1e-10


class TestPhaseBehavior:
    def test_phase_covariance_for_definite_arm_a(self):
        """With a definite arm-A polarization, phases act as local rotations."""
        cfg0 = InterferometerConfig()
        for phase_a, phase_b in ((0.3, 0.0), (0.0, 1.2), (0.8, -0.5)):
            state = make_source_state(SourceConfig(balance_p=0.0))
            base = transfer(state, cfg0).pol_out
            shifted = transfer(
                state, InterferometerConfig(phase_a=phase_a, phase_b=phase_b)
            ).pol_out
            u = np.kron(np.diag([1.0, np.exp(-1j * phase_a)]),
                        np.diag([1.0, np.exp(-1j * phase_b)]))
            want = u @ base.data @ u.conj().T
            np.testing.assert_allclose(shifted.data, want, atol=1e-12)

    def test_fidelity_follows_cosine_law(self):
        """Output Bell fidelity is (1 + cos(total phase)) / 2 for any input."""
        for pol_input in ("bell_p", "pure_HV", "pure_VH"):
            for phase in (0.0, 0.7, 2.1, np.pi):
                state = make_source_state(SourceConfig(pol_input=pol_input))
                out = transfer(state, InterferometerConfig(phase_a=phase)).pol_out
                assert fidelity_to(out, PHI_PLUS_KET) == pytest.approx(
                    (1.0 + np.cos(phase)) / 2.0, abs=1e-10
                )

    def test_source_sum_phase_adds_to_interferometer_phases(self):
        """Pump phase and arm phases enter only through their sum."""
        state_a = make_source_state(SourceConfig(sum_phase=0.9))
        out_a = transfer(state_a, InterferometerConfig()).pol_out
        state_b = make_source_state(SourceConfig())
        out_b = transfer(state_b, InterferometerConfig(phase_a=0.5, phase_b=0.4)).pol_out
        np.testing.assert_allclose(out_a.data, out_b.data, atol=1e-12)


class TestDephasedOutput:
    def test_output_matches_closed_form(self):
        """Partial source coherence yields the dephased Bell output exactly."""
        for v in (0.0, 0.5, 0.979, 1.0):
            state = make_source_state(SourceConfig(franson_visibility=v))
            out = transfer(state, InterferometerConfig()).pol_out
            np.testing.assert_allclose(out.data, dephased_bell(v), atol=1e-12)

    def test_output_metrics_track_visibility(self):
        """Fidelity, concurrence, and purity follow the visibility."""
        for v in (0.0, 0.5, 0.979, 1.0):
            state = make_source_state(SourceConfig(franson_visibility=v))
            out = transfer(state, InterferometerConfig()).pol_out
            assert fidelity_to(out, PHI_PLUS_KET) == pytest.approx(
                (1.0 + v) / 2.0, abs=1e-10
            )
            assert concurrence(out) == pytest.approx(v, abs=1e-10)
            assert purity(out) == pytest.approx((1.0 + v * v) / 2.0, abs=1e-10)

    def test_output_is_input_independent(self):
        """The transferred state does not depend on the polarization input."""
        outs = []
        for pol_input, p in (("bell_p", 0.5), ("bell_p", 0.1), ("pure_HV", 0.5),
                             ("pure_VH", 0.5)):
            cfg = SourceConfig(
                pol_input=pol_input, balance_p=p, franson_visibility=0.979
            )
            outs.append(transfer(make_source_state(cfg), InterferometerConfig()).pol_out)
        for other in outs[1:]:
            np.testing.assert_allclose(outs[0].data, other.data, atol=1e-12)

    def test_output_survives_channel_noise(self):
        """Scrambling the polarization first cannot touch the transferred state."""
        cfg = SourceConfig(pol_input="pure_VH", franson_visibility=0.979)
        state = apply_noisy_channel(
            make_source_state(cfg),
            NoisyChannelSpec((RotatingPlateStage("A", "half", 360),)),
        )
        out = transfer(state, InterferometerConfig()).pol_out
        np.testing.assert_allclose(out.data, dephased_bell(0.979), atol=1e-12)


class TestPorts:
    def test_port_probabilities_mirror_input_polarization(self):
        """Exit-port populations equal the input polarization populations."""
        for seed in range(50):
            pol = random_state(2, kind="mixed", seed=seed)
            outcome = transfer(ideal_input(pol), InterferometerConfig())
            np.testing.assert_allclose(
                outcome.port_probs, np.diag(pol.data).real, atol=1e-12
            )

    def test_ports_are_phase_independent(self):
        """Arm phases never move population between exit ports."""
        state = make_source_state(SourceConfig(pol_input="pure_VH"))
        base = transfer(state, InterferometerConfig()).port_probs
        for phase in (0.4, 1.1, 2.9):
            probs = transfer(
                state, InterferometerConfig(phase_a=phase, phase_b=-phase / 2)
            ).port_probs
            np.testing.assert_allclose(probs, base, atol=1e-12)

    def test_outcome_bookkeeping(self):
        """Port probabilities are a distribution; the inherent fraction is 1/2."""
        outcome = transfer(make_source_state(SourceConfig()), InterferometerConfig())
        assert outcome.port_probs.sum() == pytest.approx(1.0, abs=1e-9)
        assert outcome.franson_postselection_fraction == pytest.approx(0.5)

    @pytest.mark.parametrize("rows, want", [
        # row 1 has a negative entry and row 2 a bad sum, then the other way round
        ([[1.0 + 5e-11, -5e-11, 0.0, 0.0], [0.3] * 4], "negative port probability: -5.000e-11"),
        ([[0.3] * 4, [1.0 + 5e-11, -5e-11, 0.0, 0.0]], "port probabilities sum to 1.2, not 1"),
        # row 1 breaks both bounds, and its smallest entry is named
        ([[-0.5, 0.25, 0.25, 0.25], [0.3] * 4], "negative port probability: -5.000e-01"),
        ([[0.3, np.nan, 0.3, 0.3], [1.0 + 5e-11, -5e-11, 0.0, 0.0]],
         "negative port probability: nan"),
    ])
    def test_the_first_bad_row_raises(self, rows, want):
        """Of two bad rows, the first one's error is raised, whichever bound each breaks."""
        probs = np.array([[0.25] * 4] + rows)
        with pytest.raises(ValueError, match=f"^{want}$"):
            _check_ports(probs)
        assert _check_ports(probs[:1]) is not None


class TestPhaseJitter:
    def test_jitter_channel_damps_coherence(self):
        """Jitter acts as analytic phase damping."""
        sigma = 0.35
        state = make_source_state(SourceConfig())
        out = transfer(
            state, InterferometerConfig(phase_jitter_sigma=sigma)
        ).pol_out
        want = dephased_bell(np.exp(-sigma * sigma))
        np.testing.assert_allclose(out.data, want, atol=1e-12)

    def test_per_shot_jitter_averages_to_channel(self):
        """Runs at Gaussian-drawn phases average to the analytic damping."""
        sigma = 0.5
        state = make_source_state(SourceConfig())
        rng = np.random.default_rng(71)
        acc = np.zeros((4, 4), dtype=complex)
        shots = 2000
        for _ in range(shots):
            phase_a, phase_b = rng.normal(0.0, sigma, size=2)
            acc += transfer(state, InterferometerConfig(phase_a, phase_b)).pol_out.data
        acc /= shots
        want = dephased_bell(np.exp(-sigma * sigma))
        # Monte Carlo average: statistical tolerance only
        np.testing.assert_allclose(acc, want, atol=0.05)

    def test_zero_sigma_matches_noise_free(self):
        """Zero or vanishing jitter is exactly the deterministic stage."""
        state = make_source_state(SourceConfig())
        a = transfer(state, InterferometerConfig()).pol_out
        for sigma in (0.0, 1e-9):
            b = transfer(state, InterferometerConfig(phase_jitter_sigma=sigma)).pol_out
            np.testing.assert_allclose(a.data, b.data, atol=1e-14)


class TestBlocking:
    def test_blocking_halves_the_weight(self):
        """Both photons take a short arm with probability 1/2."""
        for v in (0.0, 0.5, 1.0):
            state = make_source_state(SourceConfig(franson_visibility=v))
            blocked = block_long_arms(state)
            assert blocked.weight == pytest.approx(0.5, abs=1e-12)

    def test_blocked_branch_keeps_polarization(self):
        """The surviving branch carries the input polarization state."""
        state = make_source_state(SourceConfig(balance_p=0.3))
        blocked = block_long_arms(state)
        np.testing.assert_allclose(
            blocked.pol_marginal().data, state.pol_marginal().data, atol=1e-12
        )

    def test_blocking_without_support_raises(self):
        """A state with no short-short component cannot be postselected."""
        pol = maximally_mixed(2)
        et = pure(np.array([0.0, 0.0, 0.0, 1.0]))
        with pytest.raises(PostselectionError):
            block_long_arms(hyperentangled_input(pol, et))


class TestFringe:
    def test_scan_matches_cosine(self):
        """Even-parity diagonal coincidences trace (1 + V cos(phi)) / 2."""
        v = 0.7
        state = make_source_state(SourceConfig(franson_visibility=v))
        phases = np.linspace(0.0, 2.0 * np.pi, 25)
        points = sum_phase_scan(state, InterferometerConfig(), phases)
        for phi, prob in points:
            assert prob == pytest.approx((1.0 + v * np.cos(phi)) / 2.0, abs=1e-12)

    def test_visibility_equals_source_coherence(self):
        """Fringe visibility reproduces the configured visibility."""
        phases = np.linspace(0.0, 2.0 * np.pi, 25)
        for v in (0.0, 0.5, 0.979, 1.0):
            state = make_source_state(SourceConfig(franson_visibility=v))
            points = sum_phase_scan(state, InterferometerConfig(), phases)
            assert fringe_visibility(points) == pytest.approx(v, abs=1e-10)

    def test_fringe_offset_by_source_phase(self):
        """A pump phase shifts the fringe horizontally."""
        v, phi0 = 1.0, 0.8
        state = make_source_state(SourceConfig(franson_visibility=v, sum_phase=phi0))
        points = sum_phase_scan(state, InterferometerConfig(), [0.0])
        assert points[0][1] == pytest.approx((1.0 + np.cos(phi0)) / 2.0, abs=1e-12)

    def test_fringe_immune_to_channel_noise(self):
        """Polarization scrambling does not reduce the fringe."""
        cfg = SourceConfig(pol_input="pure_VH", franson_visibility=0.979)
        clean = make_source_state(cfg)
        noisy = apply_noisy_channel(
            clean, NoisyChannelSpec((RotatingPlateStage("A", "half", 360),))
        )
        phases = np.linspace(0.0, 2.0 * np.pi, 9)
        pts_clean = sum_phase_scan(clean, InterferometerConfig(), phases)
        pts_noisy = sum_phase_scan(noisy, InterferometerConfig(), phases)
        np.testing.assert_allclose(
            [p for _, p in pts_clean], [p for _, p in pts_noisy], atol=1e-12
        )

    def test_scan_refuses_non_finite_phases(self):
        """A NaN or infinite scan phase is refused by name, not returned as NaN."""
        state = make_source_state(SourceConfig())
        for bad in (float("nan"), float("inf"), -float("inf")):
            with pytest.raises(ValueError, match="phase must be finite"):
                sum_phase_scan(state, InterferometerConfig(), [0.0, bad, 1.0])

    def test_visibility_input_validation(self):
        """Empty scans, dark scans and non-finite probabilities are rejected."""
        with pytest.raises(ValueError, match="empty"):
            fringe_visibility([])
        for points in ([(0.0, np.nan), (1.0, 0.5), (2.0, 0.2)],
                       [(0.0, 0.5), (1.0, np.nan), (2.0, 0.2)]):
            with pytest.raises(ValueError, match="fringe probability must be finite, got nan"):
                fringe_visibility(points)
        with pytest.raises(ValueError, match="no counts"):
            fringe_visibility([(0.0, 0.0), (1.0, 0.0)])


class TestInterferometerConfig:
    def test_rejects_window_wider_than_delay(self):
        """The coincidence window must resolve the arm delay."""
        with pytest.raises(ValueError, match="window"):
            InterferometerConfig(delta_t_ns=2.6, coincidence_window_ns=3.0)

    def test_rejects_nonpositive_geometry(self):
        """Delay and window must be positive; jitter nonnegative."""
        with pytest.raises(ValueError, match="delta_t"):
            InterferometerConfig(delta_t_ns=0.0)
        with pytest.raises(ValueError, match="jitter"):
            InterferometerConfig(phase_jitter_sigma=-0.1)
