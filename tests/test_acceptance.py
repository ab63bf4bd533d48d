"""End-to-end acceptance checks for the transfer-purification simulator.

Each test covers one acceptance criterion and prints a single PASS line
once its assertions hold (run with ``pytest tests/test_acceptance.py -v -s``
to see them). Tolerances are stated inline next to each check.
"""

import json
import time

import numpy as np
import pytest

from fransonsim.cli import (
    ExperimentConfig,
    SweepConfig,
    TomographyConfig,
    run_chsh_sweep,
    run_purification,
)
from fransonsim.optics import (
    NoisyChannelSpec,
    RotatingPlateStage,
    SourceConfig,
    apply_noisy_channel,
    hyperentangled_input,
    make_source_state,
)
from fransonsim.qcore import (
    DensityMatrix,
    PHI_PLUS_KET,
    concurrence,
    fidelity_to,
    purity,
    random_state,
    trace_distance,
)
from fransonsim.tomo import (
    chsh_value,
    mle_reconstruct,
    monte_carlo_metrics,
    simulate_counts,
)
from fransonsim.transfer import (
    InterferometerConfig,
    block_long_arms,
    fringe_visibility,
    sum_phase_scan,
    transfer,
)

V_CAL = 0.979
IDEAL_ET = DensityMatrix.pure(PHI_PLUS_KET)


def s_formula(p):
    return np.sqrt(2.0) * (1.0 + 2.0 * np.sqrt(p * (1.0 - p)))


def scrambler():
    return NoisyChannelSpec((RotatingPlateStage("A", "half", 360),))


class TestAcceptance:
    def test_criterion_1_swap_oracle(self):
        """Ideal-coherence transfer swaps polarization and path exactly."""
        t0 = time.perf_counter()
        cfg = InterferometerConfig()
        bell = DensityMatrix.pure(PHI_PLUS_KET)
        for seed in range(200):
            kind = "pure" if seed % 2 == 0 else "mixed"
            pol = random_state(2, kind=kind, seed=seed)
            outcome = transfer(hyperentangled_input(pol, IDEAL_ET), cfg)
            assert fidelity_to(outcome.pol_out, PHI_PLUS_KET) == pytest.approx(
                1.0, abs=1e-10
            )
            assert trace_distance(outcome.pol_out, bell) < 1e-10
            assert trace_distance(outcome.path_out, pol) < 1e-10
        elapsed = time.perf_counter() - t0
        assert elapsed < 5.0
        print(
            f"PASS criterion 1: swap exact to 1e-10 over 200 random inputs "
            f"({elapsed:.2f} s)"
        )

    def test_criterion_2_scrambled_input_matrices(self):
        """The rotating-plate channel reproduces the two mixed input states."""
        cases = {
            # scrambling arm A of |V,H> leaves 1/2(|HH><HH| + |VH><VH|)
            "pure_VH": np.diag([0.5, 0.0, 0.5, 0.0]).astype(complex),
            # scrambling arm A of |H,V> leaves 1/2(|HV><HV| + |VV><VV|)
            "pure_HV": np.diag([0.0, 0.5, 0.0, 0.5]).astype(complex),
        }
        for pol_input, want in cases.items():
            state = make_source_state(SourceConfig(pol_input=pol_input))
            noisy = apply_noisy_channel(state, scrambler())
            rho_in = block_long_arms(noisy).pol_marginal()
            np.testing.assert_allclose(rho_in.data, want, atol=1e-12)
            assert concurrence(rho_in) == pytest.approx(0.0, abs=1e-10)
        print(
            "PASS criterion 2: scrambled-arm inputs match the closed-form "
            "mixtures to 1e-12 with concurrence 0 to 1e-10"
        )

    def test_criterion_3_calibrated_transfer_metrics(self):
        """Calibrated visibility reproduces the headline output metrics."""
        gamma = (1.0 + V_CAL * V_CAL) / 2.0
        cfg = ExperimentConfig(
            source=SourceConfig(pol_input="pure_VH", franson_visibility=V_CAL),
            channel=scrambler(),
            tomography=TomographyConfig(
                pairs_per_setting=260_000, method="linear", n_mc_samples=10
            ),
            count_mode="analytic",
            seed=1,
        )
        report = run_purification(cfg)
        m_out = report.stages["tomography"]["output"]["metrics"]
        assert m_out["fidelity"] == pytest.approx(0.9895, abs=1e-9)
        assert m_out["concurrence"] == pytest.approx(0.979, abs=1e-9)
        assert m_out["purity"] == pytest.approx(gamma, abs=1e-9)

        # sampled mode at the experiment's pair budget, MLE reconstruction
        truth = transfer(
            apply_noisy_channel(make_source_state(cfg.source), cfg.channel),
            InterferometerConfig(),
        ).pol_out
        data = simulate_counts(truth, 260_000, seed=2)
        recon = mle_reconstruct(data)
        assert abs(fidelity_to(recon.rho, PHI_PLUS_KET) - 0.9895) < 0.005
        assert abs(concurrence(recon.rho) - 0.979) < 0.005
        assert abs(purity(recon.rho) - gamma) < 0.005

        # the report carries the model/measured gap note
        notes = report.stages["notes"]
        assert any("0.976" in note for note in notes)
        print(
            "PASS criterion 3: analytic F/C/purity match closed forms to 1e-9, "
            "sampled (2.6e5 pairs, MLE) within 0.005, gap note present"
        )

    def test_criterion_4_chsh_sweep(self):
        """Input S follows the tilted-Bell curve; output S is flat above 2."""
        t0 = time.perf_counter()
        p_values = (0.0, 0.1, 0.25, 0.4, 0.5)
        base = dict(
            source=SourceConfig(pol_input="bell_p", franson_visibility=V_CAL),
            channel=NoisyChannelSpec(()),
            sweep=SweepConfig("p", p_values),
            seed=4,
        )
        analytic = ExperimentConfig(
            tomography=TomographyConfig(
                pairs_per_setting=260_000, method="linear", n_mc_samples=10
            ),
            count_mode="analytic",
            **base,
        )
        s_out_expected = np.sqrt(2.0) * (1.0 + V_CAL)
        report = run_chsh_sweep(analytic)
        for row in report.stages["sweep_rows"]:
            assert row["s_in"] == pytest.approx(s_formula(row["p"]), abs=1e-9)
            assert row["s_out"] == pytest.approx(s_out_expected, abs=1e-9)

        sampled = ExperimentConfig(
            tomography=TomographyConfig(
                pairs_per_setting=20_000, method="linear", n_mc_samples=25
            ),
            count_mode="sampled",
            **base,
        )
        report = run_chsh_sweep(sampled)
        for row in report.stages["sweep_rows"]:
            assert row["s_out"] > 2.0
        elapsed = time.perf_counter() - t0
        assert elapsed < 30.0
        print(
            f"PASS criterion 4: S_in matches sqrt(2)(1+2 sqrt(p(1-p))) to 1e-9, "
            f"S_out = {s_out_expected:.4f} flat in p, sampled S_out > 2 "
            f"({elapsed:.1f} s)"
        )

    def test_criterion_5_fringe_visibility(self):
        """Scanned fringe contrast equals the configured coherence."""
        phases = np.linspace(0.0, 2.0 * np.pi, 25)
        for v in (0.0, 0.5, 0.979, 1.0):
            state = make_source_state(
                SourceConfig(pol_input="bell_p", franson_visibility=v)
            )
            points = sum_phase_scan(state, InterferometerConfig(), phases)
            assert fringe_visibility(points) == pytest.approx(v, abs=1e-10)
        print(
            "PASS criterion 5: fringe visibility equals configured V to 1e-10 "
            "for V in {0, 0.5, 0.979, 1}"
        )

    def test_criterion_6_tomography_consistency(self):
        """MLE is monotone, accurate at 1e4 pairs, and always physical."""
        truth = DensityMatrix.pure(PHI_PLUS_KET)
        good = 0
        for seed in range(100):
            data = simulate_counts(truth, 10_000, seed=seed)
            recon = mle_reconstruct(data)
            hist = np.asarray(recon.loglike_history)
            assert np.all(np.diff(hist) >= -1e-6 * np.abs(hist[:-1]))
            eigs = np.linalg.eigvalsh(recon.rho.data)
            assert eigs.min() > -1e-10
            assert abs(np.trace(recon.rho.data).real - 1.0) < 1e-10
            if fidelity_to(recon.rho, PHI_PLUS_KET) >= 0.98:
                good += 1
        assert good >= 95
        print(
            f"PASS criterion 6: MLE log-likelihood monotone, PSD/trace-1 to "
            f"1e-10, fidelity >= 0.98 in {good}/100 seeds at 1e4 pairs"
        )

    def test_criterion_7_bootstrap_scaling(self):
        """Bootstrap spread scales like 1/sqrt(pairs): ratio near 2 for 4x."""
        truth = transfer(
            make_source_state(
                SourceConfig(pol_input="bell_p", franson_visibility=V_CAL)
            ),
            InterferometerConfig(),
        ).pol_out
        pairs = 4_000
        sigmas = {pairs: [], 4 * pairs: []}
        for seed in range(20):
            for n in sigmas:
                data = simulate_counts(truth, n, seed=seed)
                report = monte_carlo_metrics(
                    data, n_samples=60, seed=seed + 500, method="linear"
                )
                sigmas[n].append(report.fidelity_sigma)
        ratio = np.mean(sigmas[pairs]) / np.mean(sigmas[4 * pairs])
        assert 1.7 <= ratio <= 2.3
        print(
            f"PASS criterion 7: sigma_F(N) / sigma_F(4N) = {ratio:.3f} "
            f"in [1.7, 2.3] over 20 seeds"
        )

    def test_criterion_8_determinism(self, tmp_path):
        """Same seed, same bytes; thread count changes nothing."""
        base = dict(
            source=SourceConfig(pol_input="bell_p"),
            channel=NoisyChannelSpec(()),
            tomography=TomographyConfig(
                pairs_per_setting=2_000, method="linear", n_mc_samples=15
            ),
            count_mode="sampled",
            sweep=SweepConfig("p", (0.0, 0.25, 0.5)),
            seed=12,
        )
        runs = {
            "first": ExperimentConfig(workers=1, **base),
            "second": ExperimentConfig(workers=1, **base),
            "threaded": ExperimentConfig(workers=4, **base),
        }
        payloads = {}
        for name, cfg in runs.items():
            out = tmp_path / name
            report = run_chsh_sweep(cfg, out)
            blob = report.as_dict()
            blob.pop("run")
            blob["config"].pop("workers")
            payloads[name] = (
                (out / "chsh_sweep.csv").read_bytes(),
                json.dumps(blob, sort_keys=True),
            )
        assert payloads["first"] == payloads["second"]
        assert payloads["first"] == payloads["threaded"]
        print(
            "PASS criterion 8: chsh-sweep CSV and report byte-identical across "
            "repeat runs and across 1 vs 4 workers"
        )

    def test_criterion_9_witness_sanity(self):
        """CHSH respects the classical and quantum bounds on random states."""
        rng = np.random.default_rng(90)
        for _ in range(500):
            terms = rng.integers(1, 5)
            weights = rng.dirichlet(np.ones(terms))
            rho = np.zeros((4, 4), dtype=complex)
            for w in weights:
                ka = rng.normal(size=2) + 1j * rng.normal(size=2)
                kb = rng.normal(size=2) + 1j * rng.normal(size=2)
                ket = np.kron(ka / np.linalg.norm(ka), kb / np.linalg.norm(kb))
                rho += w * np.outer(ket, ket.conj())
            assert abs(chsh_value(DensityMatrix(rho))) <= 2.0 + 1e-10
        for seed in range(500):
            rho = random_state(2, kind="mixed" if seed % 2 else "pure", seed=seed)
            assert abs(chsh_value(rho)) <= 2.0 * np.sqrt(2.0) + 1e-10
        print(
            "PASS criterion 9: 500 separable states obey |S| <= 2 and 500 "
            "physical states obey |S| <= 2 sqrt(2), both to 1e-10"
        )
