"""Measurement simulation, reconstruction, metrics, and CHSH checks."""

import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from fransonsim import tomo
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
    ChshAngles,
    CountData,
    DEFAULT_CHSH_ANGLES,
    MeasurementSetting,
    MetricsReport,
    PartySetting,
    analytic_counts,
    chsh_value,
    counts_from_csv,
    counts_to_csv,
    expected_probabilities,
    linear_inversion,
    mle_reconstruct,
    monte_carlo_metrics,
    projector,
    setting_projectors,
    simulate_counts,
    standard_settings,
)

SETTINGS = standard_settings()


def s_formula(p):
    # closed form for the tilted Bell ket at the default analyzer angles
    return np.sqrt(2.0) * (1.0 + 2.0 * np.sqrt(p * (1.0 - p)))


def tilted_bell(p):
    ket = np.array([np.sqrt(p), 0.0, 0.0, np.sqrt(1.0 - p)])
    return DensityMatrix.pure(ket)


def chsh_uncached(rho, angles=DEFAULT_CHSH_ANGLES):
    """CHSH value with the correlator operators rebuilt on every call."""

    def corr(ta, tb):
        op = np.kron(tomo._analyzer(ta), tomo._analyzer(tb))
        return float(np.einsum("ab,ba->", op, rho.data).real)

    return (
        corr(angles.alpha, angles.beta)
        - corr(angles.alpha, angles.beta_prime)
        + corr(angles.alpha_prime, angles.beta)
        + corr(angles.alpha_prime, angles.beta_prime)
    )


def linear_state_oracle(data):
    """Linear inversion of one count set, with the design rebuilt per call."""
    pis = setting_projectors(data.settings)
    design = pis.transpose(0, 2, 1).reshape(len(data.settings), 16)
    sol, *_ = np.linalg.lstsq(design, data.frequencies.astype(complex), rcond=None)
    raw = sol.reshape(4, 4)
    raw = 0.5 * (raw + raw.conj().T)
    eigvals, eigvecs = np.linalg.eigh(raw)
    eigvals = np.clip(eigvals, 0.0, None)
    return DensityMatrix((eigvecs * (eigvals / eigvals.sum())) @ eigvecs.conj().T)


def mle_oracle(data, tol=tomo.MLE_DEFAULT_TOL, max_iter=tomo.MLE_DEFAULT_MAX_ITER):
    """One RrhoR fit iterated alone with per-setting einsums: (rho, iterations, converged).

    The projectors enter unnormalised, which is the same map as the
    whitened one up to rounding for settings with sum_j Pi_j proportional
    to the identity, such as the standard 36. It stops when the trace
    distance between successive iterates drops to ``tol``. Within the
    first 200 iterations it is the iteration of ``tomo._mle_fits``; run
    long, it is the likelihood reference.
    """
    pis = setting_projectors(data.settings)
    rho = np.eye(4, dtype=complex) / 4.0
    probs = np.einsum("jab,ba->j", pis, rho).real
    for iterations in range(1, max_iter + 1):
        floored = np.clip(probs, tomo.PROBABILITY_FLOOR, None)
        r_op = np.einsum("j,jab->ab", data.frequencies / floored, pis)
        new = r_op @ rho @ r_op
        new = 0.5 * (new + new.conj().T)
        new /= new.trace().real
        delta = 0.5 * np.abs(np.linalg.eigvalsh(new - rho)).sum()
        rho = new
        probs = np.einsum("jab,ba->j", pis, rho).real
        if delta <= tol:
            return rho, iterations, True
    return rho, max_iter, False


def resamples(data, n_samples, seed):
    """The bootstrap's Poisson resamples of ``data``, in sample order."""
    out = []
    for s in range(n_samples):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(s,)))
        out.append(CountData(
            data.settings, rng.poisson(data.counts).astype(float), data.pairs_per_setting
        ))
    return out


def reject_second():
    """A DensityMatrix stand-in that refuses its second construction.

    In the bootstrap batch the first state built is row 0, the point fit,
    and the second is resample 0.
    """
    calls = []

    def build(matrix, *args, **kwargs):
        calls.append(1)
        if len(calls) == 2:
            raise ValueError("not a density matrix")
        return DensityMatrix(matrix, *args, **kwargs)

    return build


def metric_row(rho):
    return [fidelity_to(rho, PHI_PLUS_KET), concurrence(rho), purity(rho), chsh_uncached(rho)]


def linear_sigmas_oracle(data, n_samples, seed, skip=()):
    """Bootstrap sigmas from one linear inversion per resample, in sample order."""
    rows = [
        metric_row(linear_state_oracle(sample))
        for s, sample in enumerate(resamples(data, n_samples, seed))
        if s not in skip
    ]
    return np.std(np.stack(rows), axis=0, ddof=1)


def mle_sigmas_oracle(data, n_samples, seed, max_iter, skip=()):
    """Bootstrap sigmas and non-converged count from one MLE oracle fit per resample."""
    fits = [
        mle_oracle(sample, max_iter=max_iter)
        for s, sample in enumerate(resamples(data, n_samples, seed))
        if s not in skip
    ]
    rows = [metric_row(DensityMatrix(rho)) for rho, _, _ in fits]
    return np.std(np.stack(rows), axis=0, ddof=1), [ok for _, _, ok in fits].count(False)


def neg_loglike(data, rho):
    """-sum_j f_j log p_j over the settings with counts, f_j the frequencies."""
    probs = expected_probabilities(rho, data.settings)
    seen = data.counts > 0
    return -np.sum(data.frequencies[seen] * np.log(probs[seen]))


def sigmas(report):
    return np.array([
        report.fidelity_sigma, report.concurrence_sigma,
        report.purity_sigma, report.s_value_sigma,
    ])


class TestProjectors:
    def test_single_party_eigenstates(self):
        """The six analyzer settings project onto the expected states."""
        cases = {
            (0.0, False): np.diag([1.0, 0.0]),
            (np.pi / 2, False): np.diag([0.0, 1.0]),
            (np.pi / 4, False): np.full((2, 2), 0.5),
            (3 * np.pi / 4, False): np.array([[0.5, -0.5], [-0.5, 0.5]]),
            (np.pi / 4, True): np.array([[0.5, 0.5j], [-0.5j, 0.5]]),
            (3 * np.pi / 4, True): np.array([[0.5, -0.5j], [0.5j, 0.5]]),
        }
        for (theta, qwp), want in cases.items():
            setting = MeasurementSetting(
                PartySetting(theta, qwp_in=qwp), PartySetting(0.0)
            )
            np.testing.assert_allclose(projector(setting, "A"), want, atol=1e-12)

    def test_projectors_are_rank_one(self):
        """Each analyzer projector is idempotent with unit trace."""
        rng = np.random.default_rng(79)
        for _ in range(100):
            setting = MeasurementSetting(
                PartySetting(rng.uniform(0, np.pi), rng.uniform() < 0.5,
                             rng.uniform(0, np.pi)),
                PartySetting(0.0),
            )
            pi = projector(setting, "A")
            np.testing.assert_allclose(pi @ pi, pi, atol=1e-12)
            assert np.trace(pi).real == pytest.approx(1.0, abs=1e-12)

    def test_standard_settings_layout(self):
        """36 pairwise settings, ordered with party B fastest."""
        assert len(SETTINGS) == 36
        first = SETTINGS[0]
        assert first.party_a.polarizer_angle == pytest.approx(0.0)
        assert first.party_b.polarizer_angle == pytest.approx(0.0)
        # setting 1 changes party B only
        second = SETTINGS[1]
        assert second.party_a.polarizer_angle == pytest.approx(0.0)
        assert second.party_b.polarizer_angle != pytest.approx(0.0)

    def test_design_matrix_has_full_rank(self):
        """The 36 joint projectors span the full operator space."""
        pis = setting_projectors(SETTINGS)
        design = pis.reshape(36, 16)
        assert np.linalg.matrix_rank(design, tol=1e-10) == 16

    def test_cached_design_matches_a_fresh_build(self):
        """The memoised projector stack equals a fresh build and is read-only."""
        design = tomo._design(tuple(SETTINGS))
        fresh = setting_projectors(SETTINGS)
        np.testing.assert_array_equal(design.projectors, fresh)
        np.testing.assert_array_equal(
            design.matrix, fresh.transpose(0, 2, 1).reshape(36, 16)
        )
        assert design.spans
        # memoised by value: a rebuilt settings tuple finds the same design
        assert tomo._design(tuple(standard_settings())) is design
        for arr in (design.projectors, design.matrix):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0, 0] = 1.0

    def test_design_is_not_built_at_import(self):
        """Importing the package builds no projectors."""
        code = (
            "import fransonsim.tomo as t; "
            "print(t._design.cache_info().currsize, t._chsh_operators.cache_info().currsize)"
        )
        # the child imports this checkout's package, not an installed one
        src = str(Path(tomo.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert out.stdout.split() == ["0", "0"]

    def test_expected_probabilities_sum_within_bases(self):
        """The four projectors of one local basis pair resolve identity."""
        rho = random_state(2, kind="mixed", seed=5)
        probs = expected_probabilities(rho, SETTINGS)
        # H/V x H/V: settings (H,H), (H,V), (V,H), (V,V)
        idx = [0, 1, 6, 7]
        assert sum(probs[i] for i in idx) == pytest.approx(1.0, abs=1e-10)


class TestCounting:
    def test_analytic_counts_are_exact_expectations(self):
        """Analytic mode stores pairs x probability with no rounding."""
        rho = tilted_bell(0.3)
        data = analytic_counts(rho, SETTINGS, 1000)
        np.testing.assert_allclose(
            data.counts, 1000.0 * expected_probabilities(rho, SETTINGS), atol=1e-12
        )

    def test_sampled_counts_match_poisson_moments(self):
        """Sampled counts track the expected mean within five sigma."""
        rho = tilted_bell(0.5)
        pairs = 1_000_000
        data = simulate_counts(rho, SETTINGS, pairs, seed=3)
        means = pairs * expected_probabilities(rho, SETTINGS)
        for count, mean in zip(data.counts, means):
            if mean > 0:
                assert abs(count - mean) < 5.0 * np.sqrt(mean) + 5.0

    def test_same_seed_reproduces_counts(self):
        """Counting is deterministic in the seed."""
        rho = tilted_bell(0.4)
        a = simulate_counts(rho, SETTINGS, 10_000, seed=11)
        b = simulate_counts(rho, SETTINGS, 10_000, seed=11)
        c = simulate_counts(rho, SETTINGS, 10_000, seed=12)
        np.testing.assert_array_equal(a.counts, b.counts)
        assert not np.array_equal(a.counts, c.counts)

    def test_count_data_validation(self):
        """Negative counts and length mismatches are refused."""
        with pytest.raises(ValueError, match="negative"):
            CountData(SETTINGS, np.full(36, -1.0), 100)
        with pytest.raises(ValueError, match="36"):
            CountData(SETTINGS, np.ones(35), 100)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_counts_are_refused(self, bad, tmp_path):
        """A NaN or infinite count is refused by name, directly or from CSV."""
        counts = np.ones(36)
        counts[5] = bad
        with pytest.raises(ValueError, match="non-finite count"):
            CountData(SETTINGS, counts, 100)
        path = tmp_path / "counts.csv"
        counts_to_csv(CountData(SETTINGS, np.ones(36), 100), path)
        lines = path.read_text().splitlines()
        lines[6] = lines[6].rsplit(",", 1)[0] + f",{bad}"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="non-finite count"):
            counts_from_csv(path, pairs_per_setting=100)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_angles_are_refused(self, bad, tmp_path):
        """A NaN or infinite analyzer angle is refused by name, directly or from CSV."""
        with pytest.raises(ValueError, match="polarizer_angle must be finite"):
            PartySetting(bad)
        with pytest.raises(ValueError, match="qwp_angle must be finite"):
            PartySetting(0.0, qwp_in=True, qwp_angle=bad)
        path = tmp_path / "counts.csv"
        counts_to_csv(CountData(SETTINGS, np.ones(36), 100), path)
        lines = path.read_text().splitlines()
        cols = lines[3].split(",")
        cols[1] = f"{bad}"  # theta_a
        lines[3] = ",".join(cols)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="polarizer_angle must be finite"):
            counts_from_csv(path, pairs_per_setting=100)

    def test_csv_round_trip(self):
        """Counts and settings survive the CSV format."""
        rho = tilted_bell(0.2)
        data = simulate_counts(rho, SETTINGS, 5_000, seed=17)
        path = "/tmp/fransonsim_counts_test.csv"
        counts_to_csv(data, path)
        again = counts_from_csv(path, pairs_per_setting=5_000)
        np.testing.assert_array_equal(again.counts, data.counts)
        # angles are stored in degrees to six decimals
        for s1, s2 in zip(data.settings, again.settings):
            assert s1.party_a.polarizer_angle == pytest.approx(
                s2.party_a.polarizer_angle, abs=1e-7
            )
            assert s1.party_a.qwp_in == s2.party_a.qwp_in
            assert s1.party_b.qwp_in == s2.party_b.qwp_in


    def test_nonstandard_settings_from_csv_reconstruct(self, tmp_path):
        """Counts for a rotated analyzer frame read back from CSV still invert."""
        # every analyzer turned by 10 deg: still six balanced basis states per photon
        turn = np.radians(10.0)
        singles = [
            PartySetting(ps.polarizer_angle + turn, ps.qwp_in, ps.qwp_angle + turn)
            for ps in tomo._eigenstate_settings()
        ]
        settings = [MeasurementSetting(a, b) for a in singles for b in singles]
        rho = random_state(2, kind="mixed", seed=8)
        path = tmp_path / "counts.csv"
        counts_to_csv(analytic_counts(rho, settings, 100_000), path)
        data = counts_from_csv(path, pairs_per_setting=100_000)
        # the degree round trip moves the angles by an ulp, so they are new cache keys
        assert data.settings != tuple(settings)
        design = tomo._design(data.settings)
        np.testing.assert_array_equal(design.projectors, setting_projectors(data.settings))
        assert trace_distance(linear_inversion(data).rho, rho) < 1e-6
        assert trace_distance(mle_reconstruct(data).rho, rho) < 1e-4
        sampled = simulate_counts(rho, data.settings, 5_000, seed=2)
        report = monte_carlo_metrics(sampled, n_samples=20, seed=3, method="linear")
        assert report.n_failed == 0
        np.testing.assert_array_equal(
            sigmas(report), linear_sigmas_oracle(sampled, 20, 3)
        )


class TestLinearInversion:
    def test_exact_on_noiseless_data(self):
        """Linear inversion inverts analytic counts exactly, 100 seeds."""
        for seed in range(100):
            rho = random_state(2, kind="mixed", seed=seed)
            data = analytic_counts(rho, SETTINGS, 10_000)
            recon = linear_inversion(data)
            assert trace_distance(recon.rho, rho) < 1e-9

    def test_projects_noisy_estimates_to_physical(self):
        """Sampled-count reconstructions remain valid density matrices."""
        rho = tilted_bell(0.5)
        for seed in range(20):
            data = simulate_counts(rho, SETTINGS, 500, seed=seed)
            recon = linear_inversion(data)
            eigs = np.linalg.eigvalsh(recon.rho.data)
            assert eigs.min() > -1e-10
            assert np.trace(recon.rho.data).real == pytest.approx(1.0, abs=1e-10)

    def test_matches_the_per_call_oracle_bitwise(self):
        """The batched helper at B=1 gives the per-call state bit for bit."""
        rho = tilted_bell(0.3)
        for seed in range(10):
            data = simulate_counts(rho, SETTINGS, 1_000, seed=seed)
            np.testing.assert_array_equal(
                linear_inversion(data).rho.data, linear_state_oracle(data).data
            )

    def test_batch_rows_match_one_row_fits(self):
        """Each batch row is its one-row fit: the state bit for bit, log L to rounding."""
        datas = [simulate_counts(tilted_bell(0.3), SETTINGS, 1_000, seed=s) for s in range(5)]
        fits = tomo._linear_fits(tuple(SETTINGS), np.stack([d.counts for d in datas]), 1_000)
        for data, fit in zip(datas, fits):
            alone = linear_inversion(data)
            np.testing.assert_array_equal(fit.rho.data, alone.rho.data)
            assert (fit.floor_hits, fit.loglike_history) == (0, (fit.loglike,))
            want = -data.pairs_per_setting * neg_loglike(data, fit.rho)
            assert fit.loglike == pytest.approx(want, rel=1e-12)
            assert alone.loglike == pytest.approx(want, rel=1e-12)

    def test_batch_keeps_failed_rows_in_place(self):
        """A row that collapses to zero is reported as its error; others still fit."""
        good = simulate_counts(tilted_bell(0.5), SETTINGS, 1_000, seed=1).counts
        counts = np.stack([good, np.zeros(36), good])
        fits = tomo._linear_fits(tuple(SETTINGS), counts, 1_000)
        assert isinstance(fits[1], ValueError)
        assert "collapsed" in str(fits[1])
        for k in (0, 2):
            assert isinstance(fits[k], tomo.ReconstructionResult)
        np.testing.assert_array_equal(fits[0].rho.data, fits[2].rho.data)
        assert fits[0].loglike == fits[2].loglike

    def test_rejects_rank_deficient_designs(self):
        """A degenerate setting list cannot be inverted."""
        settings = tuple(SETTINGS[:1]) * 36
        data = CountData(settings, np.ones(36), 100)
        with pytest.raises(ValueError, match="span"):
            linear_inversion(data)

    def test_degenerate_designs_refuse_the_whole_batch(self):
        """Settings that cannot determine a state raise at once, for every row together."""
        settings = tuple(SETTINGS[:1]) * 36
        with pytest.raises(ValueError, match="span"):
            tomo._linear_fits(settings, np.ones((3, 36)), 100)
        with pytest.raises(ValueError, match="singular"):
            tomo._mle_fits(settings, np.ones((3, 36)), 100)


class TestMle:
    def test_loglike_never_decreases(self):
        """Fixed-point iterations monotonically improve the likelihood."""
        rho = tilted_bell(0.5)
        for seed in range(20):
            data = simulate_counts(rho, SETTINGS, 2_000, seed=seed)
            recon = mle_reconstruct(data)
            hist = np.asarray(recon.loglike_history)
            assert hist.size >= 2
            # allow only float-roundoff backsliding
            assert np.all(np.diff(hist) >= -1e-6 * np.abs(hist[:-1]))

    def test_converges_on_well_conditioned_data(self):
        """Convergence flag and iteration budget behave as documented."""
        rho = tilted_bell(0.5)
        data = simulate_counts(rho, SETTINGS, 10_000, seed=2)
        recon = mle_reconstruct(data)
        assert recon.converged
        assert 0 < recon.iterations <= 10_000
        assert recon.method == "mle"

    def test_estimate_improves_with_pairs(self):
        """Median distance to the truth shrinks as counts grow."""
        rho = tilted_bell(0.5)
        medians = []
        for pairs in (1_000, 10_000, 100_000):
            dists = []
            for seed in range(9):
                data = simulate_counts(rho, SETTINGS, pairs, seed=seed)
                dists.append(trace_distance(mle_reconstruct(data).rho, rho))
            medians.append(np.median(dists))
        assert medians[0] > medians[1] > medians[2]

    def test_estimates_are_physical(self):
        """MLE output is PSD with unit trace."""
        rho = tilted_bell(0.3)
        for seed in range(10):
            data = simulate_counts(rho, SETTINGS, 3_000, seed=seed)
            recon = mle_reconstruct(data)
            assert np.linalg.eigvalsh(recon.rho.data).min() > -1e-10
            assert np.trace(recon.rho.data).real == pytest.approx(1.0, abs=1e-10)

    def test_iteration_budget_is_respected(self):
        """A tiny budget stops early and reports non-convergence."""
        rho = tilted_bell(0.5)
        data = simulate_counts(rho, SETTINGS, 2_000, seed=1)
        recon = mle_reconstruct(data, max_iter=3)
        assert recon.iterations == 3
        assert not recon.converged

    def test_nonstandard_settings_reach_the_truth(self):
        """Projectors summing to H != c*I still lead the fit to the state."""
        rng = np.random.default_rng(0)
        singles_a, singles_b = (
            [PartySetting(rng.uniform(0, np.pi), True, rng.uniform(0, np.pi)) for _ in range(6)]
            for _ in range(2)
        )
        settings = [MeasurementSetting(a, b) for a in singles_a for b in singles_b]
        eigs = np.linalg.eigvalsh(setting_projectors(settings).sum(axis=0))
        assert eigs[-1] > 4.0 * eigs[0]
        rho = random_state(2, kind="mixed", seed=3)
        data = analytic_counts(rho, settings, 100_000)
        assert trace_distance(mle_reconstruct(data).rho, rho) < 1e-3
        # a fit that reports convergence is as close as that
        recon = mle_reconstruct(data, tol=1e-8)
        assert recon.converged
        assert trace_distance(recon.rho, rho) < 1e-3
        # a certified gap of 1e-6 must also put the fit close to the truth
        recon = mle_reconstruct(data, tol=1e-6)
        assert recon.converged
        assert trace_distance(recon.rho, rho) < 2e-4

    def test_standard_normalised_operators_are_scaled_projectors(self):
        """For the 36 standard settings H = 9 I, so the normalised stack is Pi_j / 9."""
        design = tomo._design(tuple(SETTINGS))
        np.testing.assert_allclose(
            design.normalised, design.projectors.reshape(36, 16) / 9.0, rtol=0, atol=1e-15
        )
        assert not design.normalised.flags.writeable

    def test_singular_projector_sum_is_refused(self):
        """Settings that never probe part of the state space cannot be fitted."""
        data = CountData(tuple(SETTINGS[:1]) * 36, np.ones(36), 100)
        with pytest.raises(ValueError, match="singular"):
            mle_reconstruct(data)

    def test_batched_fits_match_the_per_sample_oracle(self):
        """Each batch row stops on its own step, as if it were fitted alone."""
        rows = [simulate_counts(tilted_bell(0.5), SETTINGS, 3_000, seed=s) for s in (0, 1)]
        rows += [simulate_counts(tilted_bell(0.3), SETTINGS, 3_000, seed=s) for s in (0, 1, 3)]
        counts = np.stack([d.counts for d in rows])
        short, full = (
            tomo._mle_fits(tuple(SETTINGS), counts, 3_000, max_iter=budget)
            for budget in (220, 1_000)
        )
        for budget, fits in ((220, short), (1_000, full)):
            for row, fit in zip(counts, fits):
                [alone] = tomo._mle_fits(tuple(SETTINGS), row[None], 3_000, max_iter=budget)
                assert (fit.iterations, fit.converged) == (alone.iterations, alone.converged)
                np.testing.assert_allclose(fit.rho.data, alone.rho.data, rtol=0, atol=1e-12)
                assert fit.loglike_history == ()
        # two rows certify in the RrhoR phase; three need Newton steps, and
        # stop at the shorter budget without a certificate
        assert [f.iterations for f in short[:2]] == [f.iterations for f in full[:2]]
        assert all(f.iterations < 200 for f in full[:2])
        assert [(f.iterations, f.converged) for f in short[2:]] == [(220, False)] * 3
        assert all(f.converged and 220 < f.iterations < 1_000 for f in full[2:])

    def test_fits_reach_the_likelihood_of_a_long_oracle_run(self):
        """No fit's -log L exceeds the RrhoR oracle's after 50 000 iterations by more than tol."""
        rows = [simulate_counts(tilted_bell(0.5), SETTINGS, 3_000, seed=s) for s in (0, 1)]
        rows += [simulate_counts(tilted_bell(0.3), SETTINGS, 3_000, seed=s) for s in (0, 1, 3)]
        rows += [simulate_counts(tilted_bell(0.1), SETTINGS, 260_000, seed=1)]
        for data in rows:
            fit = mle_reconstruct(data)
            rho, _, _ = mle_oracle(data, max_iter=50_000)
            assert fit.converged
            assert neg_loglike(data, fit.rho) <= (
                neg_loglike(data, DensityMatrix(rho)) + tomo.MLE_DEFAULT_TOL
            )

    def test_nearly_pure_states_converge(self):
        """Tilted Bell p = 0.1 at 2.6e7 pairs per setting certifies within 400 iterations."""
        for seed in range(3):
            data = simulate_counts(tilted_bell(0.1), SETTINGS, 26_000_000, seed=seed)
            fit = mle_reconstruct(data)
            assert fit.converged
            assert fit.iterations <= 400

    def test_converged_exactly_when_the_gap_is_within_tol(self):
        """The convergence flag is the certificate gap <= tol, at any budget."""
        rows = [simulate_counts(tilted_bell(p), SETTINGS, 3_000, seed=1) for p in (0.5, 0.3)]
        counts = np.stack([d.counts for d in rows])
        flags = []
        for tol, budget in ((1e-10, 3), (1e-10, 220), (1e-10, 10_000), (1e-6, 10_000)):
            for fit in tomo._mle_fits(tuple(SETTINGS), counts, 3_000, tol=tol, max_iter=budget):
                assert fit.converged == (fit.gap <= tol)
                flags.append(fit.converged)
        assert True in flags and False in flags
        assert linear_inversion(rows[0]).gap == 0.0

    def test_zero_rows_are_refused_before_the_batch(self, monkeypatch):
        """A row of zeros is refused by name; the other rows stay one batch."""
        good = simulate_counts(tilted_bell(0.5), SETTINGS, 3_000, seed=1).counts
        [alone] = tomo._mle_fits(tuple(SETTINGS), good[None], 3_000)
        batches = []
        real = tomo._fit_batch

        def spy(design, counts, *args):
            batches.append(len(counts))
            return real(design, counts, *args)

        monkeypatch.setattr(tomo, "_fit_batch", spy)
        empty, fit = tomo._mle_fits(tuple(SETTINGS), np.stack([np.zeros(36), good]), 3_000)
        assert batches == [1]
        assert isinstance(empty, ValueError) and "all zero" in str(empty)
        assert (fit.iterations, fit.converged, fit.loglike) == (
            alone.iterations, alone.converged, alone.loglike
        )
        np.testing.assert_array_equal(fit.rho.data, alone.rho.data)

    def test_all_zero_counts_are_refused(self):
        """Both MLE entry points say why they cannot fit counts that are all zero."""
        data = CountData(tuple(SETTINGS), np.zeros(36), 100)
        with pytest.raises(ValueError, match="all zero"):
            mle_reconstruct(data)
        # a failed point fit (row 0 of the batch) is raised, not counted
        with pytest.raises(ValueError, match="all zero"):
            monte_carlo_metrics(data, n_samples=10, method="mle")

    def test_parameter_validation(self):
        """Non-positive tolerances and budgets are refused."""
        rho = tilted_bell(0.5)
        data = analytic_counts(rho, SETTINGS, 100)
        with pytest.raises(ValueError, match="tol"):
            mle_reconstruct(data, tol=0.0)
        with pytest.raises(ValueError, match="max_iter"):
            mle_reconstruct(data, max_iter=0)


class TestChsh:
    def test_tilted_bell_closed_form(self):
        """S follows sqrt(2)(1 + 2 sqrt(p(1-p))) at the default angles."""
        for p in (0.0, 0.1, 0.25, 0.4, 0.5):
            assert chsh_value(tilted_bell(p)) == pytest.approx(
                s_formula(p), abs=1e-10
            )

    def test_dephased_bell_scales_with_visibility(self):
        """Dephasing the Bell state scales S to sqrt(2)(1 + V)."""
        for v in (0.0, 0.5, 0.979, 1.0):
            bell = np.outer(PHI_PLUS_KET, PHI_PLUS_KET)
            rho = DensityMatrix(
                v * bell + (1.0 - v) * np.diag([0.5, 0.0, 0.0, 0.5])
            )
            assert chsh_value(rho) == pytest.approx(
                np.sqrt(2.0) * (1.0 + v), abs=1e-10
            )

    def test_separable_states_respect_classical_bound(self):
        """Random separable mixtures stay below |S| = 2."""
        rng = np.random.default_rng(83)
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

    def test_all_states_respect_quantum_bound(self):
        """No physical state exceeds 2 sqrt(2)."""
        for seed in range(1000):
            rho = random_state(2, kind="mixed" if seed % 2 else "pure", seed=seed)
            assert abs(chsh_value(rho)) <= 2.0 * np.sqrt(2.0) + 1e-10

    def test_custom_angles(self):
        """Explicit default angles reproduce the default result."""
        rho = tilted_bell(0.5)
        angles = ChshAngles(0.0, np.pi / 4, np.pi / 8, 3 * np.pi / 8)
        assert chsh_value(rho, angles) == pytest.approx(chsh_value(rho), abs=1e-12)
        assert DEFAULT_CHSH_ANGLES.alpha == pytest.approx(0.0)

    @pytest.mark.parametrize(
        "angles", [DEFAULT_CHSH_ANGLES, ChshAngles(0.1, 0.7, 0.3, 1.1)]
    )
    def test_cached_operators_match_uncached_value(self, angles):
        """The cached correlators give the rebuilt-per-call value bit for bit."""
        for seed in range(50):
            rho = random_state(2, kind="mixed" if seed % 2 else "pure", seed=seed)
            assert chsh_value(rho, angles) == chsh_uncached(rho, angles)
            assert chsh_value(rho, angles) == chsh_uncached(rho, angles)

    def test_misaligned_angles_lose_violation(self):
        """Measuring along a single shared axis cannot violate the bound."""
        rho = tilted_bell(0.5)
        aligned = ChshAngles(0.0, 0.0, 0.0, 0.0)
        assert abs(chsh_value(rho, aligned)) <= 2.0 + 1e-10


class TestMonteCarloMetrics:
    def test_analytic_mode_has_zero_sigma(self):
        """Without resampling the spread collapses to exactly zero."""
        rho = tilted_bell(0.5)
        data = analytic_counts(rho, SETTINGS, 10_000)
        report = monte_carlo_metrics(
            data, n_samples=10, seed=0, method="linear", resample=False
        )
        assert report.fidelity_sigma == 0.0
        assert report.concurrence_sigma == 0.0
        assert report.purity_sigma == 0.0
        assert report.s_value_sigma == 0.0
        assert report.fidelity == pytest.approx(1.0, abs=1e-9)

    def test_sampled_mode_reports_spread(self):
        """Poisson resampling produces a nonzero, finite spread."""
        rho = tilted_bell(0.5)
        data = simulate_counts(rho, SETTINGS, 2_000, seed=7)
        report = monte_carlo_metrics(data, n_samples=40, seed=1, method="linear")
        assert report.fidelity_sigma > 0.0
        assert report.s_value_sigma > 0.0
        assert report.n_samples == 40
        assert report.n_failed == 0

    def test_point_values_come_from_original_counts(self):
        """The point fit is row 0 of the batch: the one-row fit of the original counts."""
        data = simulate_counts(tilted_bell(0.5), SETTINGS, 2_000, seed=9)
        report = monte_carlo_metrics(data, n_samples=20, seed=1, method="linear")
        recon = linear_inversion(data)
        np.testing.assert_array_equal(report.point_fit.rho.data, recon.rho.data)
        assert report.fidelity == fidelity_to(recon.rho, PHI_PLUS_KET)
        report = monte_carlo_metrics(data, n_samples=20, seed=1, method="mle")
        recon = mle_reconstruct(data)
        fit = report.point_fit
        assert (fit.iterations, fit.converged) == (recon.iterations, recon.converged)
        np.testing.assert_allclose(fit.rho.data, recon.rho.data, rtol=0, atol=1e-12)
        assert report.fidelity == pytest.approx(
            fidelity_to(recon.rho, PHI_PLUS_KET), abs=1e-12
        )
        # the point fit stays out of the serialized report and of equality
        assert "point_fit" not in report.as_dict()
        assert report == replace(report, point_fit=None)

    def test_seed_determinism(self):
        """The bootstrap is reproducible from its seed."""
        rho = tilted_bell(0.5)
        data = simulate_counts(rho, SETTINGS, 2_000, seed=5)
        a = monte_carlo_metrics(data, n_samples=20, seed=4, method="linear")
        b = monte_carlo_metrics(data, n_samples=20, seed=4, method="linear")
        assert a.fidelity_sigma == b.fidelity_sigma
        assert a.s_value == b.s_value

    def test_too_few_samples_rejected(self):
        """Fewer than 10 bootstrap samples is a configuration error."""
        rho = tilted_bell(0.5)
        data = analytic_counts(rho, SETTINGS, 100)
        with pytest.raises(ValueError, match="n_samples"):
            monte_carlo_metrics(data, n_samples=5, seed=0, method="linear")

    def test_pervasive_failures_raise(self):
        """If most bootstrap samples fail, the run aborts loudly."""
        # valid point estimate at the 50 * pairs_per_setting count ceiling,
        # but nearly every Poisson resample exceeds it somewhere
        data = CountData(tuple(SETTINGS), np.full(36, 50.0), 1)
        linear_inversion(data)
        with pytest.raises(RuntimeError, match="10/10"):
            monte_carlo_metrics(data, n_samples=10, seed=0, method="linear")

    @pytest.mark.parametrize("n_samples", [10, 23, 100])
    def test_batched_sigmas_match_per_sample_loop(self, n_samples):
        """The batched linear bootstrap equals one inversion per resample, bitwise."""
        for seed in (0, 1, 17):
            data = simulate_counts(tilted_bell(0.4), SETTINGS, 3_000, seed=seed + 5)
            report = monte_carlo_metrics(data, n_samples=n_samples, seed=seed, method="linear")
            assert report.n_failed == 0
            np.testing.assert_array_equal(
                sigmas(report), linear_sigmas_oracle(data, n_samples, seed)
            )

    def test_batch_solver_failure_falls_back_per_sample(self, monkeypatch):
        """A LinAlgError from the batched solve retries the samples one by one."""
        data = simulate_counts(tilted_bell(0.5), SETTINGS, 2_000, seed=3)
        want = monte_carlo_metrics(data, n_samples=20, seed=2, method="linear")
        real = np.linalg.lstsq

        def batch_fails(a, b, rcond=None):
            if b.ndim == 2 and b.shape[1] > 1:
                raise np.linalg.LinAlgError("SVD did not converge")
            return real(a, b, rcond=rcond)

        monkeypatch.setattr(np.linalg, "lstsq", batch_fails)
        got = monte_carlo_metrics(data, n_samples=20, seed=2, method="linear")
        assert got == want

    def test_solver_failures_are_counted_not_raised(self, monkeypatch):
        """If every resample's solve fails, the report aborts on the failure count."""
        data = simulate_counts(tilted_bell(0.5), SETTINGS, 2_000, seed=3)
        real = np.linalg.lstsq

        def fails_but_the_point(a, b, rcond=None):
            if b.shape[1] == 1 and np.array_equal(b[:, 0], data.frequencies):
                return real(a, b, rcond=rcond)
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "lstsq", fails_but_the_point)
        with pytest.raises(RuntimeError, match="20/20"):
            monte_carlo_metrics(data, n_samples=20, seed=2, method="linear")

    def test_invalid_sample_state_is_dropped_and_counted(self, monkeypatch):
        """A resample whose state fails validation counts in n_failed."""
        data = simulate_counts(tilted_bell(0.5), SETTINGS, 2_000, seed=3)
        monkeypatch.setattr(tomo, "DensityMatrix", reject_second())
        report = monte_carlo_metrics(data, n_samples=20, seed=2, method="linear")
        assert report.n_failed == 1
        np.testing.assert_array_equal(
            sigmas(report), linear_sigmas_oracle(data, 20, 2, skip=(0,))
        )

    @pytest.mark.parametrize("method", ["linear", "mle"])
    def test_nan_fitted_state_is_dropped_and_counted(self, monkeypatch, method):
        """A resample whose fitted state has NaN entries is refused and counted in n_failed."""
        data = simulate_counts(tilted_bell(0.5), SETTINGS, 2_000, seed=3)
        opts = dict(n_samples=20, seed=2, method=method)
        monkeypatch.setattr(tomo, "DensityMatrix", reject_second())
        want = monte_carlo_metrics(data, **opts)
        calls = []

        def nan_second(matrix, *args, **kwargs):
            calls.append(1)
            if len(calls) == 2:
                # eigvalsh returns on this matrix instead of failing, so only
                # an explicit finiteness check can refuse it
                matrix = np.eye(4, dtype=complex) / 4.0
                matrix[0, 1] = matrix[1, 0] = np.nan
            return DensityMatrix(matrix, *args, **kwargs)

        monkeypatch.setattr(tomo, "DensityMatrix", nan_second)
        got = monte_carlo_metrics(data, **opts)
        assert got.n_failed == 1
        assert got == want

    def test_mle_bootstrap_matches_the_per_sample_oracle(self):
        """The batched MLE bootstrap equals one fit per resample, each fitted alone."""
        data = simulate_counts(tilted_bell(0.3), SETTINGS, 3_000, seed=4)
        report = monte_carlo_metrics(data, n_samples=12, seed=2, method="mle", max_iter=220)
        fits = [mle_reconstruct(sample, max_iter=220) for sample in resamples(data, 12, 2)]
        want = np.std(np.stack([metric_row(fit.rho) for fit in fits]), axis=0, ddof=1)
        # the states agree to about 1e-13; concurrence takes square roots of
        # near-zero eigenvalues, which lifts that in its sigma
        np.testing.assert_allclose(sigmas(report), want, rtol=1e-6)
        assert report.n_failed == 0
        nonconverged = [fit.converged for fit in fits].count(False)
        assert report.n_nonconverged == nonconverged
        assert 0 < nonconverged < 12

    def test_nonconverged_fits_are_counted_apart_from_failures(self):
        """Fits stopped by max_iter stay in the sigmas and count in n_nonconverged."""
        data = simulate_counts(tilted_bell(0.5), SETTINGS, 2_000, seed=3)
        report = monte_carlo_metrics(data, n_samples=10, seed=1, method="mle", max_iter=3)
        assert report.n_nonconverged == 10
        assert report.n_failed == 0
        assert report.as_dict()["n_nonconverged"] == 10
        want, _ = mle_sigmas_oracle(data, 10, 1, max_iter=3)
        np.testing.assert_allclose(sigmas(report), want, rtol=1e-6)

    def test_invalid_mle_sample_state_is_dropped_and_counted(self, monkeypatch):
        """An MLE row failing validation counts in n_failed, not n_nonconverged."""
        data = simulate_counts(tilted_bell(0.5), SETTINGS, 2_000, seed=3)
        monkeypatch.setattr(tomo, "DensityMatrix", reject_second())
        report = monte_carlo_metrics(data, n_samples=20, seed=2, method="mle", max_iter=3)
        assert (report.n_failed, report.n_nonconverged) == (1, 19)
        want, _ = mle_sigmas_oracle(data, 20, 2, max_iter=3, skip=(0,))
        np.testing.assert_allclose(sigmas(report), want, rtol=1e-6)

    def test_all_zero_resamples_are_counted_as_failed(self):
        """A resample with no counts at all is dropped and counted in n_failed."""
        counts = np.zeros(36)
        counts[[0, 7]] = 1.0  # one HH and one VV coincidence
        data = CountData(tuple(SETTINGS), counts, 1)
        empty = [not s.counts.any() for s in resamples(data, 20, 2)].count(True)
        assert empty == 2
        report = monte_carlo_metrics(data, n_samples=20, seed=2, method="mle")
        assert (report.n_failed, report.n_nonconverged) == (empty, 0)

    def test_mle_batch_failure_falls_back_per_row(self, monkeypatch):
        """A LinAlgError in the stacked iteration refits the rows one by one."""
        data = simulate_counts(tilted_bell(0.3), SETTINGS, 3_000, seed=4)
        opts = dict(n_samples=12, seed=2, method="mle", max_iter=800)
        want = monte_carlo_metrics(data, **opts)
        real = np.linalg.eigvalsh

        def batch_fails(a, *args, **kwargs):
            if a.ndim == 3 and a.shape[0] > 1:
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            return real(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", batch_fails)
        got = monte_carlo_metrics(data, **opts)
        np.testing.assert_allclose(sigmas(got), sigmas(want), rtol=1e-6)
        assert (got.n_failed, got.n_nonconverged) == (want.n_failed, want.n_nonconverged)

    def test_mle_iteration_failures_are_counted_not_raised(self, monkeypatch):
        """If every resample's iteration fails, the report aborts on the failure count."""
        data = simulate_counts(tilted_bell(0.5), SETTINGS, 2_000, seed=3)
        real = tomo._fit_batch

        def fails_but_the_point(design, counts, *args):
            if len(counts) == 1 and np.array_equal(counts[0], data.counts):
                return real(design, counts, *args)
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(tomo, "_fit_batch", fails_but_the_point)
        with pytest.raises(RuntimeError, match="20/20"):
            monte_carlo_metrics(data, n_samples=20, seed=2, method="mle")

    def test_unknown_method_is_refused(self):
        """A method name other than mle or linear is a ValueError, not a failed bootstrap."""
        data = simulate_counts(tilted_bell(0.5), SETTINGS, 2_000, seed=3)
        with pytest.raises(ValueError, match="method"):
            monte_carlo_metrics(data, n_samples=10, method="lsq")

    def test_report_validation(self):
        """Out-of-range metric values are refused."""
        with pytest.raises(ValueError, match="fidelity"):
            MetricsReport(
                fidelity=1.5, fidelity_sigma=0.0,
                concurrence=0.0, concurrence_sigma=0.0,
                purity=0.5, purity_sigma=0.0,
                s_value=2.0, s_value_sigma=0.0,
                n_samples=10, n_failed=0,
            )

    def test_as_dict_round_trip(self):
        """Report serialization carries every metric and spread."""
        rho = tilted_bell(0.5)
        data = analytic_counts(rho, SETTINGS, 100)
        report = monte_carlo_metrics(
            data, n_samples=10, seed=0, method="linear", resample=False
        )
        d = report.as_dict()
        for key in ("fidelity", "concurrence", "purity", "s_value"):
            assert key in d and key + "_sigma" in d
        # analytic mode runs no bootstrap samples at all
        assert d["n_samples"] == 0
        assert d["n_failed"] == 0
        assert d["n_nonconverged"] == 0

    def test_as_dict_keeps_the_report_key_order(self):
        """The report keys come in a fixed order, which fixes the bytes of every report."""
        data = analytic_counts(tilted_bell(0.5), SETTINGS, 100)
        report = monte_carlo_metrics(data, n_samples=10, method="linear", resample=False)
        assert list(report.as_dict()) == [
            "fidelity", "fidelity_sigma", "concurrence", "concurrence_sigma",
            "purity", "purity_sigma", "s_value", "s_value_sigma",
            "n_samples", "n_failed", "n_nonconverged",
        ]
