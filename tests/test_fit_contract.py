"""The likelihood fit checked against its contract, from each fitted state and its counts alone.

For every fitted row, the certificate is recomputed here with no table of the
package: p_j = tr(Pi_j rho) / 9 from :func:`setting_projectors` by ``einsum``,
floored at PROBABILITY_FLOOR as the fit floors it, R = sum_j (f_j / p_j) Pi_j /
9, and the gap lambda_max(R) - sum_j f_j by ``eigvalsh``. The recomputed gap
must meet the reported one, ``converged`` must hold exactly when the reported
gap is at most ``tol``, and each state must be Hermitian, of unit trace and
PSD.
"""

import numpy as np
import pytest

from fransonsim import tomo
from fransonsim.qcore import DensityMatrix
from fransonsim.tomo import MLE_DEFAULT_TOL, PROBABILITY_FLOOR, setting_projectors, simulate_counts

from oracle_states import default_fit_batch, pure, sparse_count_sets

# Rounding bounds. The two gaps each carry the error of an eigvalsh of a 4x4 R,
# of order 4 eps ||R|| with ||R|| = lambda_max(R) near sum_j f_j, plus that of
# their 36-term sums: GAP_ULPS ulps of sum_j f_j. A trace sums 4 rounded
# entries, and eigvalsh finds the eigenvalues of a trace-one state within
# about 4 eps. Worst measured on the batches below under the SkylakeX, Haswell,
# Sandybridge and Prescott kernels of OpenBLAS: 16 ulps of sum_j f_j, a trace
# 1 eps from 1, and a smallest eigenvalue of -1.9 eps.
GAP_ULPS = 64
SLACK = 4 * np.finfo(float).eps


def recomputed_gaps(counts, pairs_per_setting, rho):
    """lambda_max(R) - sum_j f_j of each state of ``rho`` (B, 4, 4) for its counts (B, 36)."""
    ninths = setting_projectors() / 9.0
    freqs = counts / float(pairs_per_setting)
    probs = np.maximum(np.einsum("jab,nba->nj", ninths, rho).real, PROBABILITY_FLOOR)
    r = np.einsum("nj,jab->nab", freqs / probs, ninths)
    return np.linalg.eigvalsh(r)[:, -1] - freqs.sum(axis=1)


def check_contract(counts, pairs_per_setting, fits, tol=MLE_DEFAULT_TOL):
    """Assert the contract on every fitted row of ``fits``, the fit of ``counts``."""
    fitted = np.array([error is None for error in fits.errors])
    assert fitted.any()
    counts, rho, gap = counts[fitted], fits.rho[fitted], fits.gap[fitted]
    total = counts.sum(axis=1) / float(pairs_per_setting)
    miss = np.abs(recomputed_gaps(counts, pairs_per_setting, rho) - gap)
    assert (miss <= GAP_ULPS * np.spacing(total)).all(), (miss / np.spacing(total)).max()
    np.testing.assert_array_equal(fits.converged[fitted], gap <= tol)
    np.testing.assert_array_equal(rho, rho.conj().transpose(0, 2, 1))
    assert np.abs(np.trace(rho, axis1=1, axis2=2) - 1.0).max() <= SLACK
    assert np.linalg.eigvalsh(rho)[:, 0].min() >= -SLACK


@pytest.mark.parametrize("experiment", ["chsh-sweep", "purify"])
def test_the_default_fit_batches_keep_the_contract(monkeypatch, experiment):
    counts, pairs_per_setting, _, fits = default_fit_batch(monkeypatch, experiment)
    assert len(counts) > 200
    check_contract(counts, pairs_per_setting, fits)


@pytest.mark.parametrize("max_iter", [tomo.MLE_DEFAULT_MAX_ITER, 125])
def test_sparse_count_sets_keep_the_contract(max_iter):
    """At 125 iterations, a few Newton steps in, some rows stop before their gap is within tol."""
    counts = sparse_count_sets(20)
    fits = tomo._mle_fits(counts, 3, max_iter=max_iter)
    assert fits.converged.any() and (max_iter > 125 or not fits.converged.all())
    check_contract(counts, 3, fits)


def test_a_count_set_at_the_flux_ceiling_keeps_the_contract():
    ket = np.sqrt([0.3, 0.0, 0.0, 0.7])
    data = simulate_counts(pure(ket), tomo.MAX_PAIRS_PER_SETTING, seed=0)
    check_contract(data.counts[None], data.pairs_per_setting,
                   tomo._mle_fits(data.counts[None], data.pairs_per_setting))
