"""Measurement simulation, reconstruction, metrics, and CHSH checks."""

import math
import os
import re
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from fransonsim import cli, qcore, tomo
from fransonsim.qcore import (
    DensityMatrix,
    PHI_PLUS_KET,
    concurrence,
    fidelity_to,
    purity,
)
from fransonsim.optics import WaveplateSpec, jones
from fransonsim.tomo import (
    METRIC_NAMES,
    CountData,
    MetricsReport,
    analytic_counts,
    chsh_value,
    counts_from_csv,
    counts_to_csv,
    expected_probabilities,
    linear_inversion,
    mle_reconstruct,
    monte_carlo_metrics,
    setting_projectors,
    simulate_counts,
)

from oracle_states import default_fit_batch, pure, random_state, sparse_count_sets, trace_distance

# The analyzer projectors of the basis states H, V, D, A, R, L, in that order.
ANALYZER_PROJECTORS = [
    np.diag([1.0, 0.0]),
    np.diag([0.0, 1.0]),
    np.full((2, 2), 0.5),
    np.array([[0.5, -0.5], [-0.5, 0.5]]),
    np.array([[0.5, 0.5j], [-0.5j, 0.5]]),
    np.array([[0.5, -0.5j], [0.5j, 0.5]]),
]


def s_formula(p):
    # closed form for the tilted Bell ket at the fixed CHSH analyzers
    return np.sqrt(2.0) * (1.0 + 2.0 * np.sqrt(p * (1.0 - p)))


def tilted_bell(p):
    ket = np.array([np.sqrt(p), 0.0, 0.0, np.sqrt(1.0 - p)])
    return pure(ket)


# The x86 kernels of OpenBLAS that a fit's independence of its batch is
# checked on: the name that forces each, the CPU flag it needs, and the name
# OpenBLAS reads back for it (its Prescott kernel answers to the alias Katmai).
BLAS_KERNELS = [
    ("SkylakeX", "avx512f", "SkylakeX"),
    ("Haswell", "avx2", "Haswell"),
    ("Sandybridge", "avx", "Sandybridge"),
    ("Prescott", "pni", "Katmai"),
]

# Prints the BLAS core name (empty if it cannot be read), then fits the five
# rows of the per-sample oracle test in one batch and one by one, at a budget
# that stops in the Newton phase and at one that certifies every row, and
# exits non-zero unless each row is bitwise the same both ways.
BATCH_AND_ALONE = """
import ctypes, glob, os
import numpy as np
name = ""
libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")
for lib in glob.glob(libs):
    so = ctypes.CDLL(lib)
    for symbol in ("scipy_openblas_get_corename64_", "openblas_get_corename64_"):
        if hasattr(so, symbol):
            getattr(so, symbol).restype = ctypes.c_char_p
            name = getattr(so, symbol)().decode()
print(name, flush=True)
from fransonsim import simulate_counts, tomo
from oracle_states import pure
rows = [(0.5, 0), (0.5, 1), (0.3, 0), (0.3, 1), (0.3, 2)]
counts = np.stack([
    simulate_counts(pure(np.sqrt([p, 0.0, 0.0, 1.0 - p])), 3000, seed=s).counts
    for p, s in rows
])
for budget in (tomo._RRR_ITERATIONS + 5, 1000):
    batch = tomo._mle_fits(counts, 3000, max_iter=budget)
    for i, row in enumerate(counts):
        alone = tomo._mle_fits(row[None], 3000, max_iter=budget)
        assert batch.iterations[i] == alone.iterations[0], (budget, i)
        assert np.array_equal(batch.rho[i], alone.rho[0]), (budget, i)
"""


# The module constants of the fixed design, in the order _fixed_tables returns them.
DESIGN_CONSTANTS = (
    "_BASIS_ROW", "_TANGENT", "_TANGENT_OUTER", "_PINV", "_TO_PROBS", "_FRAME_REAL", "_TO_REAL",
    "_FROM_REAL", "_TO_COMPLEX", "_BASIS_COORDS", "_FRAME", "_READOUT",
)


def polarizer(theta):
    """sigma(theta) = cos(2 theta) Z + sin(2 theta) X, a linear polarizer at theta."""
    c, s = math.cos(2 * theta), math.sin(2 * theta)
    return np.array([[c, s], [s, -c]], dtype=complex)


def chsh_uncached(rho):
    """CHSH value with the four correlator operators rebuilt on every call.

    A at 0 and pi/4, B at pi/8 and 3 pi/8: the standard settings for |HH>+|VV>.
    """

    def corr(ta, tb):
        op = np.kron(polarizer(ta), polarizer(tb))
        return float(np.einsum("ab,ba->", op, rho.data).real)

    return (
        corr(0.0, np.pi / 8)
        - corr(0.0, 3 * np.pi / 8)
        + corr(np.pi / 4, np.pi / 8)
        + corr(np.pi / 4, 3 * np.pi / 8)
    )


def linear_state_oracle(data):
    """Linear inversion of one count set, with the design and its pseudo-inverse rebuilt per call.

    The least-squares solution is the pseudo-inverse applied to the
    frequencies, in real arithmetic: the frequencies are real, so the real
    and imaginary parts of the solution are two real products. Returns the
    state V w V^dag and its factor V sqrt(w), both from the clipped,
    renormalised spectrum w.
    """
    pis = setting_projectors()
    design = pis.transpose(0, 2, 1).reshape(36, 16)
    pinv = np.linalg.pinv(design)
    sol = data.frequencies @ np.ascontiguousarray(pinv.T).view(float)
    raw = sol.view(complex).reshape(4, 4)
    raw = 0.5 * (raw + raw.conj().T)
    eigvals, eigvecs = np.linalg.eigh(raw)
    shares = np.clip(eigvals, 0.0, None)
    shares = shares / shares.sum()
    return DensityMatrix((eigvecs * shares) @ eigvecs.conj().T), eigvecs * np.sqrt(shares)


def mle_oracle(data, tol=tomo.MLE_DEFAULT_TOL, max_iter=tomo.MLE_DEFAULT_MAX_ITER):
    """One RrhoR fit iterated alone with per-setting einsums: (rho, iterations, converged).

    It weighs Pi_j / 9, rebuilt per call, as ``tomo._mle_fits`` does. It
    stops when the trace distance between successive iterates drops to
    ``tol``. Within the first ``tomo._RRR_ITERATIONS`` iterations it is the
    iteration of ``tomo._mle_fits``; run long, it is the likelihood reference.
    """
    pis = setting_projectors() / 9.0
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


def unscreened_fit_batch(counts, pairs_per_setting, tol, max_iter):
    """``tomo._mle_fits`` with the exact gap on every row at every iteration.

    The fit loop without the gap screens, used as the oracle the screened
    loop must match bit for bit: RrhoR steps on the 16 real coordinates of
    the iterate, written out here from the design's maps, then Newton steps,
    each taking the p_j computed for its iterate before the stopped rows left
    the batch. R is read as its real form R8, from the weights f_j / p_j by
    ``frame_real``. As in the fit, the gap is the top eigenvalue of ``eigh``
    before the last RrhoR iteration and of ``eigvalsh`` from it on. The counts
    hold no row of zeros, and it records no ``history``.
    """
    fits = tomo._Fits.blank(len(counts))
    rows = np.arange(len(counts))
    freqs = counts / float(pairs_per_setting)
    total = freqs.sum(axis=1)
    y = np.tile(coordinates(np.eye(4)[None] / 4.0), (len(counts), 1))
    mu = np.zeros(len(counts))
    floor_hits = np.zeros(len(counts), dtype=int)

    def evaluate(y):
        """The p_j of every row of y, and the real form R8 of its R, each row alone."""
        probs = tomo._rows(y, tomo._TO_PROBS)
        weights = freqs / np.maximum(probs, tomo.PROBABILITY_FLOOR)
        return probs, tomo._rows(weights, tomo._FRAME_REAL).reshape(-1, 8, 8)

    probs, r8 = evaluate(y)
    for iteration in range(1, max_iter + 1):
        if iteration <= tomo._RRR_ITERATIONS:
            y = (r8 @ (y @ tomo._TO_REAL).reshape(-1, 8, 8) @ r8).reshape(-1, 64)
            y = tomo._rows(y, tomo._FROM_REAL)
            y /= y[:, :4].sum(axis=1)[:, None]
        else:
            if iteration == tomo._RRR_ITERATIONS + 1:
                share = np.minimum(gap / total, 1.0)[:, None]
                y = (1.0 - share) * y + share * coordinates(np.eye(4)[None] / 4.0)
                mu = np.maximum(0.1 * gap, tol / 16.0)
                probs = tomo._rows(y, tomo._TO_PROBS)
            y = tomo._newton_step(freqs, y, probs, mu)
        probs, r8 = evaluate(y)
        floor_hits += (probs < tomo.PROBABILITY_FLOOR).sum(axis=1)
        r_plain = r8[:, :4, :4] + 1j * r8[:, 4:, :4]
        if iteration < min(tomo._RRR_ITERATIONS, max_iter):
            gap = np.linalg.eigh(r_plain)[0][:, -1] - total
        else:
            gap = np.linalg.eigvalsh(r_plain)[:, -1] - total
        if iteration > tomo._RRR_ITERATIONS:
            lowest = np.maximum(0.1 * gap, tol / 16.0)
            mu = np.maximum(mu / 10.0, lowest)
        converged = gap <= tol
        stopped = converged if iteration < max_iter else np.ones_like(converged)
        if not stopped.any():
            continue
        done = np.flatnonzero(stopped)
        stop = rows[done]
        rhos, fitted = tomo._states(y[done])
        fits.rho[stop], fits.roots[stop], fits.iterations[stop] = rhos, qcore._roots(rhos), iteration
        fits.loglike[stop] = tomo._loglike(counts[stop], fitted)
        fits.converged[stop], fits.floor_hits[stop], fits.gap[stop] = (
            converged[done], floor_hits[done], gap[done]
        )
        for i, error in zip(stop, qcore._state_errors(rhos)):
            fits.errors[i] = error
        keep = ~stopped
        if not keep.any():
            break
        rows, freqs, total, y, r8, gap, mu, probs, floor_hits = (
            a[keep] for a in (rows, freqs, total, y, r8, gap, mu, probs, floor_hits)
        )
    return fits


def pauli_basis():
    """The (15, 4, 4) orthonormal traceless Pauli basis E_k of the Newton steps, rebuilt."""
    paulis = (qcore.PAULI_I, qcore.PAULI_X, qcore.PAULI_Y, qcore.PAULI_Z)
    return np.stack([np.kron(a, b) for a in paulis for b in paulis][1:]) / 2.0


def newton_system_oracle(freqs, y, mu):
    """Gradient and Hessian of -sum_j f_j log p_j - mu log det Y along the E_k, by einsum.

    The basis E_k and the tangents tr(Pi_j E_k) / 9 are rebuilt here from
    the Pauli matrices and the projectors, and the barrier terms come from
    the (B, 15, 4, 4) stack of Y^-1 E_k: tr(Y^-1 E_k) for the gradient and
    tr(Y^-1 E_k Y^-1 E_l) for the Hessian, to which the likelihood adds
    T^T diag(f / p^2) T. p_j is floored at PROBABILITY_FLOOR.
    """
    basis = pauli_basis()
    frame = setting_projectors() / 9.0
    tangent = np.einsum("jab,kba->jk", frame, basis).real
    probs = np.maximum(np.einsum("jab,nba->nj", frame, y).real, tomo.PROBABILITY_FLOOR)
    weights = freqs / probs
    y_inv_e = np.linalg.inv(y)[:, None] @ basis
    grad = -(weights @ tangent) - mu[:, None] * np.trace(y_inv_e, axis1=2, axis2=3).real
    hess = (tangent.T * (weights / probs)[:, None, :]) @ tangent
    hess += mu[:, None, None] * np.einsum("bkij,blji->bkl", y_inv_e, y_inv_e).real
    return grad, hess


def real_form(y):
    """The real 8x8 form [[Re Y, -Im Y], [Im Y, Re Y]] of every Y of a (B, 4, 4) stack."""
    return np.block([[y.real, -y.imag], [y.imag, y.real]])


def coordinates(y):
    """The 16 real coordinates of every Hermitian Y of a (B, 4, 4) stack, read off its entries.

    Re Y_aa, then Re Y_ab and Im Y_ab for each of the six a < b in row order.
    """
    a, b = np.triu_indices(4, 1)
    pairs = np.stack([y[:, a, b].real, y[:, a, b].imag], axis=2).reshape(-1, 12)
    return np.concatenate([np.diagonal(y, axis1=1, axis2=2).real, pairs], axis=1)


def probabilities(y):
    """p_j = tr(Pi_j Y) / 9 of every complex Hermitian Y, with the product the fit takes."""
    return tomo._rows(coordinates(y), tomo._TO_PROBS)


def rrr_step(freqs, y):
    """One RrhoR step of every coordinate row y, with the products ``tomo._mle_fits`` takes.

    The rows are padded to whole blocks of 8 with Y = I/4 and f_j = 1/36, as in
    the fit, and each product is one ``@`` on the padded stack: p_j, the real form
    R8 of R from the weights f_j / p_j by ``frame_real``, and R8 Y8 R8 read back by
    ``from_real``. Returns R8, R Y R / tr(R Y R), tr(R Y R) and which p_j the floor
    caught, each for the given rows only.
    """
    n, pad = len(y), -len(y) % 8
    y = np.vstack((y, np.tile(coordinates(np.eye(4)[None] / 4.0), (pad, 1))))
    freqs = np.vstack((freqs, np.full((pad, 36), 1 / 36)))
    probs = y @ tomo._TO_PROBS
    weights = freqs / np.maximum(probs, tomo.PROBABILITY_FLOOR)
    r8 = (weights @ tomo._FRAME_REAL).reshape(-1, 8, 8)
    step = (r8 @ (y @ tomo._TO_REAL).reshape(-1, 8, 8) @ r8).reshape(-1, 64) @ tomo._FROM_REAL
    norm = step[:, :4].sum(axis=1)
    return r8[:n], (step / norm[:, None])[:n], norm[:n], (probs < tomo.PROBABILITY_FLOOR)[:n]


def full_rank_states(n, seed):
    """``n`` seeded random full-rank two-qubit states as a (n, 4, 4) stack."""
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, 4, 4)) + 1j * rng.normal(size=(n, 4, 4))
    y = a @ a.conj().transpose(0, 2, 1)
    return y / np.trace(y, axis1=1, axis2=2).real[:, None, None]


def fit_batches(monkeypatch):
    """The row count of every call of ``tomo._mle_fits`` from now on, in a list that grows."""
    batches = []
    real = tomo._mle_fits

    def spy(counts, *args, **kwargs):
        batches.append(len(counts))
        return real(counts, *args, **kwargs)

    monkeypatch.setattr(tomo, "_mle_fits", spy)
    return batches


def fit_rows(fits, method):
    """Each row of a stacked fit record: its ReconstructionResult, or the error that refused it."""
    return [
        fits.result(i, method) if error is None else error
        for i, error in enumerate(fits.errors)
    ]


def resamples(data, n_samples, seed):
    """The bootstrap's Poisson resamples of ``data``, in sample order.

    Each resample is drawn on its own, row after row, from one
    ``default_rng(seed)``. The bootstrap draws the whole stack in one call,
    so a bit-exact match also shows that resample k does not depend on
    ``n_samples``.
    """
    rng = np.random.default_rng(seed)
    return [
        CountData(rng.poisson(data.counts).astype(float), data.pairs_per_setting)
        for _ in range(n_samples)
    ]


def reject_second(replacement=None):
    """A stand-in for the batched state check that refuses the second row it checks.

    The fits check each stack of fitted rows with one call, in the order
    they build the rows: in the bootstrap batch the first row checked is
    row 0, the point fit, and the second is resample 0. Without
    ``replacement`` that row is refused outright; with it, the row is
    swapped for ``replacement`` before the real check runs.
    """
    checked = [0]  # rows checked so far

    def check(stack):
        second = 1 - checked[0]  # index of the second row overall in this stack
        checked[0] += len(stack)
        if not 0 <= second < len(stack):
            return qcore._state_errors(stack)
        if replacement is not None:
            stack = stack.copy()
            stack[second] = replacement
            return qcore._state_errors(stack)
        errors = qcore._state_errors(stack)
        errors[second] = ValueError("not a density matrix")
        return errors

    return check


def readout_row(rho):
    """(F, S) of one state: the one-row call of the readout product of ``tomo._metric_rows``."""
    return np.matmul(rho.data.reshape(1, 1, 16).view(float), tomo._READOUT)[0, 0]


def metric_row(rho, root=None):
    """The four metrics of one state; concurrence from its factor ``root``, if given."""
    con = concurrence(rho) if root is None else float(qcore._concurrences(root[None])[0])
    fid, s_value = readout_row(rho)
    return [fid, con, purity(rho), s_value]


def linear_sigmas_oracle(data, n_samples, seed, skip=()):
    """Bootstrap sigmas from one linear inversion per resample, in sample order."""
    rows = [
        metric_row(*linear_state_oracle(sample))
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
    probs = expected_probabilities(rho)
    seen = data.counts > 0
    return -np.sum(data.frequencies[seen] * np.log(probs[seen]))


def edit_csv(path, row, column, value):
    """Write ``value`` into one cell of a counts CSV: data row ``row``, column index ``column``."""
    lines = path.read_text().splitlines()
    cols = lines[row].split(",")
    cols[column] = value
    lines[row] = ",".join(cols)
    path.write_text("\n".join(lines) + "\n")


def sigmas(report):
    return np.array([
        report.fidelity_sigma, report.concurrence_sigma,
        report.purity_sigma, report.s_value_sigma,
    ])


class TestProjectors:
    def test_single_party_eigenstates(self):
        """The six analyzers of either photon project onto the expected states."""
        pis = setting_projectors()
        horizontal = ANALYZER_PROJECTORS[0]
        for i, want in enumerate(ANALYZER_PROJECTORS):
            np.testing.assert_allclose(pis[6 * i], np.kron(want, horizontal), atol=1e-12)
            np.testing.assert_allclose(pis[i], np.kron(horizontal, want), atol=1e-12)

    def test_projectors_are_rank_one(self):
        """Each coincidence projector is idempotent with unit trace."""
        for pi in setting_projectors():
            np.testing.assert_allclose(pi @ pi, pi, atol=1e-12)
            assert np.trace(pi).real == pytest.approx(1.0, abs=1e-12)

    def test_standard_settings_layout(self):
        """36 pairwise settings, ordered with party B fastest, in projectors and CSV columns."""
        pis = setting_projectors()
        assert pis.shape == (36, 4, 4)
        for j, pi in enumerate(pis):
            want = np.kron(ANALYZER_PROJECTORS[j // 6], ANALYZER_PROJECTORS[j % 6])
            np.testing.assert_allclose(pi, want, atol=1e-12)
        # setting 1 changes party B only, setting 6 party A only, setting 4 puts in B's plate
        zero = ("0.000000", "0", "0.000000")
        assert len(tomo._CSV_ROWS) == 36
        assert tomo._CSV_ROWS[0] == ("0", *zero, *zero)
        assert tomo._CSV_ROWS[1] == ("1", *zero, "90.000000", "0", "0.000000")
        assert tomo._CSV_ROWS[6] == ("6", "90.000000", "0", "0.000000", *zero)
        assert tomo._CSV_ROWS[4] == ("4", *zero, "45.000000", "1", "0.000000")
        assert tomo._CSV_ROWS[35] == ("35", *("135.000000", "1", "0.000000") * 2)

    def test_design_matrix_has_full_rank(self):
        """The 36 joint projectors span the full operator space."""
        pis = setting_projectors()
        design = pis.reshape(36, 16)
        assert np.linalg.matrix_rank(design, tol=1e-10) == 16

    def test_the_broadcast_products_are_bitwise_the_kron_loops(self):
        """The projectors and the Pauli basis are bitwise one ``np.kron`` per pair of factors."""
        plate = jones(WaveplateSpec("quarter", 0.0)).conj().T
        singles = []
        for angle, plate_in in tomo._ANALYZERS:
            ket = np.array([math.cos(angle), math.sin(angle)], dtype=complex)
            if plate_in:
                ket = plate @ ket
            singles.append(np.outer(ket, ket.conj()))
        want = np.stack([np.kron(a, b) for a in singles for b in singles])
        assert setting_projectors().tobytes() == want.tobytes()
        assert tomo._BASIS_ROW.tobytes() == np.concatenate(pauli_basis(), axis=1).tobytes()

    def test_cached_design_matches_a_fresh_build(self):
        """Every design constant is bitwise its fresh build, in its memory order, and read-only.

        The two tables that the probabilities and R read also equal their
        rebuild from the standard settings.
        """
        fresh = setting_projectors()
        np.testing.assert_array_equal(tomo._FRAME, fresh.reshape(36, 16).view(float).T)
        np.testing.assert_array_equal(tomo._FRAME_REAL.reshape(36, 8, 8), real_form(fresh / 9.0))
        tables = tomo._fixed_tables()
        assert len(tables) == len(DESIGN_CONSTANTS)
        for name, built in zip(DESIGN_CONSTANTS, tables):
            arr = getattr(tomo, name)
            assert (arr.shape, arr.dtype, arr.strides) == (built.shape, built.dtype, built.strides)
            assert arr.tobytes() == built.tobytes(), name
            assert not arr.flags.writeable, name
            with pytest.raises(ValueError):
                arr[(0,) * arr.ndim] = 1.0

    def test_expected_probabilities_sum_within_bases(self):
        """The four projectors of one local basis pair resolve identity."""
        rho = random_state(2, kind="mixed", seed=5)
        probs = expected_probabilities(rho)
        # H/V x H/V: settings (H,H), (H,V), (V,H), (V,V)
        idx = [0, 1, 6, 7]
        assert sum(probs[i] for i in idx) == pytest.approx(1.0, abs=1e-10)


class TestCounting:
    def test_each_row_of_the_stacked_kernel_is_its_one_state_call(self):
        """expected_probabilities of a state is bitwise its row of _probabilities, at any batch."""
        rows = np.stack([random_state(2, kind="mixed", seed=s).data for s in range(50)])
        want = [expected_probabilities(DensityMatrix(rho)).tobytes() for rho in rows]
        for size in range(1, 51):
            got = tomo._probabilities(rows[:size])
            assert got.shape == (size, 36)
            assert [row.tobytes() for row in got] == want[:size], size

    def test_analytic_counts_are_exact_expectations(self):
        """Analytic mode stores pairs x probability with no rounding."""
        rho = tilted_bell(0.3)
        data = analytic_counts(rho, 1000)
        np.testing.assert_allclose(
            data.counts, 1000.0 * expected_probabilities(rho), atol=1e-12
        )

    def test_sampled_counts_match_poisson_moments(self):
        """Sampled counts track the expected mean within five sigma."""
        rho = tilted_bell(0.5)
        pairs = 1_000_000
        data = simulate_counts(rho, pairs, seed=3)
        means = pairs * expected_probabilities(rho)
        for count, mean in zip(data.counts, means):
            if mean > 0:
                assert abs(count - mean) < 5.0 * np.sqrt(mean) + 5.0

    def test_same_seed_reproduces_counts(self):
        """Counting is deterministic in the seed."""
        rho = tilted_bell(0.4)
        a = simulate_counts(rho, 10_000, seed=11)
        b = simulate_counts(rho, 10_000, seed=11)
        c = simulate_counts(rho, 10_000, seed=12)
        np.testing.assert_array_equal(a.counts, b.counts)
        assert not np.array_equal(a.counts, c.counts)

    def test_counts_are_one_poisson_draw_of_the_seed(self):
        """All 36 counts are one poisson call of default_rng(seed), in setting order."""
        rho = tilted_bell(0.4)
        for seed in (0, 11):
            data = simulate_counts(rho, 10_000, seed=seed)
            want = np.random.default_rng(seed).poisson(
                10_000 * expected_probabilities(rho)
            )
            np.testing.assert_array_equal(data.counts, want)

    def test_count_data_validation(self):
        """Negative counts and length mismatches are refused."""
        with pytest.raises(ValueError, match="negative"):
            CountData(np.full(36, -1.0), 100)
        with pytest.raises(ValueError, match="36"):
            CountData(np.ones(35), 100)

    def test_stacked_count_check_refuses_what_count_data_refuses(self):
        """One check of a count stack gives each row the refusal CountData gives it."""
        rows = np.ones((6, 36))
        rows[1, 3] = np.nan
        rows[2, 4] = -2.0
        rows[3, 5] = 5000.5
        rows[4, 0] = 5000.0  # exactly at the ceiling of 50 * pairs_per_setting
        rows[5, 7] = np.inf
        errors = tomo._count_errors(rows, 100)
        for row, error in zip(rows, errors):
            try:
                CountData(row, 100)
            except ValueError as exc:
                assert str(error) == str(exc)
            else:
                assert error is None
        assert [e is None for e in errors] == [True, False, False, False, True, False]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_counts_are_refused(self, bad, tmp_path):
        """A NaN or infinite count is refused by name, directly or from CSV."""
        counts = np.ones(36)
        counts[5] = bad
        with pytest.raises(ValueError, match="non-finite count"):
            CountData(counts, 100)
        path = tmp_path / "counts.csv"
        counts_to_csv(CountData(np.ones(36), 100), path)
        edit_csv(path, 6, 7, f"{bad}")
        with pytest.raises(ValueError, match="non-finite count"):
            counts_from_csv(path, pairs_per_setting=100)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_angles_are_refused(self, bad, tmp_path):
        """A NaN or infinite analyzer angle in a CSV is refused with its column and row named."""
        path = tmp_path / "counts.csv"
        counts_to_csv(CountData(np.ones(36), 100), path)
        edit_csv(path, 3, 1, f"{bad}")  # theta_a
        with pytest.raises(ValueError, match=f"theta_a must be finite, got {bad} in data row 3"):
            counts_from_csv(path, pairs_per_setting=100)

    @pytest.mark.parametrize("column, name", [
        (1, "theta_a"), (3, "qwp_theta_a"), (4, "theta_b"), (6, "qwp_theta_b"), (7, "count"),
    ])
    @pytest.mark.parametrize("value", ["abc", ""])
    def test_non_numeric_fields_are_refused_by_column_and_row(self, tmp_path, column, name, value):
        """An angle or count that is not a number is refused, naming its column and data row."""
        path = tmp_path / "counts.csv"
        counts_to_csv(CountData(np.ones(36), 100), path)
        edit_csv(path, 7, column, value)
        want = f"{name} must be a number, got {value!r} in data row 7"
        with pytest.raises(ValueError, match=re.escape(want)):
            counts_from_csv(path, pairs_per_setting=100)

    @pytest.mark.parametrize("value, want", [
        ("-3", "negative count: -3.0"),
        ("nan", "non-finite count: nan"),
        ("1e12", "count 1000000000000.0 exceeds 50 * pairs_per_setting = 5000"),
    ])
    def test_bad_counts_are_refused_by_row(self, tmp_path, value, want):
        """A negative, NaN or over-ceiling count is refused with its data row named."""
        path = tmp_path / "counts.csv"
        counts_to_csv(CountData(np.ones(36), 100), path)
        edit_csv(path, 7, 7, value)
        with pytest.raises(ValueError, match=f"^{re.escape(want)} in data row 7$"):
            counts_from_csv(path, pairs_per_setting=100)

    @pytest.mark.parametrize("column, name", [(2, "qwp_a"), (5, "qwp_b")])
    @pytest.mark.parametrize("flag", ["7", "0.5", "abc", ""])
    def test_plate_flags_must_read_0_or_1(self, tmp_path, column, name, flag):
        """A plate flag other than 0 or 1 is refused with its column and row named."""
        path = tmp_path / "counts.csv"
        counts_to_csv(CountData(np.ones(36), 100), path)
        edit_csv(path, 4, column, flag)
        want = f"{name} must be 0 or 1, got '{flag}' in data row 4"
        with pytest.raises(ValueError, match=re.escape(want)):
            counts_from_csv(path, pairs_per_setting=100)

    def test_csv_round_trip(self, tmp_path):
        """Counts survive the CSV format bit for bit, and a rewrite gives the same bytes."""
        data = simulate_counts(tilted_bell(0.2), 5_000, seed=17)
        path, again = tmp_path / "counts.csv", tmp_path / "again.csv"
        counts_to_csv(data, path)
        read = counts_from_csv(path, pairs_per_setting=5_000)
        np.testing.assert_array_equal(read.counts, data.counts)
        counts_to_csv(read, again)
        assert again.read_bytes() == path.read_bytes()

    def test_nonstandard_rows_are_refused_by_row_and_column(self, tmp_path):
        """A row whose analyzer differs from the standard setting at its index is refused.

        The design is fixed, so a turned analyzer or a moved plate is not
        another design but a file that does not match it. Angles compare
        modulo 180 deg.
        """
        path = tmp_path / "counts.csv"
        cases = [
            # the analyzer of photon A turned by 10 deg in setting (H, A)
            (4, 1, "10.000000", "theta_a reads 10.000000 in data row 4, the standard "
             "setting there has 0.000000"),
            (10, 6, "10.000000", "qwp_theta_b reads 10.000000 in data row 10"),
            # the plate of photon B pulled from setting (H, R), put into (H, H)
            (5, 5, "0", "qwp_b reads 0 in data row 5, the standard setting there has 1"),
            (1, 2, "1", "qwp_a reads 1 in data row 1"),
            # an index that is not the row's position
            (5, 0, "99", "setting_index reads 99 in data row 5, the standard "
             "setting there has 4"),
            (1, 0, "1", "setting_index reads 1 in data row 1"),
        ]
        for row, column, value, want in cases:
            counts_to_csv(CountData(np.ones(36), 100), path)
            edit_csv(path, row, column, value)
            with pytest.raises(ValueError, match=re.escape(want)):
                counts_from_csv(path, pairs_per_setting=100)
        # 180 deg is the same polarizer as 0 deg
        counts_to_csv(CountData(np.ones(36), 100), path)
        edit_csv(path, 1, 1, "180.000000")
        np.testing.assert_array_equal(counts_from_csv(path, 100).counts, np.ones(36))
        # one row per standard setting, no more and no fewer
        lines = path.read_text().splitlines()
        for kept in (lines[:-1], lines + lines[-1:]):
            path.write_text("\n".join(kept) + "\n")
            with pytest.raises(ValueError, match="expected 36 data rows"):
                counts_from_csv(path, 100)

    @pytest.mark.parametrize("pairs", [0, tomo.MAX_PAIRS_PER_SETTING + 1, 10**19])
    def test_flux_outside_the_bound_is_refused_by_name(self, pairs):
        """A flux numpy cannot draw is refused before the draw, naming pairs_per_setting."""
        horizontal = pure(np.array([1.0, 0.0, 0.0, 0.0]))
        want = "pairs_per_setting must be in [1, 1e+18]"
        with pytest.raises(ValueError, match=re.escape(want)):
            simulate_counts(horizontal, pairs)
        with pytest.raises(ValueError, match=re.escape(want)):
            analytic_counts(horizontal, pairs)
        with pytest.raises(ValueError, match=re.escape(want)):
            CountData(np.zeros(36), pairs)
        assert cli.MAX_PAIRS_PER_SETTING is tomo.MAX_PAIRS_PER_SETTING

    @pytest.mark.parametrize("pairs", [1_000, tomo.MAX_PAIRS_PER_SETTING])
    def test_a_huge_count_never_reaches_a_fit(self, tmp_path, pairs):
        """A count of 1e150 is refused directly and from CSV, at any flux.

        The MLE certificate is absolute in frequency units; the count
        ceiling of 50 * pairs_per_setting keeps every frequency of a
        fitted count set at most 50, so its rounding stays below ``tol``.
        """
        counts = np.ones(36)
        counts[3] = 1e150
        want = "count 1e+150 exceeds 50 * pairs_per_setting"
        with pytest.raises(ValueError, match=re.escape(want)):
            CountData(counts, pairs)
        path = tmp_path / "counts.csv"
        counts_to_csv(CountData(np.ones(36), pairs), path)
        edit_csv(path, 4, 7, "1e150")
        with pytest.raises(ValueError, match=re.escape(want)):
            counts_from_csv(path, pairs)

    @pytest.mark.parametrize("pairs", [1000.9, float("nan"), float("inf"), "1000"])
    def test_non_integral_flux_is_refused_by_name(self, pairs):
        """A fractional, NaN, infinite or string flux is refused, not truncated."""
        want = f"pairs_per_setting must be an integer, got {pairs!r}"
        with pytest.raises(ValueError, match=re.escape(want)):
            CountData(np.ones(36), pairs)
        data = CountData(np.ones(36), 1000.0)
        assert data.pairs_per_setting == 1000 and type(data.pairs_per_setting) is int


class TestLinearInversion:
    def test_exact_on_noiseless_data(self):
        """Linear inversion inverts analytic counts exactly, 100 seeds."""
        for seed in range(100):
            rho = random_state(2, kind="mixed", seed=seed)
            data = analytic_counts(rho, 10_000)
            recon = linear_inversion(data)
            assert trace_distance(recon.rho, rho) < 1e-9

    def test_projects_noisy_estimates_to_physical(self):
        """Sampled-count reconstructions remain valid density matrices."""
        rho = tilted_bell(0.5)
        for seed in range(20):
            data = simulate_counts(rho, 500, seed=seed)
            recon = linear_inversion(data)
            eigs = np.linalg.eigvalsh(recon.rho.data)
            assert eigs.min() > -1e-10
            assert np.trace(recon.rho.data).real == pytest.approx(1.0, abs=1e-10)

    def test_matches_the_per_call_oracle_bitwise(self):
        """The batched helper at B=1 gives the per-call state bit for bit."""
        rho = tilted_bell(0.3)
        for seed in range(10):
            data = simulate_counts(rho, 1_000, seed=seed)
            np.testing.assert_array_equal(
                linear_inversion(data).rho.data, linear_state_oracle(data)[0].data
            )

    def test_batch_rows_match_one_row_fits(self):
        """Each batch row is its one-row fit: the state bit for bit, log L to rounding."""
        datas = [simulate_counts(tilted_bell(0.3), 1_000, seed=s) for s in range(5)]
        fits = fit_rows(tomo._linear_fits(np.stack([d.counts for d in datas]), 1_000), "linear")
        for data, fit in zip(datas, fits):
            alone = linear_inversion(data)
            np.testing.assert_array_equal(fit.rho.data, alone.rho.data)
            assert (fit.floor_hits, fit.loglike_history) == (0, (fit.loglike,))
            want = -data.pairs_per_setting * neg_loglike(data, fit.rho)
            assert fit.loglike == pytest.approx(want, rel=1e-12)
            assert alone.loglike == pytest.approx(want, rel=1e-12)

    def test_a_row_fits_the_same_alone_and_in_a_batch(self):
        """A one-row linear fit equals its row of a batch bit for bit: rho, log L, floor hits."""
        horizontal = pure(np.array([1.0, 0.0, 0.0, 0.0]))
        counts = np.stack([
            analytic_counts(horizontal, 1_000).counts,  # fitted probabilities at zero
            *(simulate_counts(tilted_bell(p), 1_000, seed=s).counts
              for p in (0.5, 0.1) for s in range(4)),
        ])
        fits = fit_rows(tomo._linear_fits(counts, 1_000), "linear")
        assert fits[0].floor_hits > 0
        for row, fit in zip(counts, fits):
            [alone] = fit_rows(tomo._linear_fits(row[None], 1_000), "linear")
            np.testing.assert_array_equal(alone.rho.data, fit.rho.data)
            assert (alone.loglike, alone.floor_hits) == (fit.loglike, fit.floor_hits)

    def test_batch_keeps_failed_rows_in_place(self):
        """A row that collapses to zero is reported as its error; others still fit."""
        good = simulate_counts(tilted_bell(0.5), 1_000, seed=1).counts
        counts = np.stack([good, np.zeros(36), good])
        fits = fit_rows(tomo._linear_fits(counts, 1_000), "linear")
        assert isinstance(fits[1], ValueError)
        assert "collapsed" in str(fits[1])
        for k in (0, 2):
            assert isinstance(fits[k], tomo.ReconstructionResult)
        np.testing.assert_array_equal(fits[0].rho.data, fits[2].rho.data)
        assert fits[0].loglike == fits[2].loglike

class TestMle:
    def test_coordinates_round_trip_through_the_real_form_exactly(self):
        """Coordinates -> real form -> coordinates is bitwise on Hermitian stacks.

        The real form is the 8x8 [[Re Y, -Im Y], [Im Y, Re Y]] bit for bit,
        and the complex form gives Y back bit for bit.
        """
        rng = np.random.default_rng(5)
        a = rng.normal(size=(7, 4, 4)) + 1j * rng.normal(size=(7, 4, 4))
        y = 0.5 * (a + a.conj().transpose(0, 2, 1))
        coords = coordinates(y)
        y8 = coords @ tomo._TO_REAL
        assert y8.shape == (7, 64) and y8.dtype == float
        np.testing.assert_array_equal(y8.reshape(-1, 8, 8), real_form(y))
        np.testing.assert_array_equal(y8 @ tomo._FROM_REAL, coords)
        np.testing.assert_array_equal(tomo._hermitian(coords), y)

    def test_coordinates_give_the_probabilities_of_the_state(self):
        """y @ to_probs is tr(Pi_j rho) / 9 to 1e-15 of the row's largest; R's map is Pi_j / 9."""
        rhos = full_rank_states(50, seed=12)
        probs = coordinates(rhos) @ tomo._TO_PROBS
        for rho, got in zip(rhos, probs):
            want = expected_probabilities(DensityMatrix(rho)) / 9.0
            assert np.abs(got - want).max() <= 1e-15 * want.max()
        np.testing.assert_array_equal(
            tomo._FRAME_REAL.reshape(36, 8, 8), real_form(setting_projectors() / 9.0)
        )

    def test_the_complex_form_is_exactly_hermitian(self):
        """Any 16 real coordinates give an exactly Hermitian matrix with a real diagonal."""
        rng = np.random.default_rng(6)
        coords = rng.normal(size=(40, 16)) * 10.0 ** rng.integers(-8, 8, (40, 16))
        y = tomo._hermitian(coords)
        np.testing.assert_array_equal(y, y.conj().transpose(0, 2, 1))
        assert not np.diagonal(y, axis1=1, axis2=2).imag.any()

    def test_the_real_frame_is_the_real_form_of_the_frame(self):
        """``frame_real`` is bitwise the coordinates of Pi_j / 9 @ ``to_real``, read-only, and exact.

        Each column of ``to_real`` holds one +-1 or none, so the table is exact;
        the complex R read off R8 is bitwise the complex form of R's coordinates.
        """
        frame_coords = coordinates(setting_projectors() / 9.0)
        assert tomo._FRAME_REAL.shape == (36, 64) and not tomo._FRAME_REAL.flags.writeable
        assert (np.abs(tomo._TO_REAL).sum(axis=0) <= 1.0).all()
        np.testing.assert_array_equal(tomo._FRAME_REAL, frame_coords @ tomo._TO_REAL)
        weights = np.random.default_rng(7).random((13, 36))
        r8 = (np.vstack((weights, np.ones((3, 36)))) @ tomo._FRAME_REAL)[:13].reshape(-1, 8, 8)
        r = tomo._rows(weights, frame_coords)
        np.testing.assert_array_equal(r8, (r @ tomo._TO_REAL).reshape(-1, 8, 8))
        np.testing.assert_array_equal(r8[:, :4, :4] + 1j * r8[:, 4:, :4], tomo._hermitian(r))

    def test_coordinate_step_is_the_complex_step(self):
        """One RrhoR step on coordinates equals herm(R Y R) / tr(R Y R) to 1e-15 relative."""
        y = full_rank_states(6, seed=2)
        freqs = np.stack([
            simulate_counts(tilted_bell(p), 3_000, seed=s).frequencies
            for p in (0.5, 0.1) for s in range(3)
        ])
        frame = setting_projectors() / 9.0
        probs = np.einsum("jab,nba->nj", frame, y).real
        floored = probs < tomo.PROBABILITY_FLOOR
        r_op = np.einsum("nj,jab->nab", freqs / np.maximum(probs, tomo.PROBABILITY_FLOOR), frame)
        want = r_op @ y @ r_op
        want = 0.5 * (want + want.conj().transpose(0, 2, 1))
        norm = np.trace(want, axis1=1, axis2=2).real
        r8, step, norm16, floored16 = rrr_step(freqs, coordinates(y))
        np.testing.assert_array_equal(floored16, floored)
        np.testing.assert_allclose(norm16, norm, rtol=1e-15, atol=0)
        scale = np.abs(want / norm[:, None, None]).max()
        got = tomo._hermitian(step)
        assert np.abs(got - want / norm[:, None, None]).max() <= 1e-15 * scale
        r = r8[:, :4, :4] + 1j * r8[:, 4:, :4]
        assert np.abs(r - r_op).max() <= 1e-15 * np.abs(r_op).max()

    def test_a_long_coordinate_fit_gives_an_exactly_hermitian_state(self):
        """After many RrhoR steps on a nearly rank-1 row, rho is exactly Hermitian.

        The iterate is carried as coordinates, so it is Hermitian by
        construction, and the fitted state has an exactly real diagonal.
        The hand-run iteration takes 200 steps, by which the state is nearly
        rank 1; the fit stops at its last RrhoR iteration, before any Newton
        step, on the state of the hand-run's step 120, bit for bit.
        """
        counts = simulate_counts(tilted_bell(0.1), 2_600_000, seed=4).counts
        freqs = counts[None] / 2_600_000
        y = coordinates(np.eye(4)[None] / 4.0)
        budget = tomo._RRR_ITERATIONS
        for step in range(1, 201):
            y = rrr_step(freqs, y)[1]
            if step == budget:
                at_budget = tomo._states(y)[0][0]
        hand_run = tomo._states(y)[0][0]
        assert np.linalg.eigvalsh(hand_run)[:-1].max() < 1e-3  # nearly rank 1
        fits = tomo._mle_fits(counts[None], 2_600_000, tol=tomo.MLE_TOL_FLOOR, max_iter=budget)
        [fit] = fit_rows(fits, "mle")
        assert (fit.iterations, fit.converged) == (budget, False)
        np.testing.assert_array_equal(fit.rho.data, at_budget)
        for rho in (fit.rho.data, hand_run):
            np.testing.assert_array_equal(rho, rho.conj().T)
            assert not np.diag(rho).imag.any()

    def test_loglike_never_decreases(self):
        """Fixed-point iterations monotonically improve the likelihood."""
        rho = tilted_bell(0.5)
        for seed in range(20):
            data = simulate_counts(rho, 2_000, seed=seed)
            recon = mle_reconstruct(data)
            hist = np.asarray(recon.loglike_history)
            assert hist.size >= 2
            # allow only float-roundoff backsliding
            assert np.all(np.diff(hist) >= -1e-6 * np.abs(hist[:-1]))

    def test_converges_on_well_conditioned_data(self):
        """Convergence flag and iteration budget behave as documented."""
        rho = tilted_bell(0.5)
        data = simulate_counts(rho, 10_000, seed=2)
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
                data = simulate_counts(rho, pairs, seed=seed)
                dists.append(trace_distance(mle_reconstruct(data).rho, rho))
            medians.append(np.median(dists))
        assert medians[0] > medians[1] > medians[2]

    def test_estimates_are_physical(self):
        """MLE output is PSD with unit trace."""
        rho = tilted_bell(0.3)
        for seed in range(10):
            data = simulate_counts(rho, 3_000, seed=seed)
            recon = mle_reconstruct(data)
            assert np.linalg.eigvalsh(recon.rho.data).min() > -1e-10
            assert np.trace(recon.rho.data).real == pytest.approx(1.0, abs=1e-10)

    def test_iteration_budget_is_respected(self):
        """A tiny budget stops early and reports non-convergence."""
        rho = tilted_bell(0.5)
        data = simulate_counts(rho, 2_000, seed=1)
        recon = mle_reconstruct(data, max_iter=3)
        assert recon.iterations == 3
        assert not recon.converged

    def test_standard_projectors_sum_to_nine_identity(self):
        """The 36 standard projectors sum to 9 I, so the fit weighs Pi_j / 9 and fits rho itself."""
        total = setting_projectors().sum(axis=0)
        np.testing.assert_allclose(total, 9.0 * np.eye(4), rtol=0, atol=1e-15)

    def test_batched_fits_match_the_per_sample_oracle(self):
        """Each batch row stops on its own step, as if it were fitted alone."""
        rows = [simulate_counts(tilted_bell(0.5), 3_000, seed=s) for s in (0, 1)]
        rows += [simulate_counts(tilted_bell(0.3), 3_000, seed=s) for s in (0, 1, 2)]
        counts = np.stack([d.counts for d in rows])
        switch = tomo._RRR_ITERATIONS
        short, full = (
            fit_rows(tomo._mle_fits(counts, 3_000, max_iter=budget), "mle")
            for budget in (switch + 5, 1_000)
        )
        for budget, fits in ((switch + 5, short), (1_000, full)):
            for row, fit in zip(counts, fits):
                [alone] = fit_rows(tomo._mle_fits(row[None], 3_000, max_iter=budget), "mle")
                assert (fit.iterations, fit.converged) == (alone.iterations, alone.converged)
                np.testing.assert_allclose(fit.rho.data, alone.rho.data, rtol=0, atol=1e-12)
                assert fit.loglike_history == ()
        # two rows certify in the RrhoR phase; three need Newton steps, and
        # stop at the shorter budget without a certificate
        assert [f.iterations for f in short[:2]] == [f.iterations for f in full[:2]]
        assert all(f.iterations < switch for f in full[:2])
        assert [(f.iterations, f.converged) for f in short[2:]] == [(switch + 5, False)] * 3
        assert all(f.converged and switch + 5 < f.iterations < 1_000 for f in full[2:])

    def test_padding_rows_are_inert(self):
        """In batches of 1 to 17 rows, each row is bitwise its one-row fit and its unscreened fit.

        The RrhoR loop pads its batch to whole blocks of 8 with rows Y = I/4 and
        f_j = 1/36, and pads it again whenever rows stop. The rows here stop at
        at least ten different RrhoR iterations, and four or more need Newton
        steps, among them the first, a nearly pure state at 2.6e7 pairs. A
        padding row that warned, as 0 / 0 does, would fail the fit: a
        RuntimeWarning is an error here.
        """
        data = [simulate_counts(tilted_bell(0.1), 26_000_000, seed=0)]
        data += [simulate_counts(tilted_bell(p), 300, seed=s) for s in range(4)
                 for p in (0.5, 0.45, 0.4)]
        data += [simulate_counts(tilted_bell(p), 3_000, seed=s) for p in (0.5, 0.3)
                 for s in range(2)]
        # frequencies fitted at 1 pair per setting, so that rows of any flux share a batch
        counts = np.stack([d.frequencies for d in data])
        fields = ("iterations", "converged", "gap", "floor_hits", "loglike", "rho", "roots")
        alone = [tomo._mle_fits(row[None], 1) for row in counts]
        stops = [int(fit.iterations[0]) for fit in alone]
        assert len({i for i in stops if i < tomo._RRR_ITERATIONS}) >= 10
        assert stops[0] > tomo._RRR_ITERATIONS
        assert sum(i > tomo._RRR_ITERATIONS for i in stops) >= 4
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for size in range(1, 18):
                batch = tomo._mle_fits(counts[:size], 1)
                want = unscreened_fit_batch(counts[:size], 1, tomo.MLE_DEFAULT_TOL,
                                            tomo.MLE_DEFAULT_MAX_ITER)
                assert batch.errors == want.errors == [None] * size
                for name in fields:
                    np.testing.assert_array_equal(getattr(batch, name), getattr(want, name))
                    for i in range(size):
                        np.testing.assert_array_equal(getattr(batch, name)[i],
                                                      getattr(alone[i], name)[0])

    @pytest.mark.parametrize("kernel, flag, read_back", BLAS_KERNELS)
    def test_a_fit_alone_is_bitwise_its_batch_row_on_each_blas_kernel(
        self, kernel, flag, read_back
    ):
        """With OpenBLAS forced to each x86 kernel, a row fitted alone equals its batch row bitwise.

        Each kernel runs in a child process; the check is skipped where the CPU
        lacks the kernel's instructions or the BLAS core cannot be forced.
        """
        try:
            cpu = Path("/proc/cpuinfo").read_text().split()
        except OSError:
            pytest.skip("no /proc/cpuinfo to read the CPU flags from")
        if flag not in cpu:
            pytest.skip(f"the CPU lacks {flag}, so the {kernel} kernel cannot run")
        # the child imports this checkout's package, and the test helpers beside this file
        src = str(Path(tomo.__file__).resolve().parents[1])
        helpers = str(Path(__file__).resolve().parent)
        path = os.pathsep.join(filter(None, [src, helpers, os.environ.get("PYTHONPATH")]))
        env = {**os.environ, "PYTHONPATH": path, "OPENBLAS_CORETYPE": kernel}
        out = subprocess.run(
            [sys.executable, "-c", BATCH_AND_ALONE], capture_output=True, text=True, env=env,
        )
        name = out.stdout.split("\n")[0]
        if name != read_back:
            pytest.skip(f"OpenBLAS {kernel} could not be forced (core read back: {name!r})")
        assert out.returncode == 0, out.stderr

    def test_fits_reach_the_likelihood_of_a_long_oracle_run(self):
        """No fit's -log L exceeds the RrhoR oracle's after 50 000 iterations by more than tol."""
        rows = [simulate_counts(tilted_bell(0.5), 3_000, seed=s) for s in (0, 1)]
        rows += [simulate_counts(tilted_bell(0.3), 3_000, seed=s) for s in (0, 1, 3)]
        rows += [simulate_counts(tilted_bell(0.1), 260_000, seed=1)]
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
            data = simulate_counts(tilted_bell(0.1), 26_000_000, seed=seed)
            fit = mle_reconstruct(data)
            assert fit.converged
            assert fit.iterations <= 400

    def test_nearly_pure_fits_take_few_newton_steps(self):
        """Tilted Bell p = 0.1 at 2.6e5 pairs, 20 seeds in one batch: at most 20 Newton steps.

        Every row needs Newton steps. Cutting mu tenfold after every step
        and each step 1 % short of the boundary gives a median of 9; a step
        length halved until inside took 13, cutting mu only after undamped
        steps 17, and only once the Newton decrement was below mu / 4, 30.
        """
        counts = np.stack([
            simulate_counts(tilted_bell(0.1), 260_000, seed=s).counts for s in range(20)
        ])
        fits = tomo._mle_fits(counts, 260_000)
        newton_steps = fits.iterations - tomo._RRR_ITERATIONS
        assert fits.converged.all() and (newton_steps > 0).all()
        assert np.median(newton_steps) <= 20

    def test_each_newton_iterate_is_evaluated_once(self, monkeypatch):
        """Every Newton step takes the p_j that the fit computed for its iterate.

        Tilted Bell p = 0.1 at 2.6e5 pairs, 4 seeds in one batch: the fit
        computes p_j by ``_rows`` only in the Newton phase, once at the switch
        and once per Newton iteration, and each _newton_system call gets, row
        for row, the p_j of the previous such call on the same iterate.
        """
        counts = np.stack([
            simulate_counts(tilted_bell(0.1), 260_000, seed=s).counts for s in range(4)
        ])
        calls = []
        real_rows, real_system = tomo._rows, tomo._newton_system

        def rows(x, m):
            out = real_rows(x, m)
            if m is tomo._TO_PROBS and sys._getframe(1).f_code is tomo._mle_fits.__code__:
                calls.append(("r", tomo._hermitian(x), out))
            return out

        def newton_system(freqs, y, probs, mu):
            calls.append(("system", y, probs))
            return real_system(freqs, y, probs, mu)

        monkeypatch.setattr(tomo, "_rows", rows)
        monkeypatch.setattr(tomo, "_newton_system", newton_system)
        fits = tomo._mle_fits(counts, 260_000)
        newton_iterations = fits.iterations.max() - tomo._RRR_ITERATIONS
        assert fits.converged.all() and fits.iterations.min() > tomo._RRR_ITERATIONS
        assert len(set(fits.iterations)) > 1  # rows leave the batch between steps
        assert [kind for kind, _, _ in calls] == ["r"] + ["system", "r"] * newton_iterations
        for (_, y_before, probs_before), (_, y, probs) in zip(calls[::2], calls[1::2]):
            for row, p in zip(y, probs):
                [k] = [k for k, before in enumerate(y_before) if np.array_equal(before, row)]
                np.testing.assert_array_equal(p, probs_before[k])

    def test_a_count_set_with_two_nonzero_settings_certifies(self, monkeypatch):
        """Counts 1 and 2 on settings 2 and 15 of 3 pairs each fit, alone and in one batch.

        With mu cut only once the Newton decrement was below mu / 4, this
        set's Newton system went singular and the set was refused with a
        bare LinAlgError.
        """
        sparse = np.zeros(36)
        sparse[[2, 15]] = 1.0, 2.0
        alone = mle_reconstruct(CountData(sparse, 3))
        assert alone.converged and alone.gap <= tomo.MLE_DEFAULT_TOL
        assert alone.iterations > tomo._RRR_ITERATIONS
        horizontal = pure(np.array([1.0, 0.0, 0.0, 0.0]))
        counts = np.stack([
            analytic_counts(horizontal, 3).counts,
            sparse,
            simulate_counts(tilted_bell(0.5), 3, seed=0).counts,
        ])
        batches = fit_batches(monkeypatch)
        fits = fit_rows(tomo._mle_fits(counts, 3), "mle")
        assert batches == [3]  # no row was refitted alone
        assert all(fit.converged for fit in fits)
        # both certify within tol of the optimum of sum_j f_j log p_j, f_j = counts_j / 3
        assert abs(fits[1].loglike - alone.loglike) <= 3 * tomo.MLE_DEFAULT_TOL

    def test_sparse_count_sets_fit_in_one_batch(self, monkeypatch):
        """310 count sets with 2 or 3 non-zero settings fit in one batch, and none is refused.

        Their scaled Newton systems are often singular, exactly or to
        rounding; a bare solve refused 20 of them, and the batch was then
        refitted row by row. So do stacks at the extremes of flux that
        CountData accepts: one setting at the ceiling of 50 pairs per
        setting, at 1 and at 1e18 pairs, and 1 count on setting 0 beside
        the ceiling on one other setting, at 1e18 pairs. A LinAlgError in
        any of these fits would fail the run.
        """
        counts = sparse_count_sets(20)
        assert len(counts) == 310
        batches = fit_batches(monkeypatch)
        fits = tomo._mle_fits(counts, 3)
        assert batches == [310]
        assert fits.errors == [None] * 310
        assert qcore._state_errors(fits.rho) == [None] * 310
        assert fits.converged.all()

        ceiling = 50.0 * np.eye(36)
        pairs = np.zeros((35, 36))
        pairs[:, 0], pairs[np.arange(35), np.arange(1, 36)] = 1.0, 5e19
        for stack, pairs_per_setting in ((ceiling, 1), (ceiling * 1e18, 10**18),
                                         (pairs, 10**18)):
            for row in stack:
                CountData(row, pairs_per_setting)
            batches.clear()
            fits = tomo._mle_fits(stack, pairs_per_setting)
            assert batches == [len(stack)]
            assert fits.errors == [None] * len(stack) and fits.converged.all()
            assert tomo._linear_fits(stack, pairs_per_setting).errors == [None] * len(stack)

    def test_a_stalling_count_set_is_not_refused(self):
        """Counts 1 and 4 on settings 4 and 35 at 1 pair per setting fit to a valid state.

        A step-length search that gave up returned this row's last trial,
        which has an eigenvalue near -1e5, and the state check refused it.
        """
        counts = np.zeros(36)
        counts[[4, 35]] = 1.0, 4.0
        [fit] = fit_rows(tomo._mle_fits(counts[None], 1, max_iter=400), "mle")
        assert not isinstance(fit, Exception)
        assert np.linalg.eigvalsh(fit.rho.data)[0] > -1e-10
        assert fit.converged and fit.iterations > tomo._RRR_ITERATIONS

    def test_a_row_with_no_step_inside_the_cone_keeps_its_iterate(self, monkeypatch):
        """A row whose gradient is not finite has no step and comes back unchanged.

        A finite gradient, however steep, gets a short step inside the cone;
        an infinite one makes dY NaN. Row 0 steps as it does alone.
        """
        y = coordinates(full_rank_states(2, seed=8))
        freqs = np.stack([
            simulate_counts(DensityMatrix(rho), 3_000, seed=k).frequencies
            for k, rho in enumerate(full_rank_states(2, seed=9))
        ])
        mu = np.array([1e-3, 1e-3])
        probs = tomo._rows(y, tomo._TO_PROBS)
        real = tomo._newton_system

        def steep(freqs, y, probs, mu):
            grad, hess = real(freqs, y, probs, mu)
            grad[-1:] *= np.inf  # the last row of the batch
            return grad, hess

        alone = tomo._newton_step(freqs[:1], y[:1], probs[:1], mu[:1])
        monkeypatch.setattr(tomo, "_newton_system", steep)
        with np.errstate(invalid="ignore"):  # inf meets the zeros of a pseudo-inverse
            new = tomo._newton_step(freqs, y, probs, mu)
        np.testing.assert_array_equal(new[1], y[1])
        assert np.abs(alone[0] - y[0]).max() > 1e-3  # row 0 does step
        np.testing.assert_allclose(new[0], alone[0], rtol=0, atol=1e-15)

    def test_a_step_is_cut_short_of_the_boundary_of_the_cone(self, monkeypatch):
        """A full step inside the cone is taken whole; one that leaves it stops 1 % short.

        With a unit Hessian the step is -g. Row 0's is short and lands on
        Y + dY bit for bit. Row 1's leaves the cone and is cut to
        t = 0.99 / -lambda, lambda = lambda_min(Y^-1/2 dY Y^-1/2), so the new
        iterate has lambda_min(Y^-1/2 Y_new Y^-1/2) = 1 - 0.99.
        """
        y = full_rank_states(2, seed=13)
        grad = np.random.default_rng(14).normal(size=(2, 15))
        grad[0] *= 1e-4 / np.linalg.norm(grad[0])
        grad[1] *= 1e2 / np.linalg.norm(grad[1])
        monkeypatch.setattr(
            tomo, "_newton_system", lambda *args: (grad, np.tile(np.eye(15), (2, 1, 1)))
        )
        new = tomo._newton_step(None, coordinates(y), None, None)
        dy = -grad @ tomo._BASIS_COORDS
        np.testing.assert_array_equal(new[0], coordinates(y)[0] + dy[0])
        np.testing.assert_array_equal(
            tomo._hermitian(dy), (-grad @ pauli_basis().reshape(15, 16)).reshape(-1, 4, 4)
        )
        dy, new = tomo._hermitian(dy), tomo._hermitian(new)
        vals, vecs = np.linalg.eigh(y[1])
        root = (vecs / np.sqrt(vals)) @ vecs.conj().T
        assert np.linalg.eigvalsh(root @ dy[1] @ root)[0] < -1.0  # the full step leaves
        assert abs(np.linalg.eigvalsh(root @ new[1] @ root)[0] - 0.01) <= 1e-12

    def test_singular_newton_systems_take_the_minimum_norm_step_row_by_row(self, monkeypatch):
        """Rows whose scaled Hessian is singular take the pseudo-inverse step; the others solve.

        Row 1's Hessian has a zero row and column, so its LU factorisation
        breaks down; row 2's has rank 14 up to rounding, which the solve
        does not notice but the length of its step gives away. Each row
        takes the same step as in a batch of its own, and the zero
        diagonal raises no warning.
        """
        y = coordinates(full_rank_states(3, seed=10))
        freqs = np.stack([
            simulate_counts(DensityMatrix(rho), 3_000, seed=k).frequencies
            for k, rho in enumerate(full_rank_states(3, seed=11))
        ])
        mu = np.full(3, 1e-3)
        probs = tomo._rows(y, tomo._TO_PROBS)
        grad, hess = tomo._newton_system(freqs, tomo._hermitian(y), probs, mu)
        hess[1, 4, :] = hess[1, :, 4] = 0.0
        v = np.random.default_rng(12).normal(size=(15, 14))
        hess[2] = v @ v.T  # rank 14

        def step(rows):
            """The step along each E_k of the rows ``rows``, fitted as one batch."""
            monkeypatch.setattr(tomo, "_newton_system", lambda *args: (grad[rows], hess[rows]))
            new = tomo._newton_step(freqs[rows], y[rows], probs[rows], mu[rows])
            return np.einsum("bij,kji->bk", tomo._hermitian(new - y[rows]), pauli_basis()).real

        together = step([0, 1, 2])
        for i in range(3):
            np.testing.assert_array_equal(step([i])[0], together[i])
        wants = [np.linalg.solve(hess[0], -grad[0])]
        for i in (1, 2):
            d = np.diagonal(hess[i]).copy()
            d[d <= 0.0] = 1.0
            scale = 1.0 / np.sqrt(d)
            scaled = scale[:, None] * hess[i] * scale
            pinv = np.linalg.pinv(scaled, rcond=1e-12, hermitian=True)
            wants.append(scale * (pinv @ (-scale * grad[i])))
        # the cut at the boundary may shorten a step, so compare directions
        for got, want in zip(together, wants):
            unit = got / np.linalg.norm(got) - want / np.linalg.norm(want)
            assert np.abs(unit).max() < 1e-12

    def test_converged_exactly_when_the_gap_is_within_tol(self):
        """The convergence flag is the certificate gap <= tol, at any budget."""
        rows = [simulate_counts(tilted_bell(p), 3_000, seed=1) for p in (0.5, 0.3)]
        counts = np.stack([d.counts for d in rows])
        flags = []
        for tol, budget in ((1e-10, 3), (1e-10, 220), (1e-10, 10_000), (1e-6, 10_000)):
            for fit in fit_rows(tomo._mle_fits(counts, 3_000, tol=tol, max_iter=budget), "mle"):
                assert fit.converged == (fit.gap <= tol)
                flags.append(fit.converged)
        assert True in flags and False in flags
        assert linear_inversion(rows[0]).gap == 0.0

    # budgets that end in the RrhoR phase, around the switch to Newton steps,
    # and deep in the Newton phase
    @pytest.mark.parametrize("max_iter", [
        1, 3, tomo._RRR_ITERATIONS - 1, tomo._RRR_ITERATIONS, tomo._RRR_ITERATIONS + 1,
        199, 200, 201, 220,
    ])
    @pytest.mark.parametrize("tol", [1e-2, 1e-10])
    def test_screened_fits_match_the_unscreened_loop_bitwise(self, tol, max_iter):
        """Skipping eigvalsh where the tr(RYR) bound rules a stop out changes no bit of a fit."""
        horizontal = pure(np.array([1.0, 0.0, 0.0, 0.0]))
        batches = [
            (3_000, [
                simulate_counts(tilted_bell(p), 3_000, seed=s).counts
                for p in (0.5, 0.3, 0.1) for s in range(3)
            ]),
            # exact zeros in the counts of pure states drive probabilities
            # below PROBABILITY_FLOOR
            (3, [
                analytic_counts(horizontal, 3).counts,
                analytic_counts(tilted_bell(0.1), 3).counts,
                simulate_counts(tilted_bell(0.5), 3, seed=0).counts,
            ]),
        ]
        fields = ("iterations", "converged", "gap", "floor_hits", "loglike", "rho", "roots")
        floor_hits = 0
        for pairs, rows in batches:
            counts = np.stack(rows)
            screened = tomo._mle_fits(counts, pairs, tol, max_iter)
            want = unscreened_fit_batch(counts, pairs, tol, max_iter)
            assert screened.errors == want.errors == [None] * len(counts)
            for name in fields:
                np.testing.assert_array_equal(getattr(screened, name), getattr(want, name))
            floor_hits += screened.floor_hits.sum()
        # the pure rows reach the floor once the fit runs long and tight
        assert floor_hits > 0 or tol > 1e-6 or max_iter < tomo._RRR_ITERATIONS - 1

    def test_the_screen_skips_most_eigensolves(self, monkeypatch):
        """On the default purify output batch at most 35% of row-iterations reach an eigensolve.

        Without the screens every open row goes through ``eigh`` or
        ``eigvalsh`` at every iteration, which is the sum of the rows'
        iterations.
        """
        # one batch: input rows, then output rows
        counts, pairs, opts, _ = default_fit_batch(monkeypatch, "purify")
        assert len(counts) == 202
        counts = counts[101:]
        fitters = (tomo._mle_fits.__code__, unscreened_fit_batch.__code__)
        solved = [0]  # rows the fitters passed to eigh or eigvalsh
        for name in ("eigh", "eigvalsh"):
            def spy(a, *rest, real=getattr(np.linalg, name), **kwargs):
                if sys._getframe(1).f_code in fitters:
                    solved[0] += len(a)
                return real(a, *rest, **kwargs)

            monkeypatch.setattr(np.linalg, name, spy)
        counted = []
        for fit in (unscreened_fit_batch, tomo._mle_fits):
            solved[0] = 0
            iterations = int(fit(counts, pairs, **opts).iterations.sum())
            counted.append((solved[0], iterations))
        (plain, plain_iterations), (rows, iterations) = counted
        assert plain == plain_iterations == iterations
        assert rows <= 0.35 * iterations

    def test_no_certificate_eigensolve_gets_an_empty_stack(self, monkeypatch):
        """An iteration whose screens rule out every open row calls no eigensolve at all.

        The batch mixes rows that certify in the RrhoR phase with a nearly
        pure row that needs Newton steps, so both phases reach the
        certificate.
        """
        counts = np.stack([
            simulate_counts(tilted_bell(p), 3_000, seed=s).counts
            for p in (0.5, 0.3) for s in range(3)
        ] + [analytic_counts(tilted_bell(0.1), 3_000).counts])
        code = tomo._mle_fits.__code__
        sizes = []  # stack sizes of the eigh and eigvalsh calls made by the fit loop
        for name in ("eigh", "eigvalsh"):
            def spy(a, *rest, real=getattr(np.linalg, name), **kwargs):
                if sys._getframe(1).f_code is code:
                    sizes.append(len(a))
                return real(a, *rest, **kwargs)

            monkeypatch.setattr(np.linalg, name, spy)
        fits = tomo._mle_fits(counts, 3_000)
        assert fits.converged.all()
        assert fits.iterations.min() < tomo._RRR_ITERATIONS < fits.iterations.max()
        assert 0 < len(sizes) < fits.iterations.max()
        assert min(sizes) > 0

    def test_the_quotient_screen_rules_out_only_rows_that_cannot_stop(self, monkeypatch):
        """Every row the Rayleigh-quotient screen rules out has lambda_max(R) above its ceiling.

        The batch mixes ten rows that certify in the RrhoR phase with two
        that need Newton steps after the whole RrhoR phase. Each of the ten
        reaches the screen once with no vector, and passes it then.
        """
        counts = np.stack(
            [simulate_counts(tilted_bell(0.5), 3_000, seed=s).counts for s in range(10)]
            + [simulate_counts(tilted_bell(0.3), 3_000, seed=0).counts,
               analytic_counts(tilted_bell(0.1), 3_000).counts]
        )
        screen = tomo._quotient_screen
        ruled_out = []  # lambda_max(R) - ceiling of each row ruled out
        fresh = []  # whether each row never eigensolved passed

        def spy(v, r8, ceiling):
            passed = screen(v, r8, ceiling)
            top = np.linalg.eigvalsh(r8[~passed])[:, -1]  # the real form's spectrum is R's, doubled
            ruled_out.append(top - ceiling[~passed])
            fresh.append(passed[~v.any(axis=1)])
            return passed

        monkeypatch.setattr(tomo, "_quotient_screen", spy)
        fits = tomo._mle_fits(counts, 3_000)
        assert fits.converged.all()
        assert fits.iterations.min() < tomo._RRR_ITERATIONS < fits.iterations.max()
        ruled_out, fresh = np.concatenate(ruled_out), np.concatenate(fresh)
        assert len(ruled_out) > 0 and ruled_out.min() > 0.0
        assert len(fresh) == 10 and fresh.all()

    def test_few_rows_reach_the_eigensolve_before_the_last_rrr_iteration(self, monkeypatch):
        """On the default purify batch at most 2.5 rows per fit go through eigh (2.1 measured).

        Each row passes the tr(RYR) bound for a few iterations before it
        stops; the quotient screen rules out most of those once the row has
        a vector, so the eigensolves are about the rows' first solve and
        the one that stops them.
        """
        counts, pairs, opts, _ = default_fit_batch(monkeypatch, "purify")
        solved = [0]  # rows passed to eigh by the fit loop
        real = np.linalg.eigh

        def spy(a, *rest, **kwargs):
            if sys._getframe(1).f_code is tomo._mle_fits.__code__:
                solved[0] += len(a)
            return real(a, *rest, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", spy)
        fits = tomo._mle_fits(counts, pairs, **opts)
        assert fits.converged.all() and fits.iterations.max() < tomo._RRR_ITERATIONS
        assert len(counts) <= solved[0] <= 2.5 * len(counts)

    def test_a_row_with_no_vector_reaches_the_eigensolve(self):
        """A zero vector rules out no row, whatever R and the ceiling; a NaN quotient neither.

        Only a unit vector can bound lambda_max(R) from below, and a row
        never eigensolved has none.
        """
        rng = np.random.default_rng(5)
        g = rng.normal(size=(50, 4, 4)) + 1j * rng.normal(size=(50, 4, 4))
        r8 = real_form(1e3 * (g @ g.conj().transpose(0, 2, 1)))
        r8[:2, 0, 0] = np.nan
        ceiling = np.full(50, 1e-300)
        assert tomo._quotient_screen(np.zeros((50, 8)), r8, ceiling).all()
        unit = np.zeros((50, 8))
        unit[:, 0] = 1.0
        passed = tomo._quotient_screen(unit, r8, ceiling)
        assert passed[:2].all() and not passed[2:].any()

    def test_a_huge_tol_rules_out_no_row(self):
        """With tol at the float maximum the screen's ceiling is inf, and every row stops at once."""
        counts = np.stack([
            simulate_counts(tilted_bell(p), 3_000, seed=0).counts for p in (0.5, 0.1)
        ])
        fits = tomo._mle_fits(counts, 3_000, tol=sys.float_info.max)
        assert fits.converged.all() and (fits.iterations == 1).all()

    def test_newton_system_matches_the_einsum_oracle(self):
        """The tabled gradient and Hessian equal the einsum forms to 1e-10, per row.

        Rows are random full-rank states and nearly pure ones, Y = (1 - e) P
        + e I / 4 with e = 1e-12, whose settings orthogonal to the ket have
        p_j below PROBABILITY_FLOOR. Each row is compared relative to its
        largest entry.
        """
        kets = [np.array([1.0, 0.0, 0.0, 0.0]), tilted_bell(0.1).data[:, 0] / np.sqrt(0.1)]
        pure = np.stack([
            (1.0 - 1e-12) * np.outer(ket, ket.conj()) + 1e-12 * np.eye(4) / 4.0 for ket in kets
        ]).astype(complex)
        y = np.concatenate([full_rank_states(6, seed=3), pure])
        freqs = np.stack([
            simulate_counts(DensityMatrix(rho), 3_000, seed=k).frequencies
            for k, rho in enumerate(full_rank_states(len(y), seed=4))
        ])
        mu = 10.0 ** np.random.default_rng(5).uniform(-10.0, -1.0, size=len(y))
        probs = probabilities(y)
        floored = probs < tomo.PROBABILITY_FLOOR
        assert not floored[:6].any() and floored[6:].any(axis=1).all()
        got = tomo._newton_system(freqs, y, probs, mu)
        for new, old in zip(got, newton_system_oracle(freqs, y, mu)):
            assert new.shape == old.shape
            scale = np.abs(old).reshape(len(y), -1).max(axis=1)
            assert (np.abs(new - old).reshape(len(y), -1).max(axis=1) <= 1e-10 * scale).all()

    def test_newton_system_rows_do_not_depend_on_the_batch(self):
        """Each row's gradient and Hessian are bitwise those of the row computed alone.

        A 2-D product of the weights with the tangents rounds by row count;
        here it moved the gradient by up to 1.8e-15.
        """
        y = full_rank_states(24, seed=15)
        freqs = np.stack([
            simulate_counts(DensityMatrix(rho), 3_000, seed=k).frequencies
            for k, rho in enumerate(full_rank_states(24, seed=16))
        ])
        mu = 10.0 ** np.random.default_rng(17).uniform(-10.0, -1.0, size=24)
        probs = probabilities(y)
        grad, hess = tomo._newton_system(freqs, y, probs, mu)
        for i in range(24):
            rows = slice(i, i + 1)
            alone = tomo._newton_system(freqs[rows], y[rows], probs[rows], mu[rows])
            np.testing.assert_array_equal(alone[0][0], grad[i])
            np.testing.assert_array_equal(alone[1][0], hess[i])

    def test_newton_system_is_the_derivative_of_the_barrier_problem(self):
        """Central differences along each E_k give the gradient, and of it the Hessian.

        The objective is -sum_j f_j log p_j - mu log det Y on full-rank
        states, where no p_j reaches the floor.
        """
        y = full_rank_states(4, seed=6)
        freqs = np.stack([
            simulate_counts(DensityMatrix(rho), 3_000, seed=k).frequencies
            for k, rho in enumerate(full_rank_states(4, seed=7))
        ])
        mu = np.array([1e-1, 1e-2, 1e-3, 1e-4])

        def objective(y):
            probs = probabilities(y)
            return -(freqs * np.log(probs)).sum(axis=1) - mu * np.linalg.slogdet(y)[1]

        def system(y):
            return tomo._newton_system(freqs, y, probabilities(y), mu)

        grad, hess = system(y)
        # each row against its largest entry; the steps keep the truncation
        # and rounding errors of the differences near 5e-8 of it
        g_scale, h_scale = np.abs(grad).max(axis=1), np.abs(hess).max(axis=(1, 2))[:, None]
        for k, direction in enumerate(pauli_basis()):
            h = 1e-6
            fd = (objective(y + h * direction) - objective(y - h * direction)) / (2.0 * h)
            assert (np.abs(grad[:, k] - fd) <= 1e-6 * g_scale).all()
            h = 1e-7
            up, down = (system(y + s * h * direction)[0] for s in (1.0, -1.0))
            assert (np.abs(hess[:, :, k] - (up - down) / (2.0 * h)) <= 1e-6 * h_scale).all()

    def test_zero_rows_are_refused_before_the_batch(self):
        """A row of zeros is refused by name; the other row's fit is bitwise its fit alone."""
        good = simulate_counts(tilted_bell(0.5), 3_000, seed=1).counts
        [alone] = fit_rows(tomo._mle_fits(good[None], 3_000), "mle")
        empty, fit = fit_rows(tomo._mle_fits(np.stack([np.zeros(36), good]), 3_000), "mle")
        assert isinstance(empty, ValueError) and "all zero" in str(empty)
        assert (fit.iterations, fit.converged, fit.loglike, fit.gap, fit.floor_hits) == (
            alone.iterations, alone.converged, alone.loglike, alone.gap, alone.floor_hits
        )
        np.testing.assert_array_equal(fit.rho.data, alone.rho.data)

    def test_all_zero_counts_are_refused(self):
        """Both MLE entry points say why they cannot fit counts that are all zero."""
        data = CountData(np.zeros(36), 100)
        with pytest.raises(ValueError, match="all zero"):
            mle_reconstruct(data)
        # a failed point fit (row 0 of the batch) is raised, not counted
        with pytest.raises(ValueError, match="all zero"):
            monte_carlo_metrics(data, n_samples=10, method="mle")

    def test_parameter_validation(self):
        """Non-positive tolerances and budgets, and budgets that are not integers, are refused."""
        rho = tilted_bell(0.5)
        data = analytic_counts(rho, 100)
        with pytest.raises(ValueError, match="tol"):
            mle_reconstruct(data, tol=0.0)
        with pytest.raises(ValueError, match="max_iter"):
            mle_reconstruct(data, max_iter=0)
        # no iteration equals 130.5, so such a budget would never stop a row
        for bad in (130.5, math.nan, math.inf, "50"):
            with pytest.raises(ValueError, match="max_iter"):
                mle_reconstruct(data, tol=tomo.MLE_TOL_FLOOR, max_iter=bad)
        # an integral float is the int budget, as for the config's mle_max_iter
        floor = tomo.MLE_TOL_FLOOR
        whole, exact = (mle_reconstruct(data, tol=floor, max_iter=n) for n in (50.0, 50))
        assert whole.iterations == exact.iterations == 50 and not whole.converged
        np.testing.assert_array_equal(whole.rho.data, exact.rho.data)

    @pytest.mark.parametrize("tol", [math.inf, math.nan])
    def test_a_tol_that_is_not_finite_is_refused(self, tol):
        """At tol = inf the first iterate would be reported converged."""
        data = analytic_counts(tilted_bell(0.5), 100)
        with pytest.raises(ValueError, match="tol must be finite"):
            mle_reconstruct(data, tol=tol)
        with pytest.raises(ValueError, match="tol must be finite"):
            monte_carlo_metrics(data, n_samples=10, tol=tol)
        with pytest.raises(ValueError, match="tol must be finite"):
            tomo._mle_fits(data.counts[None], 100, tol=tol)

    @pytest.mark.parametrize("tol", [1e-300, 1e-15, tomo.MLE_TOL_FLOOR / 2])
    def test_a_tol_below_the_rounding_of_the_gap_is_refused(self, tol):
        """Below MLE_TOL_FLOOR, gap <= tol would certify what rounding cannot resolve.

        At tol 1e-300 a Bell state's analytic fit stops with gap exactly 0.0.
        The floor itself is accepted.
        """
        data = analytic_counts(tilted_bell(0.5), 100)
        want = f"tol must be at least {tomo.MLE_TOL_FLOOR:g}"
        with pytest.raises(ValueError, match=want):
            mle_reconstruct(data, tol=tol)
        with pytest.raises(ValueError, match=want):
            monte_carlo_metrics(data, n_samples=10, tol=tol)
        with pytest.raises(ValueError, match=want):
            tomo._mle_fits(data.counts[None], 100, tol=tol)
        fit = mle_reconstruct(data, tol=tomo.MLE_TOL_FLOOR)
        assert fit.converged and 0.0 < fit.gap <= tomo.MLE_TOL_FLOOR


class TestChsh:
    def test_tilted_bell_closed_form(self):
        """S follows sqrt(2)(1 + 2 sqrt(p(1-p))) at the fixed analyzers."""
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

    def test_cached_operators_match_uncached_value(self):
        """The cached readout table is its rebuild from the literals, and reads F and S."""
        a, a_prime, b, b_prime = (
            polarizer(t) for t in (0.0, np.pi / 4, np.pi / 8, 3 * np.pi / 8)
        )
        ket = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0)
        operators = (np.outer(ket, ket), np.kron(a, b - b_prime) + np.kron(a_prime, b + b_prime))
        want = np.zeros((32, 2))
        for column, op in enumerate(operators):
            want[0::2, column], want[1::2, column] = op.real.ravel(), op.imag.ravel()
        np.testing.assert_array_equal(tomo._READOUT, want)
        for seed in range(50):
            rho = random_state(2, kind="mixed" if seed % 2 else "pure", seed=seed)
            assert chsh_value(rho) == pytest.approx(chsh_uncached(rho), rel=0, abs=2e-15)
            assert readout_row(rho)[0] == pytest.approx(
                (ket @ rho.data @ ket).real, rel=0, abs=4e-16
            )

    def test_stacked_metric_rows_match_the_one_state_metrics(self):
        """One stacked metric pass gives every state its one-state metrics bit for bit."""
        states = [
            random_state(2, kind="mixed" if seed % 2 else "pure", seed=seed)
            for seed in range(40)
        ] + [DensityMatrix(np.diag([0.5, 0.0, 0.5, 0.0]).astype(complex))]
        stack = np.stack([rho.data for rho in states])
        rows = tomo._metric_rows(stack, qcore._roots(stack))
        assert rows.shape == (len(states), len(tomo.METRIC_NAMES))
        for row, rho in zip(rows, states):
            fid, s_value = readout_row(rho)
            assert row.tolist() == [fid, concurrence(rho), purity(rho), s_value]
            assert chsh_value(rho) == row[3]


class TestMonteCarloMetrics:
    def test_analytic_mode_has_zero_sigma(self):
        """Without resampling the spread collapses to exactly zero."""
        rho = tilted_bell(0.5)
        data = analytic_counts(rho, 10_000)
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
        data = simulate_counts(rho, 2_000, seed=7)
        report = monte_carlo_metrics(data, n_samples=40, seed=1, method="linear")
        assert report.fidelity_sigma > 0.0
        assert report.s_value_sigma > 0.0
        assert report.n_samples == 40
        assert report.n_failed == 0

    def test_point_values_come_from_original_counts(self):
        """The point fit is row 0 of the batch: the one-row fit of the original counts."""
        data = simulate_counts(tilted_bell(0.5), 2_000, seed=9)
        report = monte_carlo_metrics(data, n_samples=20, seed=1, method="linear")
        recon = linear_inversion(data)
        np.testing.assert_array_equal(report.point_fit.rho.data, recon.rho.data)
        assert report.fidelity == readout_row(recon.rho)[0]
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
        data = simulate_counts(rho, 2_000, seed=5)
        a = monte_carlo_metrics(data, n_samples=20, seed=4, method="linear")
        b = monte_carlo_metrics(data, n_samples=20, seed=4, method="linear")
        assert a.fidelity_sigma == b.fidelity_sigma
        assert a.s_value == b.s_value

    def test_too_few_samples_rejected(self):
        """Fewer than 10 bootstrap samples is a configuration error."""
        rho = tilted_bell(0.5)
        data = analytic_counts(rho, 100)
        with pytest.raises(ValueError, match="n_samples"):
            monte_carlo_metrics(data, n_samples=5, seed=0, method="linear")
        for bad in (20.5, math.nan, "20"):
            with pytest.raises(ValueError, match="n_samples"):
                monte_carlo_metrics(data, n_samples=bad, seed=0, method="linear")
        # an integral float is the int sample count
        whole, exact = (
            monte_carlo_metrics(data, n_samples=n, seed=0, method="linear") for n in (20.0, 20)
        )
        assert whole == exact and type(whole.n_samples) is int

    def test_pervasive_failures_raise(self):
        """If most bootstrap samples fail, the run aborts loudly."""
        # valid point estimate at the 50 * pairs_per_setting count ceiling,
        # but nearly every Poisson resample exceeds it somewhere
        data = CountData(np.full(36, 50.0), 1)
        linear_inversion(data)
        with pytest.raises(RuntimeError, match="10/10"):
            monte_carlo_metrics(data, n_samples=10, seed=0, method="linear")

    @pytest.mark.parametrize("n_samples", [10, 23, 100])
    def test_batched_sigmas_match_per_sample_loop(self, n_samples):
        """The batched linear bootstrap equals one inversion per resample, bitwise."""
        for seed in (0, 1, 17):
            data = simulate_counts(tilted_bell(0.4), 3_000, seed=seed + 5)
            report = monte_carlo_metrics(data, n_samples=n_samples, seed=seed, method="linear")
            assert report.n_failed == 0
            np.testing.assert_array_equal(
                sigmas(report), linear_sigmas_oracle(data, n_samples, seed)
            )

    @pytest.mark.parametrize("visibility", [0.5, 0.9])
    def test_linear_sigmas_match_the_delta_method(self, visibility):
        """Linear bootstrap sigmas of F and S meet their delta-method sigmas within 6 %.

        An unclipped linear estimate reads value = (f . c) / tau: c = pinv @ readout, and
        tau = f . t the trace of the raw estimate, t = pinv @ vec(I). Poisson counts n_j
        then give sigma = sqrt(sum_j g_j^2 n_j) / N, g = (c - value t) / tau. The bound is
        about 5 sampling sds of a 4 000-draw sd.
        """
        bell = np.outer(PHI_PLUS_KET, PHI_PLUS_KET.conj())
        werner = DensityMatrix(visibility * bell + (1.0 - visibility) * np.eye(4) / 4.0)
        data = simulate_counts(werner, 26_000, seed=0)
        report = monte_carlo_metrics(data, n_samples=4000, seed=0, method="linear")
        c = tomo._PINV @ tomo._READOUT
        t = tomo._PINV @ np.eye(4, dtype=complex).reshape(16).view(float)
        np.testing.assert_allclose(t, 1.0 / 9.0, rtol=1e-14)
        tau = data.frequencies @ t
        values = data.frequencies @ c / tau
        # full rank, so no eigenvalue was clipped: the point values are the formula's
        np.testing.assert_allclose([report.fidelity, report.s_value], values, rtol=0, atol=1e-14)
        g = (c - values * t[:, None]) / tau
        want = np.sqrt((g**2 * data.counts[:, None]).sum(axis=0)) / data.pairs_per_setting
        got = np.array([report.fidelity_sigma, report.s_value_sigma])
        np.testing.assert_array_less(np.abs(got / want - 1.0), 0.06)

    def test_invalid_sample_state_is_dropped_and_counted(self, monkeypatch):
        """A resample whose state fails validation counts in n_failed."""
        data = simulate_counts(tilted_bell(0.5), 2_000, seed=3)
        monkeypatch.setattr(tomo, "_state_errors", reject_second())
        report = monte_carlo_metrics(data, n_samples=20, seed=2, method="linear")
        assert report.n_failed == 1
        np.testing.assert_array_equal(
            sigmas(report), linear_sigmas_oracle(data, 20, 2, skip=(0,))
        )

    @pytest.mark.parametrize("method", ["linear", "mle"])
    def test_nan_fitted_state_is_dropped_and_counted(self, monkeypatch, method):
        """A resample whose fitted state has NaN entries is refused and counted in n_failed."""
        data = simulate_counts(tilted_bell(0.5), 2_000, seed=3)
        opts = dict(n_samples=20, seed=2, method=method)
        monkeypatch.setattr(tomo, "_state_errors", reject_second())
        want = monte_carlo_metrics(data, **opts)
        # eigvalsh returns on this matrix instead of failing, so only an
        # explicit finiteness check can refuse it
        nan_state = np.eye(4, dtype=complex) / 4.0
        nan_state[0, 1] = nan_state[1, 0] = np.nan
        monkeypatch.setattr(tomo, "_state_errors", reject_second(nan_state))
        got = monte_carlo_metrics(data, **opts)
        assert got.n_failed == 1
        assert got == want

    def test_mle_bootstrap_matches_the_per_sample_oracle(self):
        """The batched MLE bootstrap equals one fit per resample, each fitted alone."""
        data = simulate_counts(tilted_bell(0.3), 3_000, seed=4)
        # a budget at which some of the fits certify and some do not
        budget = tomo._RRR_ITERATIONS + 8
        report = monte_carlo_metrics(data, n_samples=12, seed=1, method="mle", max_iter=budget)
        fits = [mle_reconstruct(sample, max_iter=budget) for sample in resamples(data, 12, 1)]
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
        data = simulate_counts(tilted_bell(0.5), 2_000, seed=3)
        report = monte_carlo_metrics(data, n_samples=10, seed=1, method="mle", max_iter=3)
        assert report.n_nonconverged == 10
        assert report.n_failed == 0
        assert report.as_dict()["n_nonconverged"] == 10
        want, _ = mle_sigmas_oracle(data, 10, 1, max_iter=3)
        np.testing.assert_allclose(sigmas(report), want, rtol=1e-6)

    def test_invalid_mle_sample_state_is_dropped_and_counted(self, monkeypatch):
        """An MLE row failing validation counts in n_failed, not n_nonconverged."""
        data = simulate_counts(tilted_bell(0.5), 2_000, seed=3)
        monkeypatch.setattr(tomo, "_state_errors", reject_second())
        report = monte_carlo_metrics(data, n_samples=20, seed=2, method="mle", max_iter=3)
        assert (report.n_failed, report.n_nonconverged) == (1, 19)
        want, _ = mle_sigmas_oracle(data, 20, 2, max_iter=3, skip=(0,))
        np.testing.assert_allclose(sigmas(report), want, rtol=1e-6)

    def test_all_zero_resamples_are_counted_as_failed(self):
        """A resample with no counts at all is dropped and counted in n_failed."""
        counts = np.zeros(36)
        counts[[0, 7]] = 1.0  # one HH and one VV coincidence
        data = CountData(counts, 1)
        empty = [not s.counts.any() for s in resamples(data, 20, 3)].count(True)
        assert empty == 2  # some, but within the 10% the report tolerates
        report = monte_carlo_metrics(data, n_samples=20, seed=3, method="mle")
        assert (report.n_failed, report.n_nonconverged) == (empty, 0)

    def test_unknown_method_is_refused(self):
        """A method name other than mle or linear is a ValueError, not a failed bootstrap."""
        data = simulate_counts(tilted_bell(0.5), 2_000, seed=3)
        with pytest.raises(ValueError, match="method"):
            monte_carlo_metrics(data, n_samples=10, method="lsq")

    def test_linear_inversion_refuses_an_unknown_option_by_name(self):
        """A misspelt MLE option is a TypeError naming it with method="linear" too."""
        data = simulate_counts(tilted_bell(0.5), 2_000, seed=3)
        with pytest.raises(TypeError, match="'tolerance'"):
            monte_carlo_metrics(data, n_samples=10, method="linear", tolerance=1e-6)
        with pytest.raises(TypeError, match="'bogus'"):
            tomo._bootstrap_reports(*stacked([data, data]), [0, 1], 10, "linear", bogus=3)
        # the prefix of the option names in a refusal is not an option
        for method in ("linear", "mle"):
            with pytest.raises(TypeError, match="'prefix'"):
                monte_carlo_metrics(data, n_samples=10, method=method, prefix="x")
            with pytest.raises(TypeError, match="'prefix'"):
                tomo._bootstrap_reports(*stacked([data, data]), [0, 1], 10, method, prefix="x")

    @pytest.mark.parametrize("tol", [math.inf, math.nan, 1e-300])
    def test_linear_inversion_refuses_the_tols_the_fit_refuses(self, tol):
        """A tol that the MLE refuses is refused with method="linear" too, by the same message."""
        want = "tol must be at least" if math.isfinite(tol) else "tol must be finite"
        data = simulate_counts(tilted_bell(0.5), 2_000, seed=3)
        with pytest.raises(ValueError, match=want):
            monte_carlo_metrics(data, n_samples=10, method="linear", tol=tol)
        with pytest.raises(ValueError, match=want):
            tomo._bootstrap_reports(*stacked([data, data]), [0, 1], 10, "linear", tol=tol)

    @pytest.mark.parametrize("max_iter", [2.5, 0])
    def test_linear_inversion_refuses_the_max_iters_the_fit_refuses(self, max_iter):
        """A fractional or non-positive max_iter is refused with method="linear" too."""
        want = "max_iter must be at least 1" if max_iter == 0 else "max_iter must be an integer"
        data = simulate_counts(tilted_bell(0.5), 2_000, seed=3)
        with pytest.raises(ValueError, match=want):
            monte_carlo_metrics(data, n_samples=10, method="linear", max_iter=max_iter)
        with pytest.raises(ValueError, match=want):
            tomo._bootstrap_reports(*stacked([data, data]), [0, 1], 10, "linear",
                                    max_iter=max_iter)

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

    @pytest.mark.parametrize(
        "name",
        ["fidelity_sigma", "concurrence_sigma", "purity_sigma", "s_value_sigma", "s_value"],
    )
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_report_refuses_non_finite_values(self, name, bad):
        """A NaN or infinite CHSH value or sigma is refused, with the field named."""
        values = dict(
            fidelity=0.5, fidelity_sigma=0.0, concurrence=0.0, concurrence_sigma=0.0,
            purity=0.5, purity_sigma=0.0, s_value=2.0, s_value_sigma=0.0, n_samples=10,
        )
        values[name] = bad
        with pytest.raises(ValueError, match=f"^{name} = "):
            MetricsReport(**values)

    def test_as_dict_round_trip(self):
        """Report serialization carries every metric and spread."""
        rho = tilted_bell(0.5)
        data = analytic_counts(rho, 100)
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
        data = analytic_counts(tilted_bell(0.5), 100)
        report = monte_carlo_metrics(data, n_samples=10, method="linear", resample=False)
        assert list(report.as_dict()) == [
            "fidelity", "fidelity_sigma", "concurrence", "concurrence_sigma",
            "purity", "purity_sigma", "s_value", "s_value_sigma",
            "n_samples", "n_failed", "n_nonconverged",
        ]


class _Captured(Exception):
    pass


def stacked(datas):
    """The count stack and the one shared flux of count sets, as _bootstrap_reports takes them."""
    [pairs] = {data.pairs_per_setting for data in datas}
    return np.stack([data.counts for data in datas]), pairs


def sweep_branches(seed, count_mode, method):
    """The count sets, bootstrap seeds and options of every branch of the default chsh-sweep.

    The run stops at its one tomography pass, before any fit.
    """
    captured = {}

    def capture(counts, pairs, seeds, **options):
        captured.update(datas=[CountData(row, pairs) for row in counts], seeds=seeds,
                        options=options)
        raise _Captured

    cfg = cli.default_config("chsh-sweep")
    cfg = replace(cfg, seed=seed, count_mode=count_mode,
                  tomography=replace(cfg.tomography, method=method))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "_bootstrap_reports", capture)
        with pytest.raises(_Captured):
            cli.run_chsh_sweep(cfg)
    return captured["datas"], captured["seeds"], captured["options"]


def assert_reports_match(got, want):
    """Stacked and per-branch reports agree exactly: counts, flags, metrics and sigmas.

    Every fit, linear or MLE, computes each row alone or in whole blocks of
    rows, so the shape of the batch changes no bit of a branch's report.
    """
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert (g.n_samples, g.n_failed, g.n_nonconverged) == (
            w.n_samples, w.n_failed, w.n_nonconverged
        )
        assert (g.point_fit.iterations, g.point_fit.converged) == (
            w.point_fit.iterations, w.point_fit.converged
        )
        for name in METRIC_NAMES:
            for key in (name, name + "_sigma"):
                assert getattr(g, key) == getattr(w, key), key


class TestBootstrapReports:
    @pytest.mark.parametrize("method", ["mle", "linear"])
    @pytest.mark.parametrize("seed, count_mode", [(0, "sampled"), (1, "sampled"), (0, "analytic")])
    def test_stacked_batch_matches_one_call_per_branch(self, seed, count_mode, method):
        """All ten branches of the default chsh-sweep in one batch equal ten separate reports."""
        datas, seeds, options = sweep_branches(seed, count_mode, method)
        assert len(datas) == 10
        got = tomo._bootstrap_reports(*stacked(datas), seeds, **options)
        want = [monte_carlo_metrics(d, seed=s, **options) for d, s in zip(datas, seeds)]
        assert_reports_match(got, want)

    @pytest.mark.parametrize("method", ["mle", "linear"])
    def test_a_dropped_resample_shifts_the_later_blocks(self, method):
        """A middle branch whose resamples exceed the count ceiling keeps the others aligned."""

        def branches(seed):
            datas = [simulate_counts(tilted_bell(p), 100, seed=seed + k)
                     for k, p in enumerate((0.5, 0.3, 0.1))]
            # 4 900 counts against a ceiling of 50 * 100: about 8% of the
            # Poisson resamples of the middle branch exceed it and are dropped
            counts = datas[1].counts.copy()
            counts[0] = 4_900
            datas[1] = CountData(counts, 100)
            return datas, [seed, seed + 1, seed + 2]

        datas, seeds = branches(1)
        got = tomo._bootstrap_reports(*stacked(datas), seeds, n_samples=20, method=method)
        want = [monte_carlo_metrics(d, 20, s, method) for d, s in zip(datas, seeds)]
        assert [r.n_failed for r in got] == [0, 2, 0]
        assert_reports_match(got, want)
        # three of twenty dropped aborts, as the middle branch alone does
        datas, seeds = branches(0)
        with pytest.raises(RuntimeError, match="3/20"):
            monte_carlo_metrics(datas[1], 20, seeds[1], method)
        with pytest.raises(RuntimeError, match="3/20"):
            tomo._bootstrap_reports(*stacked(datas), seeds, n_samples=20, method=method)

    @pytest.mark.parametrize("method", ["mle", "linear"])
    def test_errors_are_raised_in_branch_order_before_any_metric(self, monkeypatch, method):
        """An all-zero point and a branch with too many failed resamples raise, whichever is first.

        Either is raised before the metric pass: a refused point fit is not a
        metric row, so no block's rows are located before the checks.
        """
        good = simulate_counts(tilted_bell(0.5), 100, seed=0).counts
        lossy = simulate_counts(tilted_bell(0.3), 100, seed=1).counts.copy()
        lossy[0] = 4_900  # seed 1 draws 3 of 20 resamples above the ceiling
        zero = np.zeros(36)

        def forbidden(stack, roots):
            raise AssertionError("metrics read before the block checks")

        monkeypatch.setattr(tomo, "_metric_rows", forbidden)
        with pytest.raises(ValueError, match="zero"):
            tomo._bootstrap_reports(np.stack([good, zero, lossy]), 100, [0, 2, 1], 20, method)
        with pytest.raises(RuntimeError, match="3/20"):
            tomo._bootstrap_reports(np.stack([good, lossy, zero]), 100, [0, 1, 2], 20, method)

    @pytest.mark.parametrize("method", ["mle", "linear"])
    def test_only_the_point_fits_become_results(self, monkeypatch, method):
        """Three branches of 21 fitted rows each build exactly three ReconstructionResults.

        The resamples stay rows of the stacked fit record; each branch's point
        fit is a copy of its row, so it does not hold the batch.
        """
        datas = [simulate_counts(tilted_bell(p), 2_000, seed=3) for p in (0.5, 0.3, 0.1)]
        built = []
        real = tomo.ReconstructionResult

        def counted(rho, *fields, **named):
            built.append(rho)
            return real(rho, *fields, **named)

        monkeypatch.setattr(tomo, "ReconstructionResult", counted)
        reports = tomo._bootstrap_reports(*stacked(datas), [0, 1, 2], n_samples=20, method=method)
        assert [(r.n_samples, r.n_failed) for r in reports] == [(20, 0)] * 3
        assert len(built) == 3
        for report, rho in zip(reports, built):
            assert report.point_fit.rho is rho
            assert rho.data.base is None and rho.data.shape == (4, 4)

    def test_branches_need_as_many_seeds(self):
        """A count stack and a seed list of another length are refused."""
        data = simulate_counts(tilted_bell(0.5), 1_000, seed=0)
        with pytest.raises(ValueError, match="a seed each, got 2 and 1"):
            tomo._bootstrap_reports(*stacked([data, data]), [0], n_samples=10)


class TestFitFactors:
    """Each fit carries a factor A of its state, rho = A A^dag, for the concurrence."""

    def test_a_linear_bootstrap_eigendecomposes_once(self, monkeypatch):
        """The linear fit's one batched eigh serves the metrics too: none runs on a fitted state."""
        data = simulate_counts(tilted_bell(0.3), 3_000, seed=5)
        calls = []
        real = np.linalg.eigh

        def counted(a, *args, **kwargs):
            calls.append(len(a))
            return real(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counted)
        report = monte_carlo_metrics(data, n_samples=20, seed=1, method="linear")
        assert report.n_failed == 0
        assert calls == [21]

    @pytest.mark.parametrize("method", ["linear", "mle"])
    def test_the_factors_rebuild_every_fitted_state(self, method):
        """roots @ roots^dag is rho within 1e-15 on every row, clipped and refused rows included.

        Pure states at 300 pairs per setting give linear estimates with
        negative eigenvalues, which the clip sets to zero: their factors
        have a zero column. The last row is all zeros, which linear
        inversion refuses as a collapse to the zero matrix and the MLE
        before its iteration; its state and factor are both zero.
        """
        counts = np.stack([
            simulate_counts(tilted_bell(p), 300, seed=s).counts
            for p in (0.5, 0.3, 0.1, 0.02) for s in range(5)
        ] + [np.zeros(36)])
        fits = tomo._linear_fits(counts, 300) if method == "linear" else tomo._mle_fits(counts, 300)
        assert fits.errors[:-1] == [None] * (len(counts) - 1)
        assert fits.errors[-1] is not None
        assert not fits.rho[-1].any() and not fits.roots[-1].any()
        if method == "linear":
            clipped = (np.abs(fits.roots).max(axis=1) == 0.0).any(axis=1)
            assert clipped[:-1].sum() >= 10
        rebuilt = fits.roots @ fits.roots.conj().transpose(0, 2, 1)
        assert np.abs(rebuilt - fits.rho).max() <= 1e-15

    def test_mle_metric_rows_keep_the_eigendecomposition_of_the_state(self, monkeypatch):
        """The MLE factors are eigh(rho)'s: the metric rows equal those from _roots(rho), bitwise."""
        datas = [simulate_counts(tilted_bell(p), 3_000, seed=4) for p in (0.5, 0.3, 0.1)]
        seen = []
        real = tomo._metric_rows

        def spy(stack, roots):
            seen.append((stack, real(stack, roots)))
            return seen[-1][1]

        monkeypatch.setattr(tomo, "_metric_rows", spy)
        reports = tomo._bootstrap_reports(*stacked(datas), [0, 1, 2], n_samples=20, method="mle")
        assert [r.n_failed for r in reports] == [0, 0, 0]
        [(stack, rows)] = seen
        assert len(rows) == 63
        np.testing.assert_array_equal(rows, real(stack, qcore._roots(stack)))
