"""Two-qubit polarization tomography, entanglement metrics, and CHSH tests.

Each photon's analyzer is an optional quarter-wave plate followed by a
linear polarizer. The design is fixed: the 36 settings that pair the six
basis states H, V, D, A, R, L of each photon (James, Kwiat, Munro and
White, PRA 64, 052312 (2001)), photon B fastest. A count set is one count
per setting, in that order. Counts are Poissonian with per-setting mean
pairs_per_setting * tr(rho Pi_A x Pi_B), all drawn in one call from a
generator seeded by one int, so one seed gives one count set.
Reconstruction is either constrained linear inversion or an iterative
maximum-likelihood fit; uncertainties come from a parametric bootstrap that
resamples the counts, again in one draw from one seed.
"""

from __future__ import annotations

import functools
import math
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from typing import Sequence

import numpy as np

from .qcore import (
    PAULI_I,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    PHI_PLUS_KET,
    DensityMatrix,
    _as_integer,
    _concurrences,
    _integer_fields,
    _purities,
    _roots,
    _state_errors,
)
from .optics import WaveplateSpec, jones

__all__ = [
    "CountData",
    "ReconstructionResult",
    "MetricsReport",
    "DEFAULT_PAIRS_PER_SETTING",
    "MAX_PAIRS_PER_SETTING",
    "setting_projectors",
    "expected_probabilities",
    "simulate_counts",
    "analytic_counts",
    "counts_to_csv",
    "counts_from_csv",
    "linear_inversion",
    "mle_reconstruct",
    "chsh_value",
    "monte_carlo_metrics",
]

# 10.3 kcps of coincidences integrated for 25 s per analyzer setting.
DEFAULT_PAIRS_PER_SETTING = 260_000
# numpy draws Poisson counts only for means below about 2**63 (9.2e18); the
# counts and their bootstrap resamples stay far below that up to this flux.
MAX_PAIRS_PER_SETTING = 10**18

# Settings in the standard design, and so the length of every count set.
_N_SETTINGS = 36

PROBABILITY_FLOOR = 1e-12
MLE_DEFAULT_TOL = 1e-10
# The smallest MLE tol: the gap g = lambda_max(R) - sum_j f_j rounds by a few
# ulps of sum_j f_j, at most 36 * 50 = 1800 for counts that CountData
# accepts (ulp 2.3e-13). Analytic fits certified at tol 1e-300 read |g| up
# to 3.6e-15 at sum_j f_j = 9 and 2.8e-13 at 450, and the first iterate of a
# count set at the ceiling reads 6.8e-13; 1e-11 is 44 ulps of 1800.
MLE_TOL_FLOOR = 1e-11
MLE_DEFAULT_MAX_ITER = 10_000

_CSV_HEADER = "setting_index,theta_a,qwp_a,qwp_theta_a,theta_b,qwp_b,qwp_theta_b,count"


# The analyzer of one photon for each basis state, in the order H, V, D, A,
# R, L: (polarizer angle in radians, quarter-wave plate in). The plate
# always sits at 0 deg; with the polarizer at 45 / 135 deg it gives R / L.
_ANALYZERS = (
    (0.0, False), (math.pi / 2, False), (math.pi / 4, False),
    (3 * math.pi / 4, False), (math.pi / 4, True), (3 * math.pi / 4, True),
)


def setting_projectors() -> np.ndarray:
    """The coincidence projectors Pi_A x Pi_B of the 36 settings, shape (36, 4, 4).

    Setting 6 i + k pairs analyzer i of :data:`_ANALYZERS` on photon A with
    analyzer k on photon B. An analyzer transmits the polarizer's linear ket
    pulled back through the plate, psi = QWP(0)^dag (cos t, sin t).
    Overcomplete on purpose: the 36 projectors span the full two-qubit
    operator space, so both estimators below are well posed, and they sum
    to 9 I, which the likelihood fit relies on.
    """
    # Only _design calls this; it stays public because bench/spans.py traces it.
    plate = jones(WaveplateSpec("quarter", 0.0)).conj().T
    singles = []
    for angle, plate_in in _ANALYZERS:
        ket = np.array([math.cos(angle), math.sin(angle)], dtype=complex)
        if plate_in:
            ket = plate @ ket
        singles.append(np.outer(ket, ket.conj()))
    return np.stack([np.kron(a, b) for a in singles for b in singles])


@dataclass(frozen=True)
class _Design:
    """The constant measurement design of the standard settings.

    The 36 projectors Pi_j of :func:`setting_projectors` sum to 9 I, so the
    maximum-likelihood fit weighs Pi_j / 9.
    ``basis_row`` is the (4, 60) [E_1 ... E_15] of the orthonormal traceless
    Pauli basis E_k. ``tangent`` is the real (36, 15)
    tr(Pi_j E_k) / 9, the derivative of the fitted probabilities along E_k, and
    row j of the (36, 225) ``tangent_outer`` is tangent_j x tangent_j; f @
    ``pinv`` is the least-squares vec(rho) of frequencies f, as reals. The
    likelihood fit carries each Hermitian Y as its 16 real coordinates y: Re
    Y_aa, then Re Y_ab and Im Y_ab for each a < b. y @ ``to_probs`` is p_j =
    tr(Pi_j Y) / 9, and the rows of ``basis_coords`` hold the E_k. y @ ``to_real``
    is the real form [[Re Y, -Im Y], [Im Y, Re Y]] and y @ ``to_complex`` is
    vec(Y), both exact; x @ ``from_real`` reads a real form x back, each
    coordinate the mean of its copies. Row j of the (36, 64) ``frame_real`` is
    the real form of Pi_j / 9, so w @ ``frame_real`` is that of sum_j w_j Pi_j / 9.
    The columns of the real (32, 36) ``frame`` and (32, 2) ``readout`` are
    vec(O), in the interleaved real view of a complex vec(rho), of Hermitian
    operators O: the 36 projectors Pi_j, and the two operators whose
    expectations are reported, |Phi+><Phi+| and the CHSH operator B. Since
    tr(rho O) = Re sum_ab rho_ab conj(O_ab), each is one real dot product
    (:func:`_probabilities`, :func:`_metric_rows`). The arrays are read-only
    and shared.
    """

    basis_row: np.ndarray
    tangent: np.ndarray
    tangent_outer: np.ndarray
    pinv: np.ndarray
    to_probs: np.ndarray
    frame_real: np.ndarray
    to_real: np.ndarray
    from_real: np.ndarray
    to_complex: np.ndarray
    basis_coords: np.ndarray
    frame: np.ndarray
    readout: np.ndarray

    def hermitian(self, y: np.ndarray) -> np.ndarray:
        """The (B, 4, 4) Hermitian matrices of a (B, 16) stack of coordinates."""
        return (y @ self.to_complex).reshape(-1, 4, 4)


@functools.cache
def _design() -> _Design:
    """Build the design on first use; later calls reuse it."""
    pis = setting_projectors()
    ninths = pis / 9.0
    paulis = (PAULI_I, PAULI_X, PAULI_Y, PAULI_Z)
    basis = np.stack([np.kron(a, b) for a in paulis for b in paulis][1:]) / 2.0
    matrix = pis.transpose(0, 2, 1).reshape(_N_SETTINGS, 16)
    tangent = np.einsum("jab,kba->jk", ninths, basis).real
    # Y = sum_c y_c units[c], and coordinate c of X is tr(units[c] X) / norms[c]
    a, b = np.triu_indices(4, 1)
    units = np.zeros((16, 4, 4), dtype=complex)
    units[range(4), range(4), range(4)] = 1.0
    units[range(4, 16, 2), a, b] = units[range(4, 16, 2), b, a] = 1.0
    units[range(5, 16, 2), a, b], units[range(5, 16, 2), b, a] = 1j, -1j
    to_probs = np.einsum("cab,jba->cj", units, ninths).real
    to_real = np.block([[units.real, -units.imag], [units.imag, units.real]]).reshape(16, 64)
    norms = np.abs(units).sum(axis=(1, 2))
    # the polarizers sigma(t) = cos 2t Z + sin 2t X of chsh_value, and its operator B
    a, a_prime, b, b_prime = (
        math.cos(2 * t) * PAULI_Z + math.sin(2 * t) * PAULI_X
        for t in (0.0, math.pi / 4, math.pi / 8, 3 * math.pi / 8)
    )
    bell = np.kron(a, b - b_prime) + np.kron(a_prime, b + b_prime)
    target = np.outer(PHI_PLUS_KET, PHI_PLUS_KET.conj())
    design = _Design(
        basis_row=np.concatenate(basis, axis=1),
        tangent=tangent,
        tangent_outer=(tangent[:, :, None] * tangent[:, None, :]).reshape(_N_SETTINGS, 225),
        pinv=np.ascontiguousarray(np.linalg.pinv(matrix).T).view(float),
        # column-major: a row-major copy rounds p_j otherwise and moves fitted states by ulps
        to_probs=np.asfortranarray(to_probs),
        frame_real=(to_probs.T / norms) @ to_real,
        to_real=to_real,
        from_real=np.ascontiguousarray((to_real / np.abs(to_real).sum(axis=1)[:, None]).T),
        to_complex=units.reshape(16, 16),
        basis_coords=np.einsum("cab,kba->kc", units, basis).real / norms,
        frame=pis.reshape(_N_SETTINGS, 16).view(float).T,
        readout=np.ascontiguousarray(np.stack([target, bell]).reshape(2, 16).view(float).T),
    )
    for arr in vars(design).values():
        arr.setflags(write=False)
    return design


def _probabilities(stack: np.ndarray) -> np.ndarray:
    """tr(rho Pi_j) of a (B, 4, 4) stack, (B, 36): a row-stacked product with the design's
    ``frame``, as in :func:`_metric_rows`, so a row's bits do not depend on its batch."""
    probs = np.matmul(stack.reshape(-1, 1, 16).view(float), _design().frame)[:, 0]
    return np.clip(probs, 0.0, None)  # roundoff can leave a few ulp below zero


def expected_probabilities(rho: DensityMatrix) -> np.ndarray:
    """tr(rho Pi_j) for every standard setting j, the one-state call of :func:`_probabilities`."""
    if rho.dim != 4:
        raise ValueError(f"tomography operates on two qubits, got dim {rho.dim}")
    return _probabilities(rho.data[None])[0]


def _check_pairs(pairs_per_setting: int) -> None:
    """Refuse a flux outside [1, MAX_PAIRS_PER_SETTING], by name."""
    if not 1 <= pairs_per_setting <= MAX_PAIRS_PER_SETTING:
        raise ValueError(
            f"pairs_per_setting must be in [1, {MAX_PAIRS_PER_SETTING:.0e}], "
            f"got {pairs_per_setting}"
        )


def _count_errors(counts: np.ndarray, pairs_per_setting: int) -> list[ValueError | None]:
    """Why each row of a (B, n) count stack is not a count set, or None.

    A count set is finite and nonnegative, and no count exceeds
    50 * ``pairs_per_setting``: a coincidence rate 50x above the per-setting
    flux means the simulation inputs are inconsistent, not just unlucky.
    The row minima and maxima are one pass over the stack; they are both
    finite exactly when every count of the row is. :class:`CountData` runs
    this on a stack of one.
    """
    ceiling = 50.0 * pairs_per_setting
    errors = [None] * len(counts)
    lows, highs = counts.min(axis=1).tolist(), counts.max(axis=1).tolist()
    # written as "ok" so that NaN, which fails every comparison, is refused
    for i, (lo, hi) in enumerate(zip(lows, highs)):
        if lo >= 0.0 and hi <= ceiling:
            continue
        if not (math.isfinite(lo) and math.isfinite(hi)):
            row = counts[i]
            errors[i] = ValueError(f"non-finite count: {row[~np.isfinite(row)][0]}")
        elif lo < 0.0:
            errors[i] = ValueError(f"negative count: {lo}")
        else:
            errors[i] = ValueError(f"count {hi} exceeds 50 * pairs_per_setting = {ceiling:g}")
    return errors


@dataclass(frozen=True)
class CountData:
    """Coincidence counts of the 36 standard settings, in their order.

    ``counts`` are nonnegative; Poisson-sampled data is integer valued while
    the analytic mode stores exact expected counts, which are generally not
    integers. ``pairs_per_setting`` must lie in [1, MAX_PAIRS_PER_SETTING].
    """

    counts: np.ndarray
    pairs_per_setting: int

    def __post_init__(self) -> None:
        counts = np.array(self.counts, dtype=float, copy=True)
        if counts.shape != (_N_SETTINGS,):
            raise ValueError(
                f"counts shape {counts.shape} does not match the {_N_SETTINGS} settings"
            )
        _integer_fields(self, "pairs_per_setting")
        _check_pairs(self.pairs_per_setting)
        [error] = _count_errors(counts[None], self.pairs_per_setting)
        if error is not None:
            raise error
        counts.setflags(write=False)
        object.__setattr__(self, "counts", counts)

    @property
    def frequencies(self) -> np.ndarray:
        return self.counts / float(self.pairs_per_setting)


def simulate_counts(
    rho: DensityMatrix,
    pairs_per_setting: int = DEFAULT_PAIRS_PER_SETTING,
    seed: int = 0,
) -> CountData:
    """Poisson coincidence counts, all settings in one draw of ``default_rng(seed)``.

    The count of setting j is entry j of that one ``poisson`` call. A flux
    above MAX_PAIRS_PER_SETTING, which numpy cannot draw, is refused by name
    before the draw.
    """
    _check_pairs(pairs_per_setting)
    probs = expected_probabilities(rho)
    counts = np.random.default_rng(seed).poisson(pairs_per_setting * probs)
    return CountData(counts, pairs_per_setting)


def analytic_counts(
    rho: DensityMatrix, pairs_per_setting: int = DEFAULT_PAIRS_PER_SETTING
) -> CountData:
    """Exact expected counts, the zero-noise limit of :func:`simulate_counts`."""
    return CountData(pairs_per_setting * expected_probabilities(rho), pairs_per_setting)


# The first seven columns of CSV row j: the setting index, then per photon
# the polarizer angle in degrees with six decimals, the plate flag and the
# plate angle (always 0 deg).
_CSV_ROWS = tuple(
    (str(j), *(col for angle, plate_in in (_ANALYZERS[j // 6], _ANALYZERS[j % 6])
               for col in (f"{math.degrees(angle):.6f}", f"{int(plate_in)}", "0.000000")))
    for j in range(_N_SETTINGS)
)


def counts_to_csv(data: CountData, path) -> None:
    """Write counts as CSV, one row per standard setting with its analyzer columns."""
    lines = [_CSV_HEADER]
    for cols, count in zip(_CSV_ROWS, data.counts):
        cnt = f"{int(count)}" if float(count).is_integer() else f"{count:.17g}"
        lines.append(f"{','.join(cols)},{cnt}")
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _csv_number(text: str, name: str, row: int) -> float:
    """``text`` read as a float; text that is not a number is refused by column and row."""
    try:
        return float(text)
    except ValueError:
        raise ValueError(f"{name} must be a number, got {text!r} in data row {row}") from None


def counts_from_csv(path, pairs_per_setting: int) -> CountData:
    """Read counts written by :func:`counts_to_csv`.

    The flux is not part of the CSV payload and must be supplied. The file
    must hold one row per standard setting. The plate flags ``qwp_a`` and
    ``qwp_b`` must read 0 or 1, the angles must be finite numbers and the
    count a number. Each row must be the standard setting at its index: its
    ``setting_index`` the row's position from 0, the same plate flags, and
    angles within half a unit of the sixth written decimal of the standard
    angle, modulo 180 deg. Its count must pass the checks of
    :class:`CountData`. A row that breaks any of these is refused, naming
    the data row and the column.
    """
    with open(path, "r", encoding="ascii") as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines or lines[0] != _CSV_HEADER:
        raise ValueError(f"unexpected CSV header: {lines[0] if lines else ''!r}")
    if len(lines) - 1 != _N_SETTINGS:
        raise ValueError(f"expected {_N_SETTINGS} data rows, got {len(lines) - 1}")
    names = _CSV_HEADER.split(",")
    counts = []
    for row, ln in enumerate(lines[1:], start=1):
        cols = ln.split(",")
        if len(cols) != 8:
            raise ValueError(f"expected 8 columns, got {len(cols)}: {ln!r}")
        for k, want in enumerate(_CSV_ROWS[row - 1]):
            got = cols[k].strip()
            if k in (2, 5) and got not in ("0", "1"):
                raise ValueError(
                    f"{names[k]} must be 0 or 1, got {cols[k]!r} in data row {row}"
                )
            if k in (0, 2, 5):
                same = got == want
            else:
                angle = _csv_number(got, names[k], row)
                if not math.isfinite(angle):
                    raise ValueError(f"{names[k]} must be finite, got {angle} in data row {row}")
                same = abs(math.remainder(angle - float(want), 180.0)) <= 5e-7
            if not same:
                raise ValueError(
                    f"{names[k]} reads {got} in data row {row}, the standard "
                    f"setting there has {want}"
                )
        counts.append(_csv_number(cols[7].strip(), names[7], row))
    # the flux first, checked as CountData checks it, then each count alone
    pairs_per_setting = CountData(np.zeros(_N_SETTINGS), pairs_per_setting).pairs_per_setting
    counts = np.array(counts)
    for row, error in enumerate(_count_errors(counts[:, None], pairs_per_setting), start=1):
        if error is not None:
            raise ValueError(f"{error} in data row {row}")
    return CountData(counts, pairs_per_setting)


@dataclass(frozen=True)
class ReconstructionResult:
    """A fitted state plus bookkeeping about how the fit went.

    ``loglike`` is sum(n_j log p_j) at the returned state (natural log,
    constant terms dropped); ``loglike_history`` tracks it across the
    iterations for the iterative method and has a single entry for linear
    inversion. ``floor_hits`` counts probability evaluations caught by the
    floor that keeps the likelihood finite. ``gap`` is the certified
    optimality gap of the likelihood fit at the returned state (see
    :func:`mle_reconstruct`); it is 0.0 for linear inversion, which
    solves its own problem exactly. The fitters keep a stack of fits as one
    record of arrays and build a result only for a fit they hand out.
    """

    rho: DensityMatrix
    method: str
    iterations: int
    loglike: float
    converged: bool
    floor_hits: int = 0
    loglike_history: tuple[float, ...] = ()
    gap: float = 0.0


def _loglike(counts: np.ndarray, probs: np.ndarray) -> np.ndarray:
    """sum_j n_j log p_j of every row, each p_j floored at PROBABILITY_FLOOR."""
    return np.sum(counts * np.log(np.maximum(probs, PROBABILITY_FLOOR)), axis=-1)


@dataclass
class _Fits:
    """The fits of a (B, 36) count stack as one record: row i of every field is row i's.

    ``rho`` is (B, 4, 4) and ``roots`` its factors A, rho = A A^dag, from the fitter's
    own eigendecomposition; ``iterations``, ``loglike``, ``converged``, ``floor_hits``
    and ``gap`` are (B,) arrays of the :class:`ReconstructionResult` fields; ``errors``
    holds None or the ``ValueError`` that refused the row, whose arrays then hold no
    valid fit. A row is refused only if its counts are all zero (a linear fit then
    collapses to the zero matrix) or its fitted state fails ``_state_errors``; a
    ``LinAlgError`` in a fit is raised, not recorded.
    ``history`` is each row's log-likelihood per iterate, recorded only by
    :func:`mle_reconstruct`.
    """

    rho: np.ndarray
    roots: np.ndarray
    iterations: np.ndarray
    loglike: np.ndarray
    converged: np.ndarray
    floor_hits: np.ndarray
    gap: np.ndarray
    errors: list
    history: list

    @classmethod
    def blank(cls, n: int, error: Exception | None = None) -> "_Fits":
        """``n`` rows with no fit, each refused with ``error``."""
        ints, floats = np.zeros(n, dtype=int), np.zeros(n)
        return cls(*np.zeros((2, n, 4, 4), dtype=complex), ints, floats, ints.astype(bool),
                   ints.copy(), floats.copy(), [error] * n, [()] * n)

    def result(self, i: int, method: str) -> ReconstructionResult:
        """Row ``i`` as a result holding a copy of its state; a refused row raises its error."""
        if self.errors[i] is not None:
            raise self.errors[i]
        loglike = float(self.loglike[i])
        return ReconstructionResult(
            DensityMatrix._checked(self.rho[i].copy()), method, int(self.iterations[i]),
            loglike, bool(self.converged[i]), int(self.floor_hits[i]),
            (loglike,) if method == "linear" else self.history[i], float(self.gap[i]),
        )


def _linear_fits(counts: np.ndarray, pairs_per_setting: int) -> _Fits:
    """Linear inversion of every row of ``counts`` (B, 36) in one batched solve.

    The cached pseudo-inverse solves each row in real arithmetic, and every
    later step is a stacked pass that acts on each row alone, so a row's fit
    does not depend on its batch: each row's clipped, renormalised spectrum w
    gives its state V w V^dag, then its factor V sqrt(w), written over V. A row
    is refused, its entry of ``errors`` the reason, if its state collapses to
    the zero matrix or fails validation.
    """
    design = _design()
    freqs = counts / float(pairs_per_setting)
    raw = np.matmul(freqs[:, None, :], design.pinv).view(complex).reshape(-1, 4, 4)
    raw = 0.5 * (raw + raw.conj().transpose(0, 2, 1))
    eigvals, eigvecs = np.linalg.eigh(raw)
    vals = np.clip(eigvals, 0.0, None)
    totals = vals.sum(axis=1)
    shares = np.divide(
        vals, totals[:, None], out=np.zeros_like(vals), where=totals[:, None] > 0.0
    )
    rhos = (eigvecs * shares[:, None, :]) @ eigvecs.conj().transpose(0, 2, 1)
    roots = np.multiply(eigvecs, np.sqrt(shares)[:, None, :], out=eigvecs)
    probs = _probabilities(rhos)
    n = len(counts)
    errors = _state_errors(rhos)
    for i in np.flatnonzero(totals <= 0.0):
        errors[i] = ValueError("reconstruction collapsed to the zero matrix")
    return _Fits(rhos, roots, np.ones(n, dtype=int), _loglike(counts, probs),
                 np.ones(n, dtype=bool), (probs < PROBABILITY_FLOOR).sum(axis=1), np.zeros(n),
                 errors, [()] * n)


def linear_inversion(data: CountData) -> ReconstructionResult:
    """Least-squares state estimate, projected back onto physical states.

    Solves min ||A vec(rho) - f||_2 over all matrices, then Hermitizes,
    clips negative eigenvalues to zero, and renormalizes the trace. Exact
    on noiseless data; on sampled data the projection step is what keeps
    the estimate physical. This is the one-row call of the batched fit
    that :func:`monte_carlo_metrics` runs; a collapse to the zero matrix
    and a failed validation raise.
    """
    return _linear_fits(data.counts[None], data.pairs_per_setting).result(0, "linear")


# RrhoR iterations after which a fit still open switches to Newton steps.
# The fits of the default purify and custom runs certify within 110; RrhoR
# slows to a sublinear crawl only near rank-deficient states, where Newton
# steps take over. The same rows of the default chsh-sweep reach Newton
# at a switch of 120, 150 or 200, and the earliest is the fastest.
_RRR_ITERATIONS = 120


def _rows(x: np.ndarray, m: np.ndarray) -> np.ndarray:
    """x @ m of a row subset, computed in whole blocks of 8 rows, the last padded with zero rows.

    A BLAS kernel computes rows in blocks, and a row in a short block can round
    differently. In blocks of 8, no row's rounding depends on its batch on the SkylakeX,
    Haswell, Sandybridge and Prescott kernels of OpenBLAS; in blocks of 4, Haswell's does.
    """
    n = len(x)
    padded = np.zeros((n - n % -8, x.shape[1]))
    padded[:n] = x
    return (padded @ m)[:n]


def _quotient_screen(v: np.ndarray, r8: np.ndarray, ceiling: np.ndarray) -> np.ndarray:
    """False for each row whose Rayleigh quotient v^T R8 v is above its ``ceiling``.

    For the real form v of a unit vector, v^T R8 v = v^H R v <= lambda_max(R),
    so a row ruled out has lambda_max(R) above the ceiling too. A zero v, or
    a NaN quotient, rules nothing out.
    """
    return ~((v[:, None, :] @ r8 @ v[:, :, None])[:, 0, 0] > ceiling)


def _states(design: _Design, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """rho = Y / tr(Y) of every coordinate row y, and its tr(rho Pi_j)."""
    rho = y / y[:, :4].sum(axis=1)[:, None]
    return design.hermitian(rho), 9.0 * _rows(rho, design.to_probs)


def _newton_system(
    design: _Design, freqs: np.ndarray, y: np.ndarray, probs: np.ndarray, mu: np.ndarray
) -> tuple:
    """Gradient and Hessian of -sum_j f_j log p_j - mu log det Y along the E_k, per row.

    ``probs`` are the p_j of Y, as the Newton loop of :func:`_mle_fits` computes them.
    The likelihood Hessian T^T diag(f / p^2) T is f / p^2 times ``tangent_outer``.
    One product of Y^-1 with ``basis_row`` gives every W_k = Y^-1 E_k; the barrier
    adds -mu tr(W_k) to the gradient and mu tr(W_k W_l) to the Hessian. The products
    are stacked or row by row, so their rounding does not depend on the batch.
    """
    probs = np.maximum(probs, PROBABILITY_FLOOR)
    weights = freqs / probs
    w = (np.linalg.inv(y) @ design.basis_row).reshape(-1, 4, 15, 4)  # W_k[a, c] at [a, k, c]
    w_rows = w.transpose(0, 2, 1, 3).reshape(-1, 15, 16)  # row k: W_k[a, c] at 4 a + c
    grad = -np.matmul(weights[:, None, :], design.tangent)[:, 0]
    grad -= mu[:, None] * w_rows[:, :, ::5].sum(axis=2).real
    hess = np.matmul((weights / probs)[:, None, :], design.tangent_outer)[:, 0]
    # column l of the transposed stack holds W_l[c, a] at 4 a + c
    barrier = (w_rows @ w.transpose(0, 3, 1, 2).reshape(-1, 16, 15)).real
    return grad, hess.reshape(-1, 15, 15) + mu[:, None, None] * barrier


# Eigenvalues of a scaled Newton system below this share of its largest
# count as zero.
_PINV_RCOND = 1e-12


def _newton_step(
    design: _Design, freqs: np.ndarray, y: np.ndarray, probs: np.ndarray, mu: np.ndarray
) -> np.ndarray:
    """One damped Newton step per row on the problem of :func:`_newton_system`.

    Each row solves its Jacobi-scaled system D^-1/2 H D^-1/2 z = -D^-1/2 g,
    D the diagonal of its Hessian H (an entry that is not a positive finite
    number scales by 1), and steps by D^-1/2 z. A row whose scaled Hessian
    is singular takes the minimum-norm z of its pseudo-inverse, cut off at
    _PINV_RCOND, instead. Singular means that its LU factorisation meets an
    exact zero pivot, or that the solve's z is longer than the right-hand
    side over _PINV_RCOND: with a unit diagonal the largest eigenvalue is at
    least 1, so only a smallest eigenvalue below _PINV_RCOND of it gives
    such a z. Both tests look at the row alone, so a row's step does not
    depend on its batch. Y moves along the 15 traceless Pauli directions
    E_k, so it keeps unit trace, by t = min(1, 0.99 / max(0, -lambda)),
    lambda = lambda_min(Y^-1/2 dY Y^-1/2): 99 % of the way to the cone's
    boundary (Nocedal and Wright, Numerical Optimization, 2nd ed., 19.2).
    A row with a non-finite dY, or whose Y + t dY fails the test that its
    smallest eigenvalue is positive, keeps its iterate. Y and the returned
    stack are (B, 16) coordinates (see :class:`_Design`).
    """
    grad, hess = _newton_system(design, freqs, design.hermitian(y), probs, mu)
    diag = np.diagonal(hess, axis1=1, axis2=2)
    scale = 1.0 / np.sqrt(np.where((diag > 0.0) & (diag < np.inf), diag, 1.0))
    scaled = scale[:, :, None] * hess * scale[:, None, :]
    rhs = -scale * grad
    singular = np.zeros(len(y), dtype=bool)
    try:
        step = np.linalg.solve(scaled, rhs[..., None])[..., 0]
    except np.linalg.LinAlgError:  # a row has an exactly zero LU pivot
        singular = np.linalg.slogdet(scaled)[0] == 0.0
        step = np.zeros_like(rhs)
        step[~singular] = np.linalg.solve(scaled[~singular], rhs[~singular, :, None])[..., 0]
    with np.errstate(over="ignore"):  # an overflowing length is singular too
        singular |= ~(np.linalg.norm(step, axis=1) * _PINV_RCOND <= np.linalg.norm(rhs, axis=1))
    if singular.any():
        pinv = np.linalg.pinv(scaled[singular], rcond=_PINV_RCOND, hermitian=True)
        step[singular] = (pinv @ rhs[singular, :, None])[..., 0]
    dy = _rows(scale * step, design.basis_coords)
    dy[~np.isfinite(dy).all(axis=1)] = 0.0
    vals, vecs = np.linalg.eigh(design.hermitian(y))
    root = (vecs / np.sqrt(vals)[:, None, :]) @ vecs.conj().transpose(0, 2, 1)  # Y^-1/2
    lowest = np.linalg.eigvalsh(root @ design.hermitian(dy) @ root)[:, 0]
    t = 0.99 / np.maximum(0.99, -lowest)  # min(1, 0.99 / max(0, -lambda))
    new = y + t[:, None] * dy
    return np.where((np.linalg.eigvalsh(design.hermitian(new))[:, 0] > 0.0)[:, None], new, y)


def _mle_fits(
    counts: np.ndarray,
    pairs_per_setting: int,
    tol: float = MLE_DEFAULT_TOL,
    max_iter: int = MLE_DEFAULT_MAX_ITER,
    history: bool = False,
) -> _Fits:
    """Maximum-likelihood fits of every row of ``counts`` (B, 36) in one batch.

    The 36 standard projectors sum to 9 I, so each row fits the unit-trace
    state Y = rho itself against the operators Pi_j / 9 of the cached
    design. It minimises -sum_j f_j log p_j, with p_j = tr(Pi_j Y) / 9 and
    f_j = counts_j / pairs_per_setting, which is the Poisson likelihood
    with the flux fitted too.

    All rows start from the maximally mixed state and iterate Y -> N[R Y R], R
    = sum_j (f_j / p_j) Pi_j / 9 (Rehacek, Hradil, Knill and Lvovsky, PRA 75,
    042108 (2007)) on the 16 real coordinates of each Y (see :class:`_Design`),
    so a step is a few real products and every iterate is exactly Hermitian;
    only the certificate's eigensolve, stopped rows, ``history`` and Newton
    steps form complex matrices. A row stops when its convexity gap g =
    lambda_max(R) - sum_j f_j drops to ``tol``. The gap bounds how far -sum_j
    f_j log p_j is above its minimum, so ``converged`` is a certificate.
    ``tol`` is absolute: counts that pass :class:`CountData` give f_j <= 50,
    and a finite ``tol`` of at least MLE_TOL_FLOOR keeps the rounding of g
    below it (this function does not check the counts' bound). R and Y are PSD
    and Y has unit trace, so lambda_max(R) >= tr(RYR) / tr(RY) >= tr(RYR) /
    sum_j f_j, and tr(RYR) is the normaliser of the next RrhoR step: an RrhoR
    row whose bound already exceeds sum_j f_j + ``tol`` skips the eigensolve.
    So does one whose v^H R v, a lower bound on lambda_max(R), exceeds (sum_j
    f_j + ``tol``)(1 + 1e-12); v is the top eigenvector from the row's last
    eigensolve, one stacked ``eigh`` of the rows that pass both screens.
    Neither screen changes the certificate or the iterates. Every row gets the
    exact gap, by ``eigvalsh``, at the last RrhoR iteration and in every Newton
    iteration. The fitted states are validated once, after the iteration. Rows
    still open after _RRR_ITERATIONS switch to damped Newton steps on the
    log-barrier problem (see :func:`_newton_step`), started from their iterate
    mixed with a share g / sum_j f_j of I/4. The barrier weight mu starts at
    max(g / 10, tol / 16). It is cut tenfold after every step (Boyd and
    Vandenberghe, Convex Optimization, 11.3), never below max(g / 10, tol / 16)
    for the current g; on the central path g is at most 3 mu. A singular system
    takes a minimum-norm step, so sparse count sets stay in the batch. Each
    Newton iterate's p_j are computed once, and give its floor hits, its R and
    the next step. Iterations of both phases count against ``max_iter``, which
    must be integral; a row stopped by it reports ``converged=False``. Stopped
    rows leave the batch, which moves no bit of the others (see :func:`_rows`).
    Probabilities are floored at PROBABILITY_FLOOR so empty settings cannot blow up the weights.

    Both phases read R as its 8x8 real form R8 = (f_j / p_j) @ ``frame_real`` and take
    the gap's eigensolve of R8's complex form. RrhoR steps carry the open rows in whole
    blocks of 8, re-padded only when rows stop, so p_j, R8 and R8 Y8 R8 are one ``@``
    each. Padding rows hold Y = I/4 and f_j = 1/36, so p_j = 1/36 and R = I: a fixed
    point that nothing reads. Both loops hand every iterate to ``settle``, which records
    each row in the one record when it stops; the states are then validated once, the
    valid ones factored by one ``_roots``.

    A row is refused, its entry of ``errors`` the reason, for two reasons
    only: its counts are all zero, or its fitted state fails validation.
    Rows of zeros never enter the iteration, so the other rows stay one
    batch. Only with ``history`` does the record carry the log-likelihood of
    every iterate.
    """
    tol, max_iter = _mle_options(tol=tol, max_iter=max_iter)
    design = _design()
    fits = _Fits.blank(len(counts), ValueError("the counts are all zero, there is nothing to fit"))
    nonzero = rows = np.flatnonzero(counts.any(axis=1))  # input row of each open row
    freqs = counts[rows] / float(pairs_per_setting)
    total = freqs.sum(axis=1)
    mixed = np.repeat([0.25, 0.0], [4, 12])  # I / 4 as coordinates
    y = np.tile(mixed, (len(rows), 1))
    logs = [[] for _ in counts] if history else None

    def settle(iteration, y_now, gap, carried):
        """Log ``y_now``. Record the rows ``gap`` stops (None: none); drop them and the padding."""
        nonlocal rows, freqs, total
        if history:
            for i, ll in zip(rows, _loglike(counts[rows], _states(design, y_now[:len(rows)])[1])):
                logs[i].append(float(ll))
        if gap is None:
            return carried
        stopped = (gap <= tol) | (iteration == max_iter)
        done = np.flatnonzero(stopped)
        if len(done) == 0:
            return carried
        stop = rows[done]
        fits.rho[stop], fitted = _states(design, y_now[done])
        fits.iterations[stop], fits.loglike[stop] = iteration, _loglike(counts[stop], fitted)
        fits.converged[stop], fits.gap[stop] = gap[done] <= tol, gap[done]
        keep = np.flatnonzero(~stopped)
        rows, freqs, total, *carried = (a[keep] for a in (rows, freqs, total, *carried))
        return carried

    settle(0, y, None, ())  # logs the start
    # A row can stop only if lambda_max(R) <= ceiling / (1 + 1e-12), the margin
    # for rounding, and lambda_max(R) >= tr(RYR) / total: an RrhoR row whose
    # tr(RYR) is above ``bound`` cannot stop yet, nor can one that
    # _quotient_screen rules out on ``top``, the real form of its R's top
    # eigenvector at its last eigensolve (zeros before it). A NaN row passes
    # both; _state_errors refuses its state. A huge tol overflows both to inf.
    with np.errstate(over="ignore"):
        ceiling = (total + tol) * (1.0 + 1e-12)
        bound = total * ceiling
    top = np.zeros((len(rows), 8))
    last = min(_RRR_ITERATIONS, max_iter)  # the RrhoR iteration that certifies every row
    for iteration in range(last + 1):  # iteration 0 only steps from I/4
        y_now, n, pad = y, len(rows), -len(y) % 8  # y_now: the iterate gap certifies
        if pad:  # at the start, and after rows stopped
            y = np.vstack((y, np.tile(mixed, (pad, 1))))
            freqs = np.vstack((freqs, np.full((pad, _N_SETTINGS), 1 / 36)))
        weights = y @ design.to_probs
        if not weights.min(initial=np.inf) >= PROBABILITY_FLOOR:  # NaN too; no rows: none
            fits.floor_hits[rows] += (weights[:n] < PROBABILITY_FLOOR).sum(axis=1)
            np.maximum(weights, PROBABILITY_FLOOR, out=weights)
        r8 = (np.divide(freqs, weights, out=weights) @ design.frame_real).reshape(-1, 8, 8)
        gap = None  # no row can stop, so no certificate is needed
        if iteration == last:
            gap = np.linalg.eigvalsh(r8[:n, :4, :4] + 1j * r8[:n, 4:, :4])[:, -1] - total
        else:
            y = (r8 @ (y @ design.to_real).reshape(-1, 8, 8) @ r8).reshape(-1, 64)
            y = y @ design.from_real
            norm = y[:, :4].sum(axis=1)
            y /= norm[:, None]
            if iteration == 0:
                continue
            exact = np.flatnonzero(~(norm[:n] > bound))  # the rows whose gap is computed
            if len(exact) > 0:
                exact = exact[_quotient_screen(top[exact], r8[exact], ceiling[exact])]
            if len(exact) > 0:
                vals, vecs = np.linalg.eigh(r8[exact, :4, :4] + 1j * r8[exact, 4:, :4])
                gap = np.full(n, np.inf)
                gap[exact] = vals[:, -1] - total[exact]
                top[exact] = np.concatenate((vecs[:, :, -1].real, vecs[:, :, -1].imag), axis=1)
        y, ceiling, bound, top, gap = settle(iteration, y_now, gap, (y, ceiling, bound, top, gap))
        if len(rows) == 0:
            break
    if len(rows) > 0:  # open after _RRR_ITERATIONS: Newton steps from the iterate mixed with I/4
        share = np.minimum(gap / total, 1.0)[:, None]
        y, freqs = (1.0 - share) * y[:len(rows)] + share * mixed, freqs[:len(rows)]
        mu = np.maximum(0.1 * gap, tol / 16.0)
        probs = _rows(y, design.to_probs)
        while len(rows) > 0:  # settle stops every row at max_iter
            iteration += 1
            y = _newton_step(design, freqs, y, probs, mu)
            probs = _rows(y, design.to_probs)
            fits.floor_hits[rows] += (probs < PROBABILITY_FLOOR).sum(axis=1)
            weights = freqs / np.maximum(probs, PROBABILITY_FLOOR)
            r8 = _rows(weights, design.frame_real).reshape(-1, 8, 8)
            gap = np.linalg.eigvalsh(r8[:, :4, :4] + 1j * r8[:, 4:, :4])[:, -1] - total
            mu = np.maximum(mu / 10.0, np.maximum(0.1 * gap, tol / 16.0))
            y, probs, mu = settle(iteration, y, gap, (y, probs, mu))
    for i, error in zip(nonzero, _state_errors(fits.rho[nonzero])):
        fits.errors[i] = error
    ok = [i for i, error in enumerate(fits.errors) if error is None]
    fits.roots[ok] = _roots(fits.rho[ok])
    if history:
        fits.history = [tuple(log) for log in logs]
    return fits


def _mle_options(
    prefix: str = "", /, tol: float = MLE_DEFAULT_TOL, max_iter: int = MLE_DEFAULT_MAX_ITER
) -> tuple[float, int]:
    """``tol``, finite and at least MLE_TOL_FLOOR, and ``max_iter``, an integer >= 1, checked.

    A refusal names the option after ``prefix``, positional only; other names are a ``TypeError``.
    """
    if not math.isfinite(tol):
        raise ValueError(f"{prefix}tol must be finite, got {tol}")
    if not tol >= MLE_TOL_FLOOR:
        raise ValueError(f"{prefix}tol must be at least {MLE_TOL_FLOOR:g}, the rounding floor "
                         f"of the gap, got {tol}")
    max_iter = _as_integer(prefix + "max_iter", max_iter)
    if max_iter < 1:
        raise ValueError(f"{prefix}max_iter must be at least 1, got {max_iter}")
    return tol, max_iter


def mle_reconstruct(
    data: CountData,
    tol: float = MLE_DEFAULT_TOL,
    max_iter: int = MLE_DEFAULT_MAX_ITER,
) -> ReconstructionResult:
    """Iterative maximum-likelihood reconstruction.

    The fit of :func:`_mle_fits` for one count set; that function describes
    the algorithm. It stops once the certified gap between -sum_j f_j log p_j
    and its minimum, in frequencies f_j = counts_j / pairs_per_setting, is at
    most ``tol`` (``converged=True``, ``gap`` the certificate), or after
    ``max_iter`` iterations of both phases together. ``loglike_history`` holds the
    log-likelihood of every iterate, starting point included; the batched
    fit that :func:`monte_carlo_metrics` runs does not record it. Counts
    that are all zero, a failed validation and a ``tol`` that is not finite
    or is below MLE_TOL_FLOOR are refused with a ``ValueError``.
    """
    fits = _mle_fits(data.counts[None], data.pairs_per_setting, tol, max_iter, history=True)
    return fits.result(0, "mle")


def chsh_value(rho: DensityMatrix) -> float:
    """CHSH combination E(a,b) - E(a,b') + E(a',b) + E(a',b') at fixed analyzers.

    Photon A is analyzed at a = 0 and a' = 45 deg, photon B at b = 22.5 and
    b' = 67.5 deg: the optimal settings for a |HH>+|VV> target. This is tr(rho B),
    B = a x (b - b') + a' x (b + b'), the one-state call of :func:`_metric_rows`' product.
    """
    if rho.dim != 4:
        raise ValueError(f"CHSH needs a two-qubit state, got dim {rho.dim}")
    return float(np.matmul(rho.data.reshape(1, 1, 16).view(float), _design().readout)[0, 0, 1])


_TSIRELSON = 2.0 * math.sqrt(2.0)

# The headline metrics in report order.
METRIC_NAMES = ("fidelity", "concurrence", "purity", "s_value")


@dataclass(frozen=True)
class MetricsReport:
    """Point estimates and bootstrap uncertainties of the headline metrics.

    Fidelity is against the |HH>+|VV> Bell target; the CHSH value is that of
    :func:`chsh_value`, at its fixed analyzers. Both are linear in the state,
    read with one product from the design's cached ``readout`` table.
    ``point_fit`` is the reconstruction the point values come from; it is
    not part of :meth:`as_dict` or of equality.
    """

    fidelity: float
    fidelity_sigma: float
    concurrence: float
    concurrence_sigma: float
    purity: float
    purity_sigma: float
    s_value: float
    s_value_sigma: float
    n_samples: int
    n_failed: int = 0
    n_nonconverged: int = 0
    point_fit: ReconstructionResult | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        for name in ("fidelity", "concurrence", "purity"):
            val = getattr(self, name)
            if not -1e-9 <= val <= 1.0 + 1e-9:
                raise ValueError(f"{name} = {val} outside [0, 1]")
        # written as "not (ok)" so that NaN, which fails every comparison, is refused
        for name in (m + "_sigma" for m in METRIC_NAMES):
            val = getattr(self, name)
            if not 0.0 <= val < math.inf:
                raise ValueError(f"{name} = {val} must be finite and nonnegative")
        if not math.isfinite(self.s_value):
            raise ValueError(f"s_value = {self.s_value} must be finite")
        slack = 3.0 * self.s_value_sigma + 1e-9
        if abs(self.s_value) > _TSIRELSON + slack:
            raise ValueError(
                f"CHSH value {self.s_value} exceeds the quantum bound "
                f"{_TSIRELSON} beyond tolerance"
            )

    def as_dict(self) -> dict:
        return {name: getattr(self, name) for name in _METRICS_REPORT_FIELDS}


# The fields of MetricsReport.as_dict: every compared field, in order.
_METRICS_REPORT_FIELDS = tuple(f.name for f in fields(MetricsReport) if f.compare)


def _metric_rows(stack: np.ndarray, roots: np.ndarray) -> np.ndarray:
    """The metrics of every state of a (B, 4, 4) stack, one row each in METRIC_NAMES order.

    Concurrence is read from ``roots``, the factors A, rho = A A^dag, of a fit or of
    ``_roots``. Fidelity against the |HH>+|VV> Bell target and the CHSH value of
    :func:`chsh_value` are one product with the design's ``readout`` table, row-stacked
    as in :func:`_newton_system`, so a row's bits do not depend on its batch.
    """
    fidelity, s_value = np.matmul(stack.reshape(-1, 1, 16).view(float), _design().readout)[:, 0].T
    return np.stack([fidelity, _concurrences(roots), _purities(stack), s_value], axis=1)


def monte_carlo_metrics(
    data: CountData,
    n_samples: int = 100,
    seed: int = 0,
    method: str = "mle",
    resample: bool = True,
    **mle_opts,
) -> MetricsReport:
    """Metrics with parametric-bootstrap error bars, from one batched fit.

    Row 0 of the batch is the observed counts, and the ``n_samples`` resamples
    after it are drawn as Poisson(observed) in one (n_samples, 36) call of
    ``default_rng(seed)``, filled row by row, so resample k does not depend on
    ``n_samples``. One fit call, linear or likelihood (:func:`_mle_fits`),
    reconstructs every row, and one :func:`_metric_rows` pass reads the kept
    rows. ``mle_opts`` are the fit's ``tol``, finite and at least
    MLE_TOL_FLOOR, and ``max_iter``; both methods check them, any other name
    is a ``TypeError``, and linear inversion ignores them. Row 0 gives the
    point values and alone becomes a :class:`ReconstructionResult`,
    ``point_fit``; its failure is raised. Sigmas are the standard deviations
    over the resamples, and exactly 0 with ``resample=False`` (the analytic,
    zero-noise path), which fits row 0 alone. ``n_samples`` and the MLE
    ``max_iter`` must be integral (20.0 is taken as 20). Resamples whose
    counts or fit fail are dropped and counted in ``n_failed``; more than 10%
    aborts the report. MLE fits whose certified gap is still above ``tol`` at
    ``max_iter`` stay in the sigmas and are counted in ``n_nonconverged``.
    This is the one-branch call of :func:`_bootstrap_reports`.
    """
    [report] = _bootstrap_reports(data.counts[None], data.pairs_per_setting, [seed], n_samples,
                                  method, resample, **mle_opts)
    return report


@contextmanager
def _stage(stage_s: dict, name: str):
    """Add the wall time of the ``with`` body to ``stage_s[name]``."""
    start = time.perf_counter()
    yield
    stage_s[name] = stage_s.get(name, 0.0) + time.perf_counter() - start


def _bootstrap_reports(
    counts: np.ndarray,
    pairs_per_setting: int,
    seeds: Sequence[int | None],
    n_samples: int = 100,
    method: str = "mle",
    resample: bool = True,
    stage_s: dict | None = None,
    **mle_opts,
) -> list[MetricsReport]:
    """The :func:`monte_carlo_metrics` report of every row of a (B, 36) count stack, in one fit.

    Row i, branch i's observed counts at the one ``pairs_per_setting``, heads
    its block of fitted rows; the resamples of ``default_rng(seeds[i])`` that
    pass the count check follow it, the rows :func:`monte_carlo_metrics` fits
    for it alone. One :func:`_count_errors` pass first raises the first
    failing row's error. One pass over the fit's record counts each block's
    kept, failed and non-converged rows, and raises a point fit's failure or
    too many failed resamples in branch order, before any metric is read. The
    seconds of the ``resample`` (checks and draws), ``fit`` and ``metrics``
    stages are added to ``stage_s`` when it is given.
    """
    stage_s = {} if stage_s is None else stage_s
    n_samples = _as_integer("n_samples", n_samples)
    if n_samples < 10:
        raise ValueError(f"n_samples must be at least 10, got {n_samples}")
    if method not in ("mle", "linear"):
        raise ValueError(f"method must be 'mle' or 'linear', got {method!r}")
    tol, max_iter = _mle_options(**mle_opts)  # checked for linear inversion too, which ignores them
    fitter = _linear_fits
    if method == "mle":
        fitter = functools.partial(_mle_fits, tol=tol, max_iter=max_iter)
    n = len(counts)
    if n == 0 or len(seeds) != n:
        raise ValueError(f"need one count set or more and a seed each, got {n} and {len(seeds)}")
    draws = n_samples if resample else 0
    with _stage(stage_s, "resample"):
        for error in _count_errors(counts, pairs_per_setting):
            if error is not None:
                raise error
        batch = np.repeat(counts[:, None], 1 + draws, axis=1)  # per branch: observed, resamples
        keep = np.ones(batch.shape[:2], dtype=bool)
        if resample:
            for block, seed in zip(batch, seeds):
                block[1:] = np.random.default_rng(seed).poisson(block[0], size=block[1:].shape)
            errors = _count_errors(batch[:, 1:].reshape(-1, _N_SETTINGS), pairs_per_setting)
            keep[:, 1:] = np.reshape([error is None for error in errors], (n, draws))
    with _stage(stage_s, "fit"):
        fits = fitter(batch[keep], pairs_per_setting)
    with _stage(stage_s, "metrics"):
        starts = np.cumsum(keep.sum(axis=1)) - keep.sum(axis=1)  # each block's point row
        ok = np.array([error is None for error in fits.errors])
        sample = ok.copy()
        sample[starts] = False  # the resamples whose fit is kept
        kept, nonconv = (np.add.reduceat(m, starts) for m in (sample, sample & ~fits.converged))
        for start, size in zip(starts.tolist(), kept.tolist()):
            if fits.errors[start] is not None:
                raise fits.errors[start]
            if draws - size > 0.1 * n_samples:
                raise RuntimeError(f"{draws - size}/{n_samples} bootstrap reconstructions failed")
        rows = _metric_rows(fits.rho[ok], fits.roots[ok])
        firsts = np.cumsum(1 + kept) - (1 + kept)  # each block's point row among the metric rows
        reports = []
        for values, first, size, nonconverged, start in zip(
            rows[firsts].tolist(), firsts.tolist(), kept.tolist(), nonconv.tolist(), starts.tolist()
        ):
            sigmas = np.std(rows[first + 1:first + size + 1], 0, ddof=1) if resample else [0] * 4
            reports.append(MetricsReport(
                **dict(zip(METRIC_NAMES, values)),
                **{name + "_sigma": float(sd) for name, sd in zip(METRIC_NAMES, sigmas)},
                n_samples=draws, n_failed=draws - size, n_nonconverged=nonconverged,
                point_fit=fits.result(start, method),
            ))
        return reports
