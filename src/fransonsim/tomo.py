"""Two-qubit polarization tomography, entanglement metrics, and CHSH tests.

Measurement settings model the physical analyzer chain per photon: an
optional quarter-wave plate followed by a linear polarizer. Counts are
Poissonian with per-setting mean pairs_per_setting * tr(rho Pi_A x Pi_B),
simulated on counter-based substreams of one seed so results do not depend
on evaluation order. Reconstruction is either constrained linear inversion
or an iterative maximum-likelihood fit; uncertainties come from a
parametric bootstrap that resamples the counts.
"""

from __future__ import annotations

import functools
import math
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
    concurrence,
    fidelity_to,
    purity,
)
from .optics import WaveplateSpec, jones

__all__ = [
    "PartySetting",
    "MeasurementSetting",
    "CountData",
    "ReconstructionResult",
    "ChshAngles",
    "MetricsReport",
    "DEFAULT_CHSH_ANGLES",
    "DEFAULT_PAIRS_PER_SETTING",
    "projector",
    "standard_settings",
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

PROBABILITY_FLOOR = 1e-12
MLE_DEFAULT_TOL = 1e-10
MLE_DEFAULT_MAX_ITER = 10_000

_CSV_HEADER = "setting_index,theta_a,qwp_a,qwp_theta_a,theta_b,qwp_b,qwp_theta_b,count"


@dataclass(frozen=True)
class PartySetting:
    """One analyzer: polarizer angle plus an optional quarter-wave plate.

    Angles are radians and reduced to [0, pi); ``qwp_angle`` is meaningful
    only when ``qwp_in`` is true but is stored regardless.
    """

    polarizer_angle: float
    qwp_in: bool = False
    qwp_angle: float = 0.0

    def __post_init__(self) -> None:
        for name in ("polarizer_angle", "qwp_angle"):
            angle = float(getattr(self, name))
            if not math.isfinite(angle):
                raise ValueError(f"{name} must be finite, got {angle}")
            object.__setattr__(self, name, angle % math.pi)
        object.__setattr__(self, "qwp_in", bool(self.qwp_in))


@dataclass(frozen=True)
class MeasurementSetting:
    """Analyzer settings for both photons of one coincidence measurement."""

    party_a: PartySetting
    party_b: PartySetting


def projector(setting: MeasurementSetting, party: str) -> np.ndarray:
    """Rank-1 polarization projector realized by one party's analyzer.

    The transmitted state is the polarizer's linear ket pulled back through
    the quarter-wave plate: psi = QWP(angle)^dag (cos t, sin t). Without the
    plate this is the linear projector itself; with the plate at 0 deg and
    the polarizer at +/-45 deg it is a circular projector.
    """
    if party == "A":
        ps = setting.party_a
    elif party == "B":
        ps = setting.party_b
    else:
        raise ValueError(f"party must be 'A' or 'B', got {party!r}")
    ket = np.array(
        [math.cos(ps.polarizer_angle), math.sin(ps.polarizer_angle)], dtype=complex
    )
    if ps.qwp_in:
        ket = jones(WaveplateSpec("quarter", ps.qwp_angle)).conj().T @ ket
    return np.outer(ket, ket.conj())


def _eigenstate_settings() -> list[PartySetting]:
    """Analyzer positions for the six single-photon basis states.

    Order: H, V, D, A, R, L. The circular pair uses the quarter-wave plate
    at 0 deg with the polarizer at 45 deg / 135 deg.
    """
    return [
        PartySetting(0.0),
        PartySetting(math.pi / 2),
        PartySetting(math.pi / 4),
        PartySetting(3 * math.pi / 4),
        PartySetting(math.pi / 4, qwp_in=True, qwp_angle=0.0),
        PartySetting(3 * math.pi / 4, qwp_in=True, qwp_angle=0.0),
    ]


def standard_settings() -> list[MeasurementSetting]:
    """The 36 coincidence settings pairing the six basis states per photon.

    Overcomplete on purpose: the 36 product projectors span the full
    two-qubit operator space, so both estimators below are well posed.
    """
    singles = _eigenstate_settings()
    return [
        MeasurementSetting(a, b) for a in singles for b in singles
    ]


def setting_projectors(settings: Sequence[MeasurementSetting]) -> np.ndarray:
    """Stacked coincidence projectors Pi_A x Pi_B, shape (n, 4, 4)."""
    mats = [
        np.kron(projector(s, "A"), projector(s, "B")) for s in settings
    ]
    return np.stack(mats)


@dataclass(frozen=True)
class _Design:
    """The constant measurement design of one settings tuple.

    ``projectors`` is the (n, 4, 4) stack of :func:`setting_projectors`;
    row j of the (n, 16) ``matrix`` is vec(Pi_j^T), so that
    ``matrix @ vec(rho)`` gives tr(rho Pi_j). ``spans`` says whether the
    projectors span the two-qubit operator space (rank 16).

    The maximum-likelihood fit works in the frame whitened by H = sum_j Pi_j.
    ``whitening`` is H^-1/2, and row j of the (n, 16) ``normalised`` is
    vec(H^-1/2 Pi_j H^-1/2), the operators the fit weighs. ``basis`` is the
    (15, 4, 4) orthonormal traceless Pauli basis E_k, and ``tangent`` the
    real (n, 15) matrix tr(H^-1/2 Pi_j H^-1/2 E_k), the derivative of the
    whitened probabilities along E_k. The four are None when H is singular.
    The arrays are read-only because they are shared by every caller.
    """

    projectors: np.ndarray
    matrix: np.ndarray
    spans: bool
    whitening: np.ndarray | None
    normalised: np.ndarray | None
    basis: np.ndarray | None
    tangent: np.ndarray | None


@functools.lru_cache(maxsize=8)
def _design(settings: tuple[MeasurementSetting, ...]) -> _Design:
    """Build the design of ``settings`` on first use; later calls reuse it."""
    pis = setting_projectors(settings)
    matrix = pis.transpose(0, 2, 1).reshape(len(settings), 16)
    eigvals, eigvecs = np.linalg.eigh(pis.sum(axis=0))
    whitening = normalised = basis = tangent = None
    if eigvals[0] > 1e-12 * eigvals[-1]:
        whitening = (eigvecs / np.sqrt(eigvals)) @ eigvecs.conj().T
        whitened = whitening @ pis @ whitening
        normalised = whitened.reshape(len(settings), 16)
        paulis = (PAULI_I, PAULI_X, PAULI_Y, PAULI_Z)
        basis = np.stack([np.kron(a, b) for a in paulis for b in paulis][1:]) / 2.0
        tangent = np.einsum("jab,kba->jk", whitened, basis).real
        for arr in (whitening, normalised, basis, tangent):
            arr.setflags(write=False)
    pis.setflags(write=False)
    matrix.setflags(write=False)
    return _Design(
        pis, matrix, bool(np.linalg.matrix_rank(matrix) == 16),
        whitening, normalised, basis, tangent,
    )


def expected_probabilities(
    rho: DensityMatrix, settings: Sequence[MeasurementSetting]
) -> np.ndarray:
    """tr(rho Pi_j) for every setting."""
    if rho.dim != 4:
        raise ValueError(f"tomography operates on two qubits, got dim {rho.dim}")
    pis = _design(tuple(settings)).projectors
    probs = np.einsum("jab,ba->j", pis, rho.data).real
    # roundoff can leave probabilities a few ulp below zero
    return np.clip(probs, 0.0, None)


@dataclass(frozen=True)
class CountData:
    """Coincidence counts for a list of settings.

    ``counts`` are nonnegative; Poisson-sampled data is integer valued while
    the analytic mode stores exact expected counts, which are generally not
    integers. ``seed`` records the stream that generated sampled data (0
    for analytic data).
    """

    settings: tuple[MeasurementSetting, ...]
    counts: np.ndarray
    pairs_per_setting: int
    seed: int = 0

    def __post_init__(self) -> None:
        settings = tuple(self.settings)
        counts = np.array(self.counts, dtype=float, copy=True)
        if counts.ndim != 1 or counts.shape[0] != len(settings):
            raise ValueError(
                f"counts shape {counts.shape} does not match {len(settings)} settings"
            )
        if not settings:
            raise ValueError("count data needs at least one setting")
        # min and max are both finite exactly when every count is
        lo, hi = counts.min(), counts.max()
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError(f"non-finite count: {counts[~np.isfinite(counts)][0]}")
        if lo < 0.0:
            raise ValueError(f"negative count: {lo}")
        if int(self.pairs_per_setting) <= 0:
            raise ValueError(
                f"pairs_per_setting must be positive, got {self.pairs_per_setting}"
            )
        # A coincidence rate 50x above the per-setting flux means the
        # simulation inputs are inconsistent, not just unlucky.
        if hi > 50.0 * self.pairs_per_setting:
            raise ValueError(
                f"count {hi} exceeds 50 * pairs_per_setting, "
                "inputs are inconsistent"
            )
        counts.setflags(write=False)
        object.__setattr__(self, "settings", settings)
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "pairs_per_setting", int(self.pairs_per_setting))
        object.__setattr__(self, "seed", int(self.seed))

    @property
    def frequencies(self) -> np.ndarray:
        return self.counts / float(self.pairs_per_setting)


def _setting_stream(seed: int, index: int) -> np.random.Generator:
    """Independent substream for one setting, stable under reordering."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(index,)))


def simulate_counts(
    rho: DensityMatrix,
    settings: Sequence[MeasurementSetting],
    pairs_per_setting: int = DEFAULT_PAIRS_PER_SETTING,
    seed: int = 0,
) -> CountData:
    """Poisson coincidence counts, one counter-based substream per setting."""
    probs = expected_probabilities(rho, settings)
    counts = np.array(
        [
            float(_setting_stream(seed, j).poisson(pairs_per_setting * p))
            for j, p in enumerate(probs)
        ]
    )
    return CountData(tuple(settings), counts, pairs_per_setting, seed=seed)


def analytic_counts(
    rho: DensityMatrix,
    settings: Sequence[MeasurementSetting],
    pairs_per_setting: int = DEFAULT_PAIRS_PER_SETTING,
) -> CountData:
    """Exact expected counts, the zero-noise limit of :func:`simulate_counts`."""
    probs = expected_probabilities(rho, settings)
    return CountData(
        tuple(settings), pairs_per_setting * probs, pairs_per_setting, seed=0
    )


def counts_to_csv(data: CountData, path) -> None:
    """Write counts as CSV; angles in degrees with six decimals."""
    lines = [_CSV_HEADER]
    for j, (setting, count) in enumerate(zip(data.settings, data.counts)):
        a, b = setting.party_a, setting.party_b
        cnt = f"{int(count)}" if float(count).is_integer() else f"{count:.17g}"
        lines.append(
            f"{j},{math.degrees(a.polarizer_angle):.6f},{int(a.qwp_in)},"
            f"{math.degrees(a.qwp_angle):.6f},{math.degrees(b.polarizer_angle):.6f},"
            f"{int(b.qwp_in)},{math.degrees(b.qwp_angle):.6f},{cnt}"
        )
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def counts_from_csv(path, pairs_per_setting: int, seed: int = 0) -> CountData:
    """Read counts written by :func:`counts_to_csv`.

    The flux and seed are not part of the CSV payload and must be supplied.
    """
    with open(path, "r", encoding="ascii") as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines or lines[0] != _CSV_HEADER:
        raise ValueError(f"unexpected CSV header: {lines[0] if lines else ''!r}")
    settings = []
    counts = []
    for ln in lines[1:]:
        cols = ln.split(",")
        if len(cols) != 8:
            raise ValueError(f"expected 8 columns, got {len(cols)}: {ln!r}")
        settings.append(
            MeasurementSetting(
                PartySetting(
                    math.radians(float(cols[1])), bool(int(cols[2])),
                    math.radians(float(cols[3])),
                ),
                PartySetting(
                    math.radians(float(cols[4])), bool(int(cols[5])),
                    math.radians(float(cols[6])),
                ),
            )
        )
        counts.append(float(cols[7]))
    return CountData(tuple(settings), np.array(counts), pairs_per_setting, seed=seed)


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
    solves its own problem exactly.
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


def _result(rho: np.ndarray, **bookkeeping) -> ReconstructionResult | ValueError:
    """The result of one fitted row, or the ``ValueError`` its state raised.

    Both estimators build every row they fit here: ``rho`` becomes a
    validated :class:`DensityMatrix`, and ``bookkeeping`` are the other
    :class:`ReconstructionResult` fields.
    """
    try:
        return ReconstructionResult(rho=DensityMatrix(rho), **bookkeeping)
    except ValueError as exc:
        return exc


def _batch_or_rows(fit, design: _Design, counts: np.ndarray, *args) -> list:
    """``fit(design, counts, *args)``, or each row alone if the batch raises.

    A ``LinAlgError`` in one row fails the whole stacked solve, so the rows
    are then fitted one by one; a row that raises on its own gets the error
    as its entry.
    """
    try:
        return fit(design, counts, *args)
    except np.linalg.LinAlgError as exc:
        if len(counts) == 1:
            return [exc]
    return [_batch_or_rows(fit, design, row[None], *args)[0] for row in counts]


def _unwrap(fit: ReconstructionResult | Exception) -> ReconstructionResult:
    """The fit of one row; a row that was refused raises its error."""
    if isinstance(fit, Exception):
        raise fit
    return fit


def _linear_fits(
    settings: tuple[MeasurementSetting, ...], counts: np.ndarray, pairs_per_setting: int
) -> list:
    """Linear inversion of every row of ``counts`` (B, n) in one batched solve.

    One least-squares solve with B right-hand sides and one stacked
    eigendecomposition serve all rows; each row is then clipped,
    renormalized and validated on its own. The log-likelihoods and floor
    hits of all rows come from one stacked pass over their probabilities.
    Settings that do not span the operator space raise a ``ValueError``.
    Otherwise failures are per row: the result is one entry per row, the
    :class:`ReconstructionResult` or the exception that rejected the row (a
    collapse to the zero matrix, a failed validation or a ``LinAlgError``).
    """
    design = _design(settings)
    if not design.spans:
        raise ValueError(
            "settings do not span the operator space, reconstruction is "
            "underdetermined"
        )
    return _batch_or_rows(_linear_batch, design, counts, pairs_per_setting)


def _linear_batch(design: _Design, counts: np.ndarray, pairs_per_setting: int) -> list:
    """The solve of :func:`_linear_fits` on a design that spans."""
    freqs = (counts / float(pairs_per_setting)).astype(complex)
    sol, *_ = np.linalg.lstsq(design.matrix, freqs.T, rcond=None)
    raw = sol.T.reshape(-1, 4, 4)
    raw = 0.5 * (raw + raw.conj().transpose(0, 2, 1))
    eigvals, eigvecs = np.linalg.eigh(raw)
    vals = np.clip(eigvals, 0.0, None)
    totals = vals.sum(axis=1)
    shares = np.divide(
        vals, totals[:, None], out=np.zeros_like(vals), where=totals[:, None] > 0.0
    )
    rhos = np.stack([(vecs * w) @ vecs.conj().T for vecs, w in zip(eigvecs, shares)])
    probs = (rhos.reshape(-1, 16) @ design.matrix.T).real
    return [
        ValueError("reconstruction collapsed to the zero matrix") if total <= 0.0
        else _result(
            rho, method="linear", iterations=1, loglike=float(ll), converged=True,
            floor_hits=int(hits), loglike_history=(float(ll),),
        )
        for rho, total, ll, hits in zip(
            rhos, totals, _loglike(counts, probs), (probs < PROBABILITY_FLOOR).sum(axis=1)
        )
    ]


def linear_inversion(data: CountData) -> ReconstructionResult:
    """Least-squares state estimate, projected back onto physical states.

    Solves min ||A vec(rho) - f||_2 over all matrices, then Hermitizes,
    clips negative eigenvalues to zero, and renormalizes the trace. Exact
    on noiseless data; on sampled data the projection step is what keeps
    the estimate physical. This is the one-row call of the batched fit
    that :func:`monte_carlo_metrics` runs; settings that do not span, a
    collapse to the zero matrix and a failed validation raise.
    """
    [fit] = _linear_fits(data.settings, data.counts[None], data.pairs_per_setting)
    return _unwrap(fit)


# RrhoR iterations after which a fit still open switches to Newton steps.
# The fits of a default purify run certify within about 110; RrhoR slows
# to a sublinear crawl only near rank-deficient states, where Newton steps
# take over.
_RRR_ITERATIONS = 200


def _whitened_probabilities(design: _Design, y: np.ndarray) -> np.ndarray:
    """tr(H^-1/2 Pi_j H^-1/2 Y) for every setting j and every Y of the stack.

    For Hermitian operators the trace is the real dot product of the
    matrices' entries, so one real matrix product gives it.
    """
    return y.reshape(-1, 16).view(float) @ design.normalised.view(float).T


def _r_operator(
    design: _Design, freqs: np.ndarray, y: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """R = sum_j (f_j / p_j) Pi~_j of every row, and which p_j the floor caught."""
    probs = _whitened_probabilities(design, y)
    weights = freqs / np.maximum(probs, PROBABILITY_FLOOR)
    return (weights @ design.normalised).reshape(-1, 4, 4), probs < PROBABILITY_FLOOR


def _states(design: _Design, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """rho = N[H^-1/2 Y H^-1/2] of every row, and its probabilities tr(rho Pi_j)."""
    rho = design.whitening @ y @ design.whitening
    rho /= np.trace(rho, axis1=1, axis2=2).real[:, None, None]
    return rho, (rho.reshape(-1, 16) @ design.matrix.T).real


def _newton_step(
    design: _Design, freqs: np.ndarray, y: np.ndarray, mu: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """One damped Newton step per row on -sum_j f_j log p_j - mu log det Y.

    p_j = tr(Pi~_j Y) are the whitened probabilities. The step moves Y along
    the 15 traceless Pauli directions, so Y keeps unit trace; the Hessian is
    T^T diag(f / p^2) T for the likelihood plus mu tr(Y^-1 E_k Y^-1 E_l)
    for the barrier. Each row's step is halved until Y + t dY passes the
    test that its smallest eigenvalue is positive. Returns the new stack
    and each row's Newton decrement.
    """
    probs = np.maximum(_whitened_probabilities(design, y), PROBABILITY_FLOOR)
    weights = freqs / probs
    y_inv_e = np.linalg.inv(y)[:, None] @ design.basis
    grad = -(weights @ design.tangent) - mu[:, None] * np.trace(
        y_inv_e, axis1=2, axis2=3
    ).real
    hess = (design.tangent.T * (weights / probs)[:, None, :]) @ design.tangent
    hess += mu[:, None, None] * np.einsum("bkij,blji->bkl", y_inv_e, y_inv_e).real
    step = np.linalg.solve(hess, -grad[..., None])[..., 0]
    dy = (step @ design.basis.reshape(15, 16)).reshape(-1, 4, 4)
    t = np.ones(len(y))
    for _ in range(60):
        inside = np.linalg.eigvalsh(y + t[:, None, None] * dy)[:, 0] > 0.0
        if inside.all():
            break
        t[~inside] *= 0.5
    return y + t[:, None, None] * dy, -np.einsum("bk,bk->b", grad, step)


def _mle_fits(
    settings: tuple[MeasurementSetting, ...],
    counts: np.ndarray,
    pairs_per_setting: int,
    tol: float = MLE_DEFAULT_TOL,
    max_iter: int = MLE_DEFAULT_MAX_ITER,
    history: bool = False,
) -> list:
    """Maximum-likelihood fits of every row of ``counts`` (B, n) in one batch.

    Each row fits the unit-trace Y = H^1/2 rho H^1/2 / tr(H rho), with
    H = sum_j Pi_j, against the whitened operators Pi~_j = H^-1/2 Pi_j H^-1/2
    of the cached design. It minimises -sum_j f_j log p_j, with
    p_j = tr(Pi~_j Y) and f_j = counts_j / pairs_per_setting, which is the
    Poisson likelihood with the flux fitted too, and returns rho
    proportional to H^-1/2 Y H^-1/2. For the standard settings H = 9 I and
    Y = rho.

    All rows start from the maximally mixed state and iterate
    Y -> N[R Y R], R = sum_j (f_j / p_j) Pi~_j (Rehacek, Hradil, Knill and
    Lvovsky, PRA 75, 042108 (2007)), as one (B, 4, 4) stack. A row stops
    when its convexity gap g = lambda_max(R) - sum_j f_j drops to ``tol``.
    The gap bounds how far -sum_j f_j log p_j is above its minimum, so
    ``converged`` is a certificate. Rows still open after _RRR_ITERATIONS
    switch to damped Newton steps on the log-barrier problem (see
    :func:`_newton_step`), started from their iterate mixed with a share
    g / sum_j f_j of I/4. The barrier weight mu starts at
    max(g / 10, tol / 16). It is cut tenfold only once a step's Newton
    decrement is below mu / 4, and never below max(g / 10, tol / 16) for
    the current g; on the central path g is at most 3 mu. Iterations of
    both phases count against ``max_iter``; a row stopped by it reports
    ``converged=False``. Stopped rows leave the batch. Probabilities are
    floored at PROBABILITY_FLOOR so empty settings cannot blow up the
    weights.

    A singular H raises a ``ValueError``. Otherwise failures are per row:
    the result is one entry per row, the :class:`ReconstructionResult` or
    the exception that rejected the row (counts that are all zero, a failed
    validation or a ``LinAlgError``; the latter fails the whole batch, which
    is then refitted row by row). Rows of zeros are refused before the
    iteration, so the other rows stay one batch. Only with ``history`` does
    a result carry the log-likelihood of every iterate.
    """
    if not tol > 0.0:
        raise ValueError(f"tol must be positive, got {tol}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")
    design = _design(settings)
    if design.normalised is None:
        raise ValueError(
            "the setting projectors sum to a singular operator, the likelihood "
            "fit is undetermined"
        )
    fits = [ValueError("the counts are all zero, there is nothing to fit")] * len(counts)
    rows = np.flatnonzero(counts.any(axis=1))
    if len(rows) == 0:
        return fits
    found = _batch_or_rows(
        _fit_batch, design, counts[rows], pairs_per_setting, tol, max_iter, history
    )
    for i, fit in zip(rows, found):
        fits[i] = fit
    return fits


def _fit_batch(
    design: _Design,
    counts: np.ndarray,
    pairs_per_setting: int,
    tol: float,
    max_iter: int,
    history: bool,
) -> list:
    """The iteration of :func:`_mle_fits` on a design with a regular H."""
    fits = [None] * len(counts)
    rows = np.arange(len(counts))  # input row of each batch row
    freqs = counts / float(pairs_per_setting)
    total = freqs.sum(axis=1)
    y = np.tile(np.eye(4, dtype=complex) / 4.0, (len(counts), 1, 1))
    mu = np.zeros(len(counts))
    floor_hits = np.zeros(len(counts), dtype=int)
    r_op, _ = _r_operator(design, freqs, y)
    logs = None
    if history:
        logs = [[float(ll)] for ll in _loglike(counts, _states(design, y)[1])]
    for iteration in range(1, max_iter + 1):
        if iteration <= _RRR_ITERATIONS:
            y = r_op @ y @ r_op
            y = 0.5 * (y + y.conj().transpose(0, 2, 1))
            y /= np.trace(y, axis1=1, axis2=2).real[:, None, None]
        else:
            if iteration == _RRR_ITERATIONS + 1:
                share = np.minimum(gap / total, 1.0)[:, None, None]
                y = (1.0 - share) * y + share * np.eye(4) / 4.0
                mu = np.maximum(0.1 * gap, tol / 16.0)
            y, decrement = _newton_step(design, freqs, y, mu)
        r_op, floored = _r_operator(design, freqs, y)
        floor_hits += floored.sum(axis=1)
        gap = np.linalg.eigvalsh(r_op)[:, -1] - total
        if iteration > _RRR_ITERATIONS:
            lowest = np.maximum(0.1 * gap, tol / 16.0)
            mu = np.where(decrement < mu / 4.0, np.maximum(mu / 10.0, lowest), mu)
        if history:
            for i, ll in zip(rows, _loglike(counts[rows], _states(design, y)[1])):
                logs[i].append(float(ll))
        converged = gap <= tol
        stopped = converged if iteration < max_iter else np.ones_like(converged)
        if not stopped.any():
            continue
        done = np.flatnonzero(stopped)
        rhos, probs = _states(design, y[done])
        for k, rho, ll in zip(done, rhos, _loglike(counts[rows[done]], probs)):
            fits[rows[k]] = _result(
                rho, method="mle", iterations=iteration, loglike=float(ll),
                converged=bool(converged[k]), floor_hits=int(floor_hits[k]),
                loglike_history=tuple(logs[rows[k]]) if history else (),
                gap=float(gap[k]),
            )
        keep = ~stopped
        if not keep.any():
            break
        rows, freqs, total, y, r_op, gap, mu, floor_hits = (
            a[keep] for a in (rows, freqs, total, y, r_op, gap, mu, floor_hits)
        )
    return fits


def mle_reconstruct(
    data: CountData,
    tol: float = MLE_DEFAULT_TOL,
    max_iter: int = MLE_DEFAULT_MAX_ITER,
) -> ReconstructionResult:
    """Iterative maximum-likelihood reconstruction.

    The fit of :func:`_mle_fits` for one count set: RrhoR iterations in the
    whitened frame from the maximally mixed state, then Newton steps on the
    log-barrier problem if the fit is still open after 200 iterations. It
    stops once the certified gap between -sum_j f_j log p_j and its minimum,
    in frequencies f_j = counts_j / pairs_per_setting, is at most ``tol``
    (``converged=True``, ``gap`` the certificate), or after ``max_iter``
    iterations of both phases together. ``loglike_history`` holds the
    log-likelihood of every iterate, starting point included; the batched
    fit that :func:`monte_carlo_metrics` runs does not record it. Counts
    that are all zero, settings whose projectors sum to a singular operator
    and a failed validation are refused with a ``ValueError``.
    """
    [fit] = _mle_fits(
        data.settings, data.counts[None], data.pairs_per_setting, tol, max_iter,
        history=True,
    )
    return _unwrap(fit)


@dataclass(frozen=True)
class ChshAngles:
    """Analyzer angles (radians) for the four CHSH correlators.

    Measurement operators are sigma(theta) = cos(2 theta) Z + sin(2 theta) X,
    i.e. linear-polarization analyzers rotated in the H/V great circle. The
    defaults are the optimal settings for a |HH>+|VV> target.
    """

    alpha: float = 0.0
    alpha_prime: float = math.pi / 4
    beta: float = math.pi / 8
    beta_prime: float = 3 * math.pi / 8


DEFAULT_CHSH_ANGLES = ChshAngles()


def _analyzer(theta: float) -> np.ndarray:
    return math.cos(2 * theta) * PAULI_Z + math.sin(2 * theta) * PAULI_X


@functools.lru_cache(maxsize=16)
def _chsh_operators(angles: ChshAngles) -> tuple[np.ndarray, ...]:
    """The correlator operators of E(a,b), E(a,b'), E(a',b), E(a',b')."""
    ops = tuple(
        np.kron(_analyzer(ta), _analyzer(tb))
        for ta, tb in (
            (angles.alpha, angles.beta),
            (angles.alpha, angles.beta_prime),
            (angles.alpha_prime, angles.beta),
            (angles.alpha_prime, angles.beta_prime),
        )
    )
    for op in ops:
        op.setflags(write=False)
    return ops


def chsh_value(rho: DensityMatrix, angles: ChshAngles = DEFAULT_CHSH_ANGLES) -> float:
    """CHSH combination E(a,b) - E(a,b') + E(a',b) + E(a',b')."""
    if rho.dim != 4:
        raise ValueError(f"CHSH needs a two-qubit state, got dim {rho.dim}")

    e_ab, e_abp, e_apb, e_apbp = (
        float(np.einsum("ab,ba->", op, rho.data).real)
        for op in _chsh_operators(angles)
    )
    return e_ab - e_abp + e_apb + e_apbp


_TSIRELSON = 2.0 * math.sqrt(2.0)

# The headline metrics in report order, each a function of (rho, CHSH angles).
_METRICS = {
    "fidelity": lambda rho, angles: fidelity_to(rho, PHI_PLUS_KET),
    "concurrence": lambda rho, angles: concurrence(rho),
    "purity": lambda rho, angles: purity(rho),
    "s_value": lambda rho, angles: chsh_value(rho, angles),
}
METRIC_NAMES = tuple(_METRICS)


@dataclass(frozen=True)
class MetricsReport:
    """Point estimates and bootstrap uncertainties of the headline metrics.

    Fidelity is against the |HH>+|VV> Bell target; the CHSH value uses the
    angles the report was built with (defaults unless stated otherwise).
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
        for name in (m + "_sigma" for m in METRIC_NAMES):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be nonnegative")
        slack = 3.0 * self.s_value_sigma + 1e-9
        if abs(self.s_value) > _TSIRELSON + slack:
            raise ValueError(
                f"CHSH value {self.s_value} exceeds the quantum bound "
                f"{_TSIRELSON} beyond tolerance"
            )

    def as_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self) if f.compare}


def _metric_vector(rho: DensityMatrix, angles: ChshAngles) -> np.ndarray:
    """The metrics of ``rho`` in METRIC_NAMES order."""
    return np.array([metric(rho, angles) for metric in _METRICS.values()])


def monte_carlo_metrics(
    data: CountData,
    n_samples: int = 100,
    seed: int = 0,
    method: str = "mle",
    angles: ChshAngles = DEFAULT_CHSH_ANGLES,
    resample: bool = True,
    **mle_opts,
) -> MetricsReport:
    """Metrics with parametric-bootstrap error bars, from one batched fit.

    The observed counts are row 0 of the batch and the ``n_samples``
    resamples, drawn as Poisson(observed), are the rows after it. One call
    of the chosen fitter reconstructs every row the same way: one linear
    solve, or one stacked likelihood fit (see :func:`_mle_fits`;
    ``mle_opts`` are its ``tol`` and ``max_iter``, and linear inversion
    ignores them). Row 0 is the point estimate: the point values come from
    it, it is returned as ``point_fit``, and its failure is raised. Sigmas
    are the standard deviations over the resamples. With ``resample=False``
    (the analytic, zero-noise path) only row 0 is fitted and all sigmas are
    exactly 0. Samples whose counts or reconstruction fail are dropped and
    counted in ``n_failed``; more than 10% failures aborts the report. MLE
    fits whose certified gap is still above ``tol`` at ``max_iter`` stay in
    the sigmas and are counted in ``n_nonconverged``.
    """
    if n_samples < 10:
        raise ValueError(f"n_samples must be at least 10, got {n_samples}")
    if method == "mle":
        fitter = functools.partial(_mle_fits, **mle_opts)
    elif method == "linear":
        fitter = _linear_fits
    else:
        raise ValueError(f"method must be 'mle' or 'linear', got {method!r}")
    counts = [data.counts]
    failed = 0
    for s in range(n_samples if resample else 0):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(s,)))
        try:
            sample = CountData(
                data.settings, rng.poisson(data.counts).astype(float),
                data.pairs_per_setting, seed=data.seed,
            )
        except ValueError:
            failed += 1
        else:
            counts.append(sample.counts)
    point_fit, *fits = fitter(data.settings, np.stack(counts), data.pairs_per_setting)
    point_fit = _unwrap(point_fit)
    fits = [fit for fit in fits if not isinstance(fit, Exception)]
    failed += len(counts) - 1 - len(fits)
    if failed > 0.1 * n_samples:
        raise RuntimeError(f"{failed}/{n_samples} bootstrap reconstructions failed")
    sigmas = np.zeros(4)
    if resample:
        rows = np.stack([_metric_vector(fit.rho, angles) for fit in fits])
        sigmas = np.std(rows, axis=0, ddof=1)
    point = _metric_vector(point_fit.rho, angles)
    return MetricsReport(
        **{name: float(value) for name, value in zip(METRIC_NAMES, point)},
        **{name + "_sigma": float(sd) for name, sd in zip(METRIC_NAMES, sigmas)},
        n_samples=n_samples if resample else 0,
        n_failed=failed,
        n_nonconverged=sum(not fit.converged for fit in fits),
        point_fit=point_fit,
    )
