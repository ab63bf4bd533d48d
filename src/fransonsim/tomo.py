"""Two-qubit polarization tomography, entanglement metrics, and CHSH tests.

Measurement settings model the physical analyzer chain per photon: an
optional quarter-wave plate followed by a linear polarizer. The design is
fixed: the 36 settings of :func:`standard_settings`, which pair the six
basis states H, V, D, A, R, L of each photon (James, Kwiat, Munro and
White, PRA 64, 052312 (2001)). A count set is one count per setting, in
that order. Counts are Poissonian with per-setting mean
pairs_per_setting * tr(rho Pi_A x Pi_B), all drawn in one call from a
generator seeded by one int, so one seed gives one count set.
Reconstruction is either constrained linear inversion or an iterative
maximum-likelihood fit; uncertainties come from a parametric bootstrap that
resamples the counts, again in one draw from one seed.
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
    _concurrences,
    _fidelities,
    _purities,
    _state_errors,
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
    "MAX_PAIRS_PER_SETTING",
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
# numpy draws Poisson counts only for means below about 2**63 (9.2e18); the
# counts and their bootstrap resamples stay far below that up to this flux.
MAX_PAIRS_PER_SETTING = 10**18

# Settings in the standard design, and so the length of every count set.
_N_SETTINGS = 36

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
    two-qubit operator space, so both estimators below are well posed, and
    they sum to 9 I, which the likelihood fit relies on.
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
    """The constant measurement design of the standard settings.

    ``projectors`` is the (36, 4, 4) stack of :func:`setting_projectors`;
    row j of the (36, 16) ``matrix`` is vec(Pi_j^T), so that
    ``matrix @ vec(rho)`` gives tr(rho Pi_j). The 36 projectors sum to 9 I,
    so the maximum-likelihood fit weighs Pi_j / 9: row j of the (36, 16)
    ``normalised`` is vec(Pi_j / 9). ``basis`` is the (15, 4, 4)
    orthonormal traceless Pauli basis E_k, and ``tangent`` the real
    (36, 15) matrix tr(Pi_j E_k) / 9, the derivative of the fitted
    probabilities along E_k; ``frame8`` holds the real forms of Pi_j / 9 and
    f @ ``pinv`` the least-squares vec(rho) of frequencies f, both as reals.
    The arrays are read-only because they are shared by every caller.
    """

    projectors: np.ndarray
    matrix: np.ndarray
    normalised: np.ndarray
    basis: np.ndarray
    tangent: np.ndarray
    frame8: np.ndarray
    pinv: np.ndarray


@functools.cache
def _design() -> _Design:
    """Build the design on first use; later calls reuse it."""
    pis = setting_projectors(standard_settings())
    frame = pis / 9.0
    paulis = (PAULI_I, PAULI_X, PAULI_Y, PAULI_Z)
    basis = np.stack([np.kron(a, b) for a in paulis for b in paulis][1:]) / 2.0
    matrix = pis.transpose(0, 2, 1).reshape(_N_SETTINGS, 16)
    design = _Design(
        projectors=pis,
        matrix=matrix,
        normalised=frame.reshape(_N_SETTINGS, 16),
        basis=basis,
        tangent=np.einsum("jab,kba->jk", frame, basis).real,
        frame8=_embed(frame).reshape(_N_SETTINGS, 64),
        pinv=np.ascontiguousarray(np.linalg.pinv(matrix).T).view(float),
    )
    for arr in vars(design).values():
        arr.setflags(write=False)
    return design


def expected_probabilities(rho: DensityMatrix) -> np.ndarray:
    """tr(rho Pi_j) for every standard setting j."""
    if rho.dim != 4:
        raise ValueError(f"tomography operates on two qubits, got dim {rho.dim}")
    probs = np.einsum("jab,ba->j", _design().projectors, rho.data).real
    # roundoff can leave probabilities a few ulp below zero
    return np.clip(probs, 0.0, None)


def _integer_fields(obj, *names: str) -> None:
    """Store each named field of a frozen dataclass as an int.

    A value that is not integral (a fraction, NaN, infinity, a string) is
    refused with the field named instead of being truncated.
    """
    for name in names:
        val = getattr(obj, name)
        try:
            exact = int(val) == val
        except (TypeError, ValueError, OverflowError):
            exact = False
        if not exact:
            raise ValueError(f"{name} must be an integer, got {val!r}")
        object.__setattr__(obj, name, int(val))


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
            errors[i] = ValueError(
                f"count {hi} exceeds 50 * pairs_per_setting, inputs are inconsistent"
            )
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


def _csv_columns(setting: MeasurementSetting) -> list[str]:
    """The six analyzer columns of one CSV row, angles in degrees with six decimals."""
    a, b = setting.party_a, setting.party_b
    return [
        f"{math.degrees(a.polarizer_angle):.6f}", f"{int(a.qwp_in)}",
        f"{math.degrees(a.qwp_angle):.6f}", f"{math.degrees(b.polarizer_angle):.6f}",
        f"{int(b.qwp_in)}", f"{math.degrees(b.qwp_angle):.6f}",
    ]


def counts_to_csv(data: CountData, path) -> None:
    """Write counts as CSV, one row per standard setting with its analyzer columns."""
    lines = [_CSV_HEADER]
    for j, (setting, count) in enumerate(zip(standard_settings(), data.counts)):
        cnt = f"{int(count)}" if float(count).is_integer() else f"{count:.17g}"
        lines.append(f"{j},{','.join(_csv_columns(setting))},{cnt}")
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def counts_from_csv(path, pairs_per_setting: int) -> CountData:
    """Read counts written by :func:`counts_to_csv`.

    The flux is not part of the CSV payload and must be supplied. The file
    must hold one row per standard setting. The plate flags ``qwp_a`` and
    ``qwp_b`` must read 0 or 1 and the angles must be finite. Each row must
    be the standard setting at its index: its ``setting_index`` the row's
    position from 0, the same plate flags, and angles within half a unit of
    the sixth written decimal of the standard angle, modulo 180 deg. A row
    that differs is refused, naming the data row and the column.
    """
    with open(path, "r", encoding="ascii") as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines or lines[0] != _CSV_HEADER:
        raise ValueError(f"unexpected CSV header: {lines[0] if lines else ''!r}")
    if len(lines) - 1 != _N_SETTINGS:
        raise ValueError(f"expected {_N_SETTINGS} data rows, got {len(lines) - 1}")
    names = _CSV_HEADER.split(",")
    counts = []
    for row, (ln, setting) in enumerate(zip(lines[1:], standard_settings()), start=1):
        cols = ln.split(",")
        if len(cols) != 8:
            raise ValueError(f"expected 8 columns, got {len(cols)}: {ln!r}")
        for k, want in enumerate([str(row - 1), *_csv_columns(setting)]):
            got = cols[k].strip()
            if k in (2, 5) and got not in ("0", "1"):
                raise ValueError(
                    f"{names[k]} must be 0 or 1, got {cols[k]!r} in data row {row}"
                )
            if k in (0, 2, 5):
                same = got == want
            else:
                angle = float(got)
                if not math.isfinite(angle):
                    name = "qwp_angle" if k in (3, 6) else "polarizer_angle"
                    raise ValueError(f"{name} must be finite, got {angle}")
                same = abs(math.remainder(angle - float(want), 180.0)) <= 5e-7
            if not same:
                raise ValueError(
                    f"{names[k]} reads {got} in data row {row}, the standard "
                    f"setting there has {want}"
                )
        counts.append(float(cols[7]))
    return CountData(np.array(counts), pairs_per_setting)


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


def _result(
    rho: np.ndarray, error: ValueError | None, **bookkeeping
) -> ReconstructionResult | ValueError:
    """The result of one fitted row, or ``error``, the refusal of its state.

    Both estimators check each stack of fitted rows with one call of
    :func:`~fransonsim.qcore._state_errors` and build every row here:
    ``error`` is the row's entry of that check, ``rho`` becomes a
    :class:`DensityMatrix` without a second check, and ``bookkeeping`` are
    the other :class:`ReconstructionResult` fields.
    """
    if error is not None:
        return error
    # a copy, so that a kept fit does not hold its whole batch
    return ReconstructionResult(rho=DensityMatrix._checked(rho.copy()), **bookkeeping)


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


def _linear_fits(counts: np.ndarray, pairs_per_setting: int) -> list:
    """Linear inversion of every row of ``counts`` (B, 36) in one batched solve.

    The cached pseudo-inverse solves each row, and every later step is a
    stacked pass that acts on each row alone, so a row's fit does not
    depend on its batch. Failures are per row: the result is one entry per
    row, the :class:`ReconstructionResult` or the exception that rejected
    the row (a collapse to the zero matrix, a failed validation or a
    ``LinAlgError``).
    """
    return _batch_or_rows(_linear_batch, _design(), counts, pairs_per_setting)


def _linear_batch(design: _Design, counts: np.ndarray, pairs_per_setting: int) -> list:
    """The solve of :func:`_linear_fits`, row by row in real arithmetic."""
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
    frame = design.projectors.reshape(_N_SETTINGS, 16).view(float).T
    probs = np.matmul(rhos.reshape(-1, 1, 16).view(float), frame)[:, 0]
    return [
        ValueError("reconstruction collapsed to the zero matrix") if total <= 0.0
        else _result(
            rho, error, method="linear", iterations=1, loglike=float(ll), converged=True,
            floor_hits=int(hits), loglike_history=(float(ll),),
        )
        for rho, error, total, ll, hits in zip(
            rhos, _state_errors(rhos), totals, _loglike(counts, probs),
            (probs < PROBABILITY_FLOOR).sum(axis=1),
        )
    ]


def linear_inversion(data: CountData) -> ReconstructionResult:
    """Least-squares state estimate, projected back onto physical states.

    Solves min ||A vec(rho) - f||_2 over all matrices, then Hermitizes,
    clips negative eigenvalues to zero, and renormalizes the trace. Exact
    on noiseless data; on sampled data the projection step is what keeps
    the estimate physical. This is the one-row call of the batched fit
    that :func:`monte_carlo_metrics` runs; a collapse to the zero matrix
    and a failed validation raise.
    """
    [fit] = _linear_fits(data.counts[None], data.pairs_per_setting)
    return _unwrap(fit)


# RrhoR iterations after which a fit still open switches to Newton steps.
# The fits of a default purify run certify within about 110; RrhoR slows
# to a sublinear crawl only near rank-deficient states, where Newton steps
# take over.
_RRR_ITERATIONS = 200


def _frame_probabilities(design: _Design, y: np.ndarray) -> np.ndarray:
    """tr(Pi_j Y) / 9 of every Y of the stack: for Hermitian Y, a real dot product."""
    return y.reshape(-1, 16).view(float) @ design.normalised.view(float).T


def _r_operator(
    design: _Design, freqs: np.ndarray, y: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """R = sum_j (f_j / p_j) Pi_j / 9 of every complex Y, and which p_j the floor caught."""
    probs = _frame_probabilities(design, y)
    weights = freqs / np.maximum(probs, PROBABILITY_FLOOR)
    return (weights @ design.normalised).reshape(-1, 4, 4), probs < PROBABILITY_FLOOR


def _embed(y: np.ndarray) -> np.ndarray:
    """The real 8x8 form [[Re Y, -Im Y], [Im Y, Re Y]] of every Y of a (..., 4, 4) stack."""
    return np.block([[y.real, -y.imag], [y.imag, y.real]])


def _unembed(y8: np.ndarray) -> np.ndarray:
    """Y of every real form of a (B, 8, 8) stack, each block the mean of its two copies."""
    return 0.5 * (y8[:, :4, :4] + y8[:, 4:, 4:]) + 0.5j * (y8[:, 4:, :4] - y8[:, :4, 4:])


def _real_r_operator(design: _Design, freqs: np.ndarray, y8: np.ndarray) -> tuple:
    """:func:`_r_operator` in real form; p_j is half the dot product of the real forms."""
    probs = 0.5 * (y8.reshape(-1, 64) @ design.frame8.T)
    weights = freqs / np.maximum(probs, PROBABILITY_FLOOR)
    return (weights @ design.frame8).reshape(-1, 8, 8), probs < PROBABILITY_FLOOR


def _rrr_step(r8: np.ndarray, y8: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The next real-form iterate, sym(R8 Y8 R8) over half its trace, and tr(R Y R)."""
    step = r8 @ y8 @ r8
    step = step + step.transpose(0, 2, 1)
    trace = np.trace(step, axis1=1, axis2=2)
    step /= 0.5 * trace[:, None, None]
    return step, 0.25 * trace


def _states(design: _Design, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """rho = Y / tr(Y) of every Y, complex or in real form, and its tr(rho Pi_j)."""
    if not np.iscomplexobj(y):
        y = _unembed(y)
    rho = y / np.trace(y, axis1=1, axis2=2).real[:, None, None]
    return rho, (rho.reshape(-1, 16) @ design.matrix.T).real


def _newton_step(
    design: _Design, freqs: np.ndarray, y: np.ndarray, mu: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """One damped Newton step per row on -sum_j f_j log p_j - mu log det Y.

    p_j = tr(Pi_j Y) / 9 are the fitted probabilities. The step moves Y along
    the 15 traceless Pauli directions, so Y keeps unit trace; the Hessian is
    T^T diag(f / p^2) T for the likelihood plus mu tr(Y^-1 E_k Y^-1 E_l)
    for the barrier. Each row's step is halved until Y + t dY passes the
    test that its smallest eigenvalue is positive. Returns the new stack
    and each row's Newton decrement.
    """
    probs = np.maximum(_frame_probabilities(design, y), PROBABILITY_FLOOR)
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
    counts: np.ndarray,
    pairs_per_setting: int,
    tol: float = MLE_DEFAULT_TOL,
    max_iter: int = MLE_DEFAULT_MAX_ITER,
    history: bool = False,
) -> list:
    """Maximum-likelihood fits of every row of ``counts`` (B, 36) in one batch.

    The 36 standard projectors sum to 9 I, so each row fits the unit-trace
    state Y = rho itself against the operators Pi_j / 9 of the cached
    design. It minimises -sum_j f_j log p_j, with p_j = tr(Pi_j Y) / 9 and
    f_j = counts_j / pairs_per_setting, which is the Poisson likelihood
    with the flux fitted too.

    All rows start from the maximally mixed state and iterate
    Y -> N[R Y R], R = sum_j (f_j / p_j) Pi_j / 9 (Rehacek, Hradil, Knill
    and Lvovsky, PRA 75, 042108 (2007)) on one stack of the real 8x8 forms
    [[Re, -Im], [Im, Re]] of Y and R, so a step is two real stacked matrix
    products; only the certificate's eigensolve, stopped rows, ``history``
    and Newton steps unembed them. A row stops when its convexity gap
    g = lambda_max(R) - sum_j f_j drops to ``tol``. The gap bounds how far
    -sum_j f_j log p_j is above its minimum, so ``converged`` is a
    certificate. ``tol`` is absolute: counts that pass :class:`CountData`
    give f_j <= 50, so the rounding of g stays far below it (this function
    does not check that bound). R and Y are PSD and Y has unit trace, so
    lambda_max(R) >= tr(RYR) / tr(RY) >= tr(RYR) / sum_j f_j, and
    tr(RYR) is the normaliser of the next RrhoR step: an RrhoR row whose
    bound already exceeds sum_j f_j + ``tol`` skips the eigensolve, which
    leaves the certificate and the iterates unchanged. Every row gets the
    exact gap at the last RrhoR iteration and in every Newton iteration.
    Rows still open after _RRR_ITERATIONS switch to damped Newton steps on
    the log-barrier problem (see :func:`_newton_step`), started from their
    iterate mixed with a share g / sum_j f_j of I/4. The barrier weight mu starts at
    max(g / 10, tol / 16). It is cut tenfold only once a step's Newton
    decrement is below mu / 4, and never below max(g / 10, tol / 16) for
    the current g; on the central path g is at most 3 mu. Iterations of
    both phases count against ``max_iter``; a row stopped by it reports
    ``converged=False``. Stopped rows leave the batch. Probabilities are
    floored at PROBABILITY_FLOOR so empty settings cannot blow up the
    weights.

    Failures are per row: the result is one entry per row, the
    :class:`ReconstructionResult` or the exception that rejected the row
    (counts that are all zero, a failed validation or a ``LinAlgError``;
    the latter fails the whole batch, which is then refitted row by row).
    Rows of zeros are refused before the iteration, so the other rows stay
    one batch. Only with ``history`` does a result carry the log-likelihood
    of every iterate.
    """
    if not tol > 0.0:
        raise ValueError(f"tol must be positive, got {tol}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")
    fits = [ValueError("the counts are all zero, there is nothing to fit")] * len(counts)
    rows = np.flatnonzero(counts.any(axis=1))
    if len(rows) == 0:
        return fits
    found = _batch_or_rows(
        _fit_batch, _design(), counts[rows], pairs_per_setting, tol, max_iter, history
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
    """The iteration of :func:`_mle_fits`; ``y``, the one stack carried, is real until Newton."""
    fits = [None] * len(counts)
    rows = np.arange(len(counts))  # input row of each batch row
    freqs = counts / float(pairs_per_setting)
    total = freqs.sum(axis=1)
    y = np.tile(np.eye(8) / 4.0, (len(counts), 1, 1))
    mu = np.zeros(len(counts))
    floor_hits = np.zeros(len(counts), dtype=int)
    logs = None
    if history:
        logs = [[float(ll)] for ll in _loglike(counts, _states(design, y)[1])]
    y, _ = _rrr_step(_real_r_operator(design, freqs, y)[0], y)
    for iteration in range(1, max_iter + 1):
        exact = np.ones(len(rows), dtype=bool)
        if iteration <= _RRR_ITERATIONS:
            r_op, floored = _real_r_operator(design, freqs, y)
            if iteration < min(_RRR_ITERATIONS, max_iter):
                y_next, norm = _rrr_step(r_op, y)
                # lambda_max(R) >= norm / total, so rows above the bound cannot
                # stop yet. The margin covers rounding; a NaN row fails the test
                # and reaches eigvalsh, whose LinAlgError refits the rows alone.
                # A tol near the float maximum overflows the bound to inf, which
                # rules no row out.
                with np.errstate(over="ignore"):
                    exact = ~(norm > total * (total + tol) * (1.0 + 1e-12))
            r_exact = _unembed(r_op[exact])
        else:
            if iteration == _RRR_ITERATIONS + 1:
                share = np.minimum(gap / total, 1.0)[:, None, None]
                y = (1.0 - share) * _unembed(y) + share * np.eye(4) / 4.0
                mu = np.maximum(0.1 * gap, tol / 16.0)
            y, decrement = _newton_step(design, freqs, y, mu)
            r_exact, floored = _r_operator(design, freqs, y)
        floor_hits += floored.sum(axis=1)
        gap = np.full(len(rows), np.inf)
        gap[exact] = np.linalg.eigvalsh(r_exact)[:, -1] - total[exact]
        if iteration > _RRR_ITERATIONS:
            lowest = np.maximum(0.1 * gap, tol / 16.0)
            mu = np.where(decrement < mu / 4.0, np.maximum(mu / 10.0, lowest), mu)
        if history:
            for i, ll in zip(rows, _loglike(counts[rows], _states(design, y)[1])):
                logs[i].append(float(ll))
        converged = gap <= tol
        stopped = converged if iteration < max_iter else np.ones_like(converged)
        done = np.flatnonzero(stopped)
        finished = y[done]
        if iteration < min(_RRR_ITERATIONS, max_iter):
            y = y_next
        if len(done) == 0:
            continue
        rhos, probs = _states(design, finished)
        for k, rho, error, ll in zip(
            done, rhos, _state_errors(rhos), _loglike(counts[rows[done]], probs)
        ):
            fits[rows[k]] = _result(
                rho, error, method="mle", iterations=iteration, loglike=float(ll),
                converged=bool(converged[k]), floor_hits=int(floor_hits[k]),
                loglike_history=tuple(logs[rows[k]]) if history else (),
                gap=float(gap[k]),
            )
        keep = ~stopped
        if not keep.any():
            break
        rows, freqs, total, y, gap, mu, floor_hits = (
            a[keep] for a in (rows, freqs, total, y, gap, mu, floor_hits)
        )
    return fits


def mle_reconstruct(
    data: CountData,
    tol: float = MLE_DEFAULT_TOL,
    max_iter: int = MLE_DEFAULT_MAX_ITER,
) -> ReconstructionResult:
    """Iterative maximum-likelihood reconstruction.

    The fit of :func:`_mle_fits` for one count set: RrhoR iterations on rho
    against Pi_j / 9 from the maximally mixed state, then Newton steps on the
    log-barrier problem if the fit is still open after 200 iterations. It
    stops once the certified gap between -sum_j f_j log p_j and its minimum,
    in frequencies f_j = counts_j / pairs_per_setting, is at most ``tol``
    (``converged=True``, ``gap`` the certificate), or after ``max_iter``
    iterations of both phases together. ``loglike_history`` holds the
    log-likelihood of every iterate, starting point included; the batched
    fit that :func:`monte_carlo_metrics` runs does not record it. Counts
    that are all zero and a failed validation are refused with a
    ``ValueError``.
    """
    [fit] = _mle_fits(
        data.counts[None], data.pairs_per_setting, tol, max_iter, history=True
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


def _chsh_values(stack: np.ndarray, angles: ChshAngles) -> np.ndarray:
    """E(a,b) - E(a,b') + E(a',b) + E(a',b') of every state of a (B, 4, 4) stack."""
    e_ab, e_abp, e_apb, e_apbp = (
        np.einsum("ab,nba->n", op, stack).real for op in _chsh_operators(angles)
    )
    return e_ab - e_abp + e_apb + e_apbp


def chsh_value(rho: DensityMatrix, angles: ChshAngles = DEFAULT_CHSH_ANGLES) -> float:
    """CHSH combination E(a,b) - E(a,b') + E(a',b) + E(a',b')."""
    if rho.dim != 4:
        raise ValueError(f"CHSH needs a two-qubit state, got dim {rho.dim}")
    return float(_chsh_values(rho.data[None], angles)[0])


_TSIRELSON = 2.0 * math.sqrt(2.0)

# The headline metrics in report order.
METRIC_NAMES = ("fidelity", "concurrence", "purity", "s_value")


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
        return {f.name: getattr(self, f.name) for f in fields(self) if f.compare}


def _metric_rows(stack: np.ndarray, angles: ChshAngles) -> np.ndarray:
    """The metrics of every state of a (B, 4, 4) stack, one row each in METRIC_NAMES order.

    Fidelity is against the |HH>+|VV> Bell target and the CHSH value uses
    ``angles``; each metric is one stacked pass over the states.
    """
    columns = {
        "fidelity": _fidelities(stack, PHI_PLUS_KET),
        "concurrence": _concurrences(stack),
        "purity": _purities(stack),
        "s_value": _chsh_values(stack, angles),
    }
    return np.stack([columns[name] for name in METRIC_NAMES], axis=1)


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
    resamples, drawn as Poisson(observed) in one (n_samples, n) call of
    ``default_rng(seed)``, are the rows after it. The generator fills the
    stack row by row, so resample k does not depend on ``n_samples``. The
    resamples are checked as one stack (:func:`_count_errors`). One call of
    the chosen fitter reconstructs every row the same way: one linear
    solve, or one stacked likelihood fit (see :func:`_mle_fits`;
    ``mle_opts`` are its ``tol`` and ``max_iter``, and linear inversion
    ignores them). The fitter validates its fitted states once per stack,
    and the four metrics of every row are one stacked pass
    (:func:`_metric_rows`). Row 0 is the point estimate: the point values
    come from it, it is returned as ``point_fit``, and its failure is
    raised. Sigmas are the standard deviations over the resamples. With
    ``resample=False`` (the analytic, zero-noise path) only row 0 is fitted
    and all sigmas are exactly 0. Samples whose counts or reconstruction
    fail are dropped and counted in ``n_failed``; more than 10% failures
    aborts the report. MLE fits whose certified gap is still above ``tol``
    at ``max_iter`` stay in the sigmas and are counted in
    ``n_nonconverged``. This is the one-branch call of
    :func:`_bootstrap_reports`, which fits many count sets in one batch.
    """
    [report] = _bootstrap_reports(
        [data], [seed], n_samples, method, angles, resample, **mle_opts
    )
    return report


def _bootstrap_reports(
    datas: Sequence[CountData],
    seeds: Sequence[int],
    n_samples: int = 100,
    method: str = "mle",
    angles: ChshAngles = DEFAULT_CHSH_ANGLES,
    resample: bool = True,
    **mle_opts,
) -> list[MetricsReport]:
    """The :func:`monte_carlo_metrics` report of every count set, from one fit call.

    Count set i is one branch: its block of rows is its observed counts,
    then the resamples drawn from ``default_rng(seeds[i])`` that pass the
    count check, exactly the rows :func:`monte_carlo_metrics` would fit for
    it alone. The blocks are stacked in branch order, one call of the
    fitter reconstructs them all, and one :func:`_metric_rows` pass scores
    every kept fit. Everything else is per block: row 0 is the branch's
    point fit, whose failure is raised in branch order; ``n_failed``, the
    10% abort and ``n_nonconverged`` count the block's resamples; the
    sigmas are the block's standard deviations. The count sets must share
    their ``pairs_per_setting``, or a ``ValueError`` says which differs.
    """
    if n_samples < 10:
        raise ValueError(f"n_samples must be at least 10, got {n_samples}")
    if method == "mle":
        fitter = functools.partial(_mle_fits, **mle_opts)
    elif method == "linear":
        fitter = _linear_fits
    else:
        raise ValueError(f"method must be 'mle' or 'linear', got {method!r}")
    if not datas:
        raise ValueError("the batch needs at least one count set")
    if len(seeds) != len(datas):
        raise ValueError(f"{len(datas)} count sets need as many seeds, got {len(seeds)}")
    pairs = datas[0].pairs_per_setting
    for i, data in enumerate(datas):
        if data.pairs_per_setting != pairs:
            raise ValueError(
                f"count set {i} has pairs_per_setting {data.pairs_per_setting}, "
                f"count set 0 has {pairs}"
            )
    draws = n_samples if resample else 0
    # per branch: observed, then resamples
    batch = np.empty((len(datas), 1 + draws, _N_SETTINGS))
    for block, data, seed in zip(batch, datas, seeds):
        block[0] = data.counts
        if resample:
            block[1:] = np.random.default_rng(seed).poisson(data.counts, size=block[1:].shape)
    keep = np.ones(batch.shape[:2], dtype=bool)
    if resample:
        errors = _count_errors(batch[:, 1:].reshape(-1, _N_SETTINGS), pairs)
        keep[:, 1:] = np.reshape([error is None for error in errors], (len(datas), draws))
    fits = fitter(batch[keep], pairs)
    branches = []  # (point fit, kept resample fits, failed) of each block
    start = 0
    for size in keep.sum(axis=1).tolist():
        point_fit, *sample_fits = fits[start:start + size]
        start += size
        point_fit = _unwrap(point_fit)
        sample_fits = [fit for fit in sample_fits if not isinstance(fit, Exception)]
        failed = draws - len(sample_fits)
        if failed > 0.1 * n_samples:
            raise RuntimeError(f"{failed}/{n_samples} bootstrap reconstructions failed")
        branches.append((point_fit, sample_fits, failed))
    rows = _metric_rows(
        np.stack([fit.rho.data for point, samples, _ in branches for fit in (point, *samples)]),
        angles,
    )
    reports = []
    start = 0
    for point_fit, sample_fits, failed in branches:
        block = rows[start:start + 1 + len(sample_fits)]
        start += len(block)
        sigmas = np.std(block[1:], axis=0, ddof=1) if resample else np.zeros(4)
        reports.append(MetricsReport(
            **{name: float(value) for name, value in zip(METRIC_NAMES, block[0])},
            **{name + "_sigma": float(sd) for name, sd in zip(METRIC_NAMES, sigmas)},
            n_samples=draws,
            n_failed=failed,
            n_nonconverged=sum(not fit.converged for fit in sample_fits),
            point_fit=point_fit,
        ))
    return reports
