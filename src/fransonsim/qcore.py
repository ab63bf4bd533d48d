"""Dense density-matrix primitives for the photon-pair register.

States are explicit complex matrices over at most the four qubits of the
pair register, kept normalized to unit trace. Probability mass retained
through postselecting operations is tracked separately in a scalar
``weight``, so a state after one or more postselections is always the pair
(normalized matrix, weight).

Every container is a frozen dataclass and every operation returns a new
value; nothing here mutates, so values can be shared freely across threads.

Basis conventions: the pair register is the fixed qubit tuple
:data:`PAIR_LABELS`, ``(pol_A, et_A, pol_B, et_B)``, most significant qubit
first, giving 16-dimensional joint states; operators name the qubits they act
on by these labels. Polarization qubits order their basis as {H = 0, V = 1};
energy-time (equivalently path) qubits order theirs as {S = 0, L = 1}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "HERMITICITY_ATOL",
    "TRACE_ATOL",
    "PSD_EIGEN_FLOOR",
    "UNITARITY_ATOL",
    "EMPTY_POSTSELECTION_TRACE",
    "PAULI_I",
    "PAULI_X",
    "PAULI_Y",
    "PAULI_Z",
    "PHI_PLUS_KET",
    "PAIR_LABELS",
    "PostselectionError",
    "DensityMatrix",
    "PhotonPairState",
    "kraus_map",
    "apply_unitary",
    "apply_channel",
    "concurrence",
    "fidelity_to",
    "purity",
    "dumps_density_matrix",
    "loads_density_matrix",
    "dump_density_matrix",
    "load_density_matrix",
]

# Tolerances for the state and operator invariants enforced below.
HERMITICITY_ATOL = 1e-12
TRACE_ATOL = 1e-12
PSD_EIGEN_FLOOR = -1e-10
# The shift of the Cholesky test in _state_errors, 1e-13 inside the floor:
# a shift of exactly -PSD_EIGEN_FLOOR passes some rows the floor refuses.
_PSD_SHIFT = 0.999e-10
UNITARITY_ATOL = 1e-12
EMPTY_POSTSELECTION_TRACE = 1e-14

PAULI_I = np.eye(2, dtype=complex)
PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

# (|00> + |11>)/sqrt(2) on any two-qubit register: |HH>+|VV> for a
# polarization pair, |SS>+|LL> for an energy-time pair.
PHI_PLUS_KET = np.array([1.0, 0.0, 0.0, 1.0], dtype=complex) / np.sqrt(2.0)

PAIR_LABELS = ("pol_A", "et_A", "pol_B", "et_B")
_PAIR_DIM = 16


class PostselectionError(RuntimeError):
    """Raised when a postselecting operation retains no probability mass."""


def _as_integer(name: str, val) -> int:
    """``val`` as an int, or a ``ValueError`` naming ``name``.

    A value that is not integral (a fraction, NaN, infinity, a string) is
    refused instead of being truncated.
    """
    try:
        exact = int(val) == val
    except (TypeError, ValueError, OverflowError):
        exact = False
    if not exact:
        raise ValueError(f"{name} must be an integer, got {val!r}")
    return int(val)


def _integer_fields(obj, *names: str) -> None:
    """Store each named field of a frozen dataclass as an int (see :func:`_as_integer`)."""
    for name in names:
        object.__setattr__(obj, name, _as_integer(name, getattr(obj, name)))


def _as_state_array(data: np.ndarray) -> np.ndarray:
    arr = np.array(data, dtype=complex, copy=True)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"state must be a square matrix, got shape {arr.shape}")
    dim = arr.shape[0]
    if dim < 2 or dim & (dim - 1) != 0 or dim > _PAIR_DIM:
        raise ValueError(f"state dimension must be a power of 2 in [2, 16], got {dim}")
    return arr


def _state_errors(stack: np.ndarray) -> list[ValueError | None]:
    """Why each matrix of a complex (B, d, d) stack is not a state, or None.

    The checks, in order: finite entries, Hermitian within HERMITICITY_ATOL,
    unit trace within TRACE_ATOL, smallest eigenvalue at least
    PSD_EIGEN_FLOOR. A row's entry is the ``ValueError`` of the first check
    it fails. The Hermiticity residual, the trace and the last check are
    each one pass over the stack. A non-finite entry makes its row's
    residual NaN or infinite, so the row fails there and its entries then
    tell which message it gets. :class:`DensityMatrix` runs this on a stack
    of one.

    The rows that pass the first three checks go through one stacked
    Cholesky factorisation of rho + s I, s = 0.999e-10, a margin of 1e-13
    inside the floor. It succeeds only if every row's smallest eigenvalue
    is above -s less the factorisation's backward error (Higham 1990), at
    most a few 1e-14 for a trace-one state of d <= 16, so then every row
    passes. If it fails, ``eigvalsh`` runs on those rows to decide which of
    them are below the floor and to name each smallest eigenvalue; it never
    runs on a stack that passes.
    """
    with np.errstate(invalid="ignore"):  # inf - inf, in rows refused as non-finite
        herm = np.abs(stack - stack.conj().transpose(0, 2, 1)).max(axis=(1, 2)).tolist()
        trace = stack.trace(axis1=1, axis2=2).tolist()
    errors = [None] * len(stack)
    rows = []  # the rows that reach the eigenvalue check
    # written as "ok" and "not (ok)" so that NaN, which fails every comparison, is refused
    for i, (res, tr) in enumerate(zip(herm, trace)):
        if res <= HERMITICITY_ATOL and abs(tr - 1.0) <= TRACE_ATOL:
            rows.append(i)
        elif not np.isfinite(stack[i]).all():
            errors[i] = ValueError("matrix has non-finite entries")
        elif not res <= HERMITICITY_ATOL:
            errors[i] = ValueError(f"matrix is not Hermitian (residual {res:.3e})")
        else:
            errors[i] = ValueError(f"matrix trace is {tr:.15g}, expected 1")
    if rows:
        checked = stack if len(rows) == len(stack) else stack[rows]
        try:
            np.linalg.cholesky(checked + _PSD_SHIFT * np.eye(checked.shape[-1]))
        except np.linalg.LinAlgError:  # some row may be below the floor
            for i, eigmin in zip(rows, np.linalg.eigvalsh(checked)[:, 0].tolist()):
                if not eigmin >= PSD_EIGEN_FLOOR:
                    errors[i] = ValueError(f"matrix has negative eigenvalue {eigmin:.3e}")
    return errors


def _check_states(stack: np.ndarray) -> np.ndarray:
    """``stack`` after one :func:`_state_errors` call; raises its first row's error."""
    for error in _state_errors(stack):
        if error is not None:
            raise error
    return stack


@dataclass(frozen=True)
class DensityMatrix:
    """Normalized density matrix plus the postselection weight behind it.

    ``data`` is Hermitian, positive semidefinite and unit trace within the
    module tolerances; violations raise ``ValueError`` at construction.
    ``weight`` is the probability that the preparation survived every
    postselecting step so far, so it starts at 1.0 and only shrinks.
    """

    data: np.ndarray
    weight: float = 1.0

    def __post_init__(self) -> None:
        arr = _as_state_array(self.data)
        _check_states(arr[None])
        self._freeze(arr, self.weight)

    def _freeze(self, arr: np.ndarray, weight: float) -> None:
        weight = float(weight)
        # Allow a whisker of float drift from chained trace products.
        if not (-1e-9 <= weight <= 1.0 + 1e-9):
            raise ValueError(f"weight {weight} outside [0, 1]")
        arr.setflags(write=False)
        object.__setattr__(self, "data", arr)
        object.__setattr__(self, "weight", min(max(weight, 0.0), 1.0))

    @classmethod
    def _checked(cls, data: np.ndarray, weight: float = 1.0) -> "DensityMatrix":
        """State of a row that :func:`_state_errors` passed, with its weight.

        The batched fits and the stacked physics check their whole stack in
        one call; this builds each passing row without checking it a second
        time. The row is not copied but made read-only, so a caller that
        keeps writing to its stack passes a copy. The weight is checked and
        clamped as at construction.
        """
        state = object.__new__(cls)
        state._freeze(np.asarray(data, dtype=complex), weight)
        return state

    @property
    def dim(self) -> int:
        return self.data.shape[0]


def kraus_map(
    data: np.ndarray, kraus: Sequence[np.ndarray], targets: Sequence[str]
) -> np.ndarray:
    """Sum of K rho K^dag over ``kraus``, each K acting on ``targets``.

    ``data`` is a 16x16 pair-register matrix or a (B, 16, 16) stack of them,
    and ``targets`` are labels from :data:`PAIR_LABELS`, in the order the
    operators see them; the operators share one shape. Works on the raw
    matrices and returns the same shape; nothing is validated or
    renormalized. The operators are summed into one Liouville matrix
    sum_k K x conj(K) on the targets (:func:`_superoperator`), (t^2, t^2)
    for t = 2 ** len(targets), and :func:`_liouville_map` applies it.
    """
    ops = np.asarray(kraus, dtype=complex)
    targets = tuple(targets)
    for label in targets:
        if label not in PAIR_LABELS:
            raise ValueError(f"unknown label {label!r}, the register is {PAIR_LABELS}")
    if len(set(targets)) != len(targets):
        raise ValueError(f"duplicate targets: {targets}")
    t = 2 ** len(targets)
    if ops.shape[1:] != (t, t):
        raise ValueError(
            f"operator shape {ops.shape[1:]} does not match {len(targets)} target qubit(s)"
        )
    return _liouville_map(data, _superoperator(ops), targets)


def _superoperator(kraus: np.ndarray) -> np.ndarray:
    """sum_k K_k x conj(K_k) of a (k, t, t) stack: the (t^2, t^2) Liouville matrix of the map.

    vec(K rho K^dag) = (K x conj(K)) vec(rho) for the row-major vec
    (Wood, Biamonte and Cory, QIC 15, 759 (2015)), so the map of a Kraus
    set, or the composition of several maps, is one matrix on vec(rho).
    """
    t = kraus.shape[-1]
    return np.einsum("kij,kab->iajb", kraus, kraus.conj()).reshape(t * t, t * t)


def _liouville_map(data: np.ndarray, sop: np.ndarray, targets: Sequence[str]) -> np.ndarray:
    """The Liouville matrix ``sop`` applied to ``targets`` of every matrix of ``data``.

    ``data`` is a 16x16 pair-register matrix or a (B, 16, 16) stack of
    them, returned in the same shape. The row and column axes of the
    targets of every ``(2,)*8`` tensor are moved to the front, so each
    state is a (t^2, 256 / t^2) matrix whose columns are the vec of its
    target block at one setting of the other qubits; one stacked
    ``sop @ x``, one product per state, maps them all, and the axes are
    moved back. A state's bits do not depend on its batch.
    """
    data = np.asarray(data)
    n = data.size // _PAIR_DIM**2
    positions = [PAIR_LABELS.index(label) for label in targets]
    rest = [q for q in range(4) if q not in positions]
    axes = [0] + [1 + q for q in positions] + [5 + q for q in positions]
    axes += [1 + q for q in rest] + [5 + q for q in rest]
    out = sop @ data.reshape((n,) + (2,) * 8).transpose(axes).reshape(n, len(sop), -1)
    return out.reshape((n,) + (2,) * 8).transpose(np.argsort(axes)).reshape(data.shape)


def _check_pair(rho: DensityMatrix) -> None:
    if rho.dim != _PAIR_DIM:
        raise ValueError(f"state dim {rho.dim} is not the pair register's {_PAIR_DIM}")


def apply_unitary(
    rho: DensityMatrix,
    u: np.ndarray,
    targets: Sequence[str],
) -> DensityMatrix:
    """Conjugate the pair state by a unitary on the labelled target qubits."""
    # No pipeline calls this; it stays because bench/spans.py traces it.
    _check_pair(rho)
    u = np.asarray(u, dtype=complex)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise ValueError(f"operator must be square, got shape {u.shape}")
    resid = np.abs(u.conj().T @ u - np.eye(u.shape[0])).max()
    if resid > UNITARITY_ATOL:
        raise ValueError(f"operator is not unitary (residual {resid:.3e})")
    return DensityMatrix(kraus_map(rho.data, (u,), targets), weight=rho.weight)


def apply_channel(
    rho: DensityMatrix,
    kraus: Sequence[np.ndarray],
    targets: Sequence[str],
) -> DensityMatrix:
    """Apply Kraus operators on the labelled target qubits of the pair state.

    The operators may postselect: they need only sum(K^dag K) <= I, and a set
    whose sum has an eigenvalue above 1 + HERMITICITY_ATOL is refused. The
    output is renormalized and the weight is multiplied by the
    pre-normalization trace, which is 1 for a trace-preserving set.
    Raises :class:`PostselectionError` if the state is postselected away.
    """
    # No pipeline calls this; it stays because bench/spans.py traces it.
    _check_pair(rho)
    ops = np.asarray(kraus, dtype=complex)
    out = kraus_map(rho.data, ops, targets)
    top = float(np.linalg.eigvalsh((ops.conj().transpose(0, 2, 1) @ ops).sum(axis=0)).max())
    if top > 1.0 + HERMITICITY_ATOL:
        raise ValueError(f"Kraus operators have sum(K^H K) > I (largest eigenvalue {top:.15g})")
    tr = float(out.trace().real)
    if tr < EMPTY_POSTSELECTION_TRACE:
        raise PostselectionError(
            f"channel output trace {tr:.3e} is below {EMPTY_POSTSELECTION_TRACE}"
        )
    return DensityMatrix(out / tr, weight=rho.weight * tr)


# sigma_y x sigma_y, the spin flip of a two-qubit state
_YY = np.kron(PAULI_Y, PAULI_Y)


def _roots(stack: np.ndarray) -> np.ndarray:
    """A = V sqrt(w), rho = A A^dag, of every state of a stack, from eigh(rho) (w clipped at 0)."""
    eigvals, eigvecs = np.linalg.eigh(stack)
    return eigvecs * np.sqrt(np.clip(eigvals, 0.0, None))[:, None, :]


def _concurrences(roots: np.ndarray) -> np.ndarray:
    """Concurrence of every rho = A A^dag, from a (B, 4, 4) stack of factors A.

    max(0, l1 - l2 - l3 - l4) for the Wootters values l1 >= ... >= l4
    (Wootters, PRL 80, 2245, 1998), read as the singular values of
    A^T (sy x sy) A. Unlike square roots of the eigenvalues of
    rho (sy x sy) rho* (sy x sy), this keeps full precision on
    rank-deficient states.
    """
    lams = np.linalg.svd(roots.transpose(0, 2, 1) @ _YY @ roots, compute_uv=False)
    excess = lams[:, 0] - lams[:, 1] - lams[:, 2] - lams[:, 3]
    return np.where(excess > 0.0, excess, 0.0)


def _purities(stack: np.ndarray) -> np.ndarray:
    """tr(rho^2) of every state of a (B, d, d) stack."""
    return (stack @ stack).trace(axis1=1, axis2=2).real


def concurrence(rho: DensityMatrix) -> float:
    """Two-qubit concurrence, the one-state call of :func:`_concurrences`."""
    if rho.dim != 4:
        raise ValueError(f"concurrence is defined for two qubits, got dim {rho.dim}")
    return float(_concurrences(_roots(rho.data[None]))[0])


def fidelity_to(rho: DensityMatrix, psi: np.ndarray) -> float:
    """Fidelity <psi|rho|psi> against a pure target ket of any dimension.

    A ket of the wrong dimension, non-finite, or not of unit norm within 1e-12 is refused.
    """
    vec = np.asarray(psi, dtype=complex).ravel()
    if vec.shape[0] != rho.dim:
        raise ValueError(f"ket dim {vec.shape[0]} does not match state dim {rho.dim}")
    if not np.isfinite(vec).all():
        raise ValueError(f"target ket has non-finite entries: {vec}")
    norm = math.hypot(*vec.view(float))  # scaled by the largest part, so no square overflows
    if not abs(norm - 1.0) <= 1e-12:
        raise ValueError(f"target ket is not normalized (norm {norm:.15g})")
    return float((vec.conj() @ rho.data @ vec).real)


def purity(rho: DensityMatrix) -> float:
    """tr(rho^2), 1 for pure states down to 1/dim for maximally mixed."""
    return float(_purities(rho.data[None])[0])


@dataclass(frozen=True)
class PhotonPairState:
    """Joint photon-pair state over the register :data:`PAIR_LABELS`.

    Wraps a 16-dimensional :class:`DensityMatrix` and adds the marginals the
    optical stages lean on.
    """

    rho: DensityMatrix

    def __post_init__(self) -> None:
        _check_pair(self.rho)

    @property
    def weight(self) -> float:
        return self.rho.weight

    def _marginal(self, subscripts: str) -> DensityMatrix:
        reduced = _marginals(self.rho.data[None], subscripts)[0]
        return DensityMatrix(reduced, weight=self.rho.weight)

    def pol_marginal(self) -> DensityMatrix:
        """Reduced state of the two polarization qubits (pol_A, pol_B)."""
        return self._marginal(_POL_MARGINAL)

    def et_marginal(self) -> DensityMatrix:
        """Reduced state of the two energy-time (path) qubits (et_A, et_B)."""
        return self._marginal(_ET_MARGINAL)


# einsum subscripts of the (pol_A, pol_B) and (et_A, et_B) marginals of a
# (B,) + (2,)*8 stack of pair-register states
_POL_MARGINAL = "nabcdebgd->naceg"
_ET_MARGINAL = "nabcdafch->nbdfh"


def _marginals(stack: np.ndarray, subscripts: str) -> np.ndarray:
    """The (B, 4, 4) marginals of a (B, 16, 16) stack, one ``einsum`` for all."""
    return np.einsum(subscripts, stack.reshape((-1,) + (2,) * 8)).reshape(-1, 4, 4)


def _format_complex(z: complex) -> str:
    return f"{z.real:.17g}{z.imag:+.17g}j"


def dumps_density_matrix(rho: DensityMatrix) -> str:
    """Text form: 'dim N' then N rows of N 're+imj' entries, row-major."""
    lines = [f"dim {rho.dim}"]
    for row in rho.data:
        lines.append(" ".join(_format_complex(z) for z in row))
    return "\n".join(lines) + "\n"


def _dump_field(kind, token: str, line: int, column: int):
    """``kind(token)``, or a refusal naming the line and the column of ``token``."""
    try:
        return kind(token)
    except ValueError:
        want = "an integer" if kind is int else "a complex number"
        raise ValueError(
            f"density-matrix dump line {line}, column {column}: expected {want}, got {token!r}"
        ) from None


def loads_density_matrix(text: str, weight: float = 1.0) -> DensityMatrix:
    """Inverse of :func:`dumps_density_matrix`.

    A field that does not parse is refused by its line of ``text`` and its
    place among the whitespace-separated fields of that line, both from 1.
    """
    lines = [(n, ln) for n, ln in enumerate(text.splitlines(), start=1) if ln.strip()]
    if not lines:
        raise ValueError("empty density-matrix dump")
    (at, header), rows = lines[0], lines[1:]
    head = header.split()
    if len(head) != 2 or head[0] != "dim":
        raise ValueError(f"bad header line {header!r}, expected 'dim N'")
    dim = _dump_field(int, head[1], at, 2)
    if len(rows) != dim:
        raise ValueError(f"expected {dim} rows, found {len(rows)}")
    data = np.zeros((dim, dim), dtype=complex)
    for i, (at, line) in enumerate(rows):
        entries = line.split()
        if len(entries) != dim:
            raise ValueError(f"row {i} has {len(entries)} entries, expected {dim}")
        data[i] = [_dump_field(complex, tok, at, k) for k, tok in enumerate(entries, start=1)]
    return DensityMatrix(data, weight=weight)


def dump_density_matrix(rho: DensityMatrix, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(dumps_density_matrix(rho))


def load_density_matrix(path, weight: float = 1.0) -> DensityMatrix:
    with open(path, "r", encoding="ascii") as fh:
        return loads_density_matrix(fh.read(), weight=weight)
