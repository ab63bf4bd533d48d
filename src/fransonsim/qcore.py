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
    "QuantumChannel",
    "PhotonPairState",
    "kraus_map",
    "apply_unitary",
    "apply_channel",
    "concurrence",
    "fidelity_to",
    "purity",
    "trace_distance",
    "random_state",
    "dumps_density_matrix",
    "loads_density_matrix",
    "dump_density_matrix",
    "load_density_matrix",
]

# Tolerances for the state and operator invariants enforced below.
HERMITICITY_ATOL = 1e-12
TRACE_ATOL = 1e-12
PSD_EIGEN_FLOOR = -1e-10
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


def _as_state_array(data: np.ndarray) -> np.ndarray:
    arr = np.array(data, dtype=complex, copy=True)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"state must be a square matrix, got shape {arr.shape}")
    dim = arr.shape[0]
    if dim < 2 or dim & (dim - 1) != 0 or dim > _PAIR_DIM:
        raise ValueError(f"state dimension must be a power of 2 in [2, 16], got {dim}")
    return arr


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
        if not np.isfinite(arr).all():
            raise ValueError("matrix has non-finite entries")
        # written as "not (ok)" so that NaN, which fails every comparison, is refused
        herm = np.abs(arr - arr.conj().T).max()
        if not herm <= HERMITICITY_ATOL:
            raise ValueError(f"matrix is not Hermitian (residual {herm:.3e})")
        tr = arr.trace()
        if not abs(tr - 1.0) <= TRACE_ATOL:
            raise ValueError(f"matrix trace is {tr:.15g}, expected 1")
        eigmin = float(np.linalg.eigvalsh(arr).min())
        if not eigmin >= PSD_EIGEN_FLOOR:
            raise ValueError(f"matrix has negative eigenvalue {eigmin:.3e}")
        weight = float(self.weight)
        # Allow a whisker of float drift from chained trace products.
        if not (-1e-9 <= weight <= 1.0 + 1e-9):
            raise ValueError(f"weight {weight} outside [0, 1]")
        weight = min(max(weight, 0.0), 1.0)
        arr.setflags(write=False)
        object.__setattr__(self, "data", arr)
        object.__setattr__(self, "weight", weight)

    @property
    def dim(self) -> int:
        return self.data.shape[0]

    @classmethod
    def pure(cls, ket: np.ndarray, weight: float = 1.0) -> "DensityMatrix":
        """Projector onto a ket; the ket is normalized first."""
        vec = np.asarray(ket, dtype=complex).ravel()
        norm = np.linalg.norm(vec)
        if norm < 1e-12:
            raise ValueError("cannot normalize a zero ket")
        vec = vec / norm
        return cls(np.outer(vec, vec.conj()), weight=weight)

    @classmethod
    def maximally_mixed(cls, n_qubits: int, weight: float = 1.0) -> "DensityMatrix":
        dim = 2**n_qubits
        return cls(np.eye(dim, dtype=complex) / dim, weight=weight)


@dataclass(frozen=True)
class QuantumChannel:
    """Kraus family, either trace preserving or postselecting.

    Trace-preserving channels satisfy sum(K^dag K) = I; postselecting
    ones only need sum(K^dag K) <= I, and applying them shrinks the
    state weight by the discarded probability.
    """

    kraus: tuple[np.ndarray, ...]
    trace_preserving: bool = True

    def __post_init__(self) -> None:
        ops = []
        for k in self.kraus:
            op = np.array(k, dtype=complex, copy=True)
            if op.ndim != 2 or op.shape[0] != op.shape[1]:
                raise ValueError("Kraus operators must be square matrices")
            op.setflags(write=False)
            ops.append(op)
        if not ops:
            raise ValueError("channel needs at least one Kraus operator")
        dim = ops[0].shape[0]
        if any(op.shape[0] != dim for op in ops):
            raise ValueError("Kraus operators must share one dimension")
        total = sum(op.conj().T @ op for op in ops)
        if self.trace_preserving:
            resid = np.abs(total - np.eye(dim)).max()
            if resid > HERMITICITY_ATOL:
                raise ValueError(
                    f"trace-preserving channel violates sum(K^H K) = I "
                    f"(residual {resid:.3e})"
                )
        else:
            top = float(np.linalg.eigvalsh(total).max())
            if top > 1.0 + HERMITICITY_ATOL:
                raise ValueError(
                    f"postselecting channel has sum(K^H K) > I "
                    f"(largest eigenvalue {top:.15g})"
                )
        object.__setattr__(self, "kraus", tuple(ops))


def kraus_map(
    data: np.ndarray, kraus: Sequence[np.ndarray], targets: Sequence[str]
) -> np.ndarray:
    """Sum of K rho K^dag over ``kraus``, each K acting on ``targets``.

    ``data`` is a 16x16 pair-register matrix and ``targets`` are labels from
    :data:`PAIR_LABELS`, in the order the operators see them; the operators
    share one shape. Works on the raw matrix and returns one; nothing is
    validated or renormalized. The target axes of the ``(2,)*8`` tensor of
    ``data`` are moved to the front, every operator is contracted with them
    by one stacked matmul per side, and the axes are moved back, so no
    16x16 operator is ever built.
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
    rest = _PAIR_DIM // t
    positions = [PAIR_LABELS.index(label) for label in targets]
    order = positions + [q for q in range(4) if q not in positions]
    axes = order + [4 + q for q in order]
    front = np.asarray(data).reshape((2,) * 8).transpose(axes).reshape(t, -1)
    left = np.matmul(ops, front).reshape(len(ops), t * rest, t, rest)
    both = np.matmul(ops.conj()[:, None], left).sum(axis=0)
    back = [axes.index(k) for k in range(8)]
    return both.reshape((2,) * 8).transpose(back).reshape(_PAIR_DIM, _PAIR_DIM)


def _check_pair(rho: DensityMatrix) -> None:
    if rho.dim != _PAIR_DIM:
        raise ValueError(f"state dim {rho.dim} is not the pair register's {_PAIR_DIM}")


def apply_unitary(
    rho: DensityMatrix,
    u: np.ndarray,
    targets: Sequence[str],
) -> DensityMatrix:
    """Conjugate the pair state by a unitary on the labelled target qubits."""
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
    channel: QuantumChannel,
    targets: Sequence[str],
) -> DensityMatrix:
    """Apply a Kraus channel on the labelled target qubits of the pair state.

    The output is renormalized and the weight is multiplied by the
    pre-normalization trace, which is 1 for trace-preserving channels.
    Raises :class:`PostselectionError` if the state is postselected away.
    """
    _check_pair(rho)
    out = kraus_map(rho.data, channel.kraus, targets)
    tr = float(out.trace().real)
    if tr < EMPTY_POSTSELECTION_TRACE:
        raise PostselectionError(
            f"channel output trace {tr:.3e} is below {EMPTY_POSTSELECTION_TRACE}"
        )
    return DensityMatrix(out / tr, weight=rho.weight * tr)


def concurrence(rho: DensityMatrix) -> float:
    """Two-qubit concurrence.

    Uses the spin-flipped product rho (sy x sy) rho* (sy x sy): with its
    eigenvalues' square roots sorted descending, the concurrence is
    max(0, l1 - l2 - l3 - l4).
    """
    if rho.dim != 4:
        raise ValueError(f"concurrence is defined for two qubits, got dim {rho.dim}")
    yy = np.kron(PAULI_Y, PAULI_Y)
    flipped = rho.data @ yy @ rho.data.conj() @ yy
    lams = np.linalg.eigvals(flipped).real
    lams = np.sqrt(np.clip(lams, 0.0, None))
    lams.sort()
    return float(max(0.0, lams[-1] - lams[-2] - lams[-3] - lams[-4]))


def fidelity_to(rho: DensityMatrix, psi: np.ndarray) -> float:
    """Fidelity <psi|rho|psi> against a normalized pure target."""
    vec = np.asarray(psi, dtype=complex).ravel()
    if vec.shape[0] != rho.dim:
        raise ValueError(f"ket dim {vec.shape[0]} does not match state dim {rho.dim}")
    norm = np.linalg.norm(vec)
    if abs(norm - 1.0) > 1e-12:
        raise ValueError(f"target ket is not normalized (norm {norm:.15g})")
    return float((vec.conj() @ rho.data @ vec).real)


def purity(rho: DensityMatrix) -> float:
    """tr(rho^2), 1 for pure states down to 1/dim for maximally mixed."""
    return float((rho.data @ rho.data).trace().real)


def trace_distance(a: DensityMatrix, b: DensityMatrix) -> float:
    """Half the trace norm of the difference of two states."""
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    eigs = np.linalg.eigvalsh(a.data - b.data)
    return float(0.5 * np.abs(eigs).sum())


def _haar_ket(dim: int, rng: np.random.Generator) -> np.ndarray:
    vec = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return vec / np.linalg.norm(vec)


def random_state(n_qubits: int, kind: str = "pure", seed: int = 0) -> DensityMatrix:
    """Deterministic random state: Haar pure, or a mixture of Haar pures."""
    if not 1 <= n_qubits <= len(PAIR_LABELS):
        raise ValueError(f"n_qubits must be in [1, {len(PAIR_LABELS)}], got {n_qubits}")
    rng = np.random.default_rng(seed)
    dim = 2**n_qubits
    if kind == "pure":
        return DensityMatrix.pure(_haar_ket(dim, rng))
    if kind == "mixed":
        weights = rng.dirichlet(np.ones(dim))
        data = np.zeros((dim, dim), dtype=complex)
        for w in weights:
            ket = _haar_ket(dim, rng)
            data += w * np.outer(ket, ket.conj())
        return DensityMatrix(data)
    raise ValueError(f"kind must be 'pure' or 'mixed', got {kind!r}")


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
        reduced = np.einsum(subscripts, self.rho.data.reshape((2,) * 8))
        return DensityMatrix(reduced.reshape(4, 4), weight=self.rho.weight)

    def pol_marginal(self) -> DensityMatrix:
        """Reduced state of the two polarization qubits (pol_A, pol_B)."""
        return self._marginal("abcdebgd->aceg")

    def et_marginal(self) -> DensityMatrix:
        """Reduced state of the two energy-time (path) qubits (et_A, et_B)."""
        return self._marginal("abcdafch->bdfh")


def _format_complex(z: complex) -> str:
    return f"{z.real:.17g}{z.imag:+.17g}j"


def dumps_density_matrix(rho: DensityMatrix) -> str:
    """Text form: 'dim N' then N rows of N 're+imj' entries, row-major."""
    lines = [f"dim {rho.dim}"]
    for row in rho.data:
        lines.append(" ".join(_format_complex(z) for z in row))
    return "\n".join(lines) + "\n"


def loads_density_matrix(text: str, weight: float = 1.0) -> DensityMatrix:
    """Inverse of :func:`dumps_density_matrix`."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty density-matrix dump")
    head = lines[0].split()
    if len(head) != 2 or head[0] != "dim":
        raise ValueError(f"bad header line {lines[0]!r}, expected 'dim N'")
    dim = int(head[1])
    if len(lines) != dim + 1:
        raise ValueError(f"expected {dim} rows, found {len(lines) - 1}")
    data = np.zeros((dim, dim), dtype=complex)
    for i, line in enumerate(lines[1:]):
        entries = line.split()
        if len(entries) != dim:
            raise ValueError(f"row {i} has {len(entries)} entries, expected {dim}")
        data[i] = [complex(tok) for tok in entries]
    return DensityMatrix(data, weight=weight)


def dump_density_matrix(rho: DensityMatrix, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(dumps_density_matrix(rho))


def load_density_matrix(path, weight: float = 1.0) -> DensityMatrix:
    with open(path, "r", encoding="ascii") as fh:
        return loads_density_matrix(fh.read(), weight=weight)
