"""Dense density-matrix primitives for small multi-qubit registers.

States are explicit complex matrices over a handful of qubits, kept
normalized to unit trace. Probability mass retained through postselecting
operations is tracked separately in a scalar ``weight``, so a state after
one or more postselections is always the pair (normalized matrix, weight).

Every container is a frozen dataclass and every operation returns a new
value; nothing here mutates, so values can be shared freely across threads.

Basis conventions: the tensor factor of a register is named by a
:class:`SubsystemLayout` label, most significant qubit first. Polarization
qubits order their basis as {H = 0, V = 1}; energy-time (equivalently path)
qubits order theirs as {S = 0, L = 1}. The canonical photon-pair register is
``(pol_A, et_A, pol_B, et_B)``, giving 16-dimensional joint states.
"""

from __future__ import annotations

import string
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "HERMITICITY_ATOL",
    "TRACE_ATOL",
    "PSD_EIGEN_FLOOR",
    "UNITARITY_ATOL",
    "EMPTY_POSTSELECTION_TRACE",
    "MAX_QUBITS",
    "PAULI_I",
    "PAULI_X",
    "PAULI_Y",
    "PAULI_Z",
    "KET_H",
    "KET_V",
    "KET_S",
    "KET_L",
    "PHI_PLUS_KET",
    "PAIR_LABELS",
    "PAIR_LAYOUT",
    "PostselectionError",
    "SubsystemLayout",
    "DensityMatrix",
    "QuantumChannel",
    "PhotonPairState",
    "tensor",
    "partial_trace",
    "permute_qubits",
    "lift_unitary",
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

# Register size cap; everything in this package lives in at most 2**6 dims.
MAX_QUBITS = 6

PAULI_I = np.eye(2, dtype=complex)
PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

KET_H = np.array([1.0, 0.0], dtype=complex)
KET_V = np.array([0.0, 1.0], dtype=complex)
KET_S = np.array([1.0, 0.0], dtype=complex)
KET_L = np.array([0.0, 1.0], dtype=complex)

# (|00> + |11>)/sqrt(2) on any two-qubit register: |HH>+|VV> for a
# polarization pair, |SS>+|LL> for an energy-time pair.
PHI_PLUS_KET = np.array([1.0, 0.0, 0.0, 1.0], dtype=complex) / np.sqrt(2.0)

PAIR_LABELS = ("pol_A", "et_A", "pol_B", "et_B")


class PostselectionError(RuntimeError):
    """Raised when a postselecting operation retains no probability mass."""


@dataclass(frozen=True)
class SubsystemLayout:
    """Ordered qubit labels of a register, most significant factor first."""

    labels: tuple[str, ...]

    def __post_init__(self) -> None:
        labels = tuple(self.labels)
        if not labels:
            raise ValueError("layout needs at least one label")
        if len(set(labels)) != len(labels):
            raise ValueError(f"duplicate labels in layout: {labels}")
        if len(labels) > MAX_QUBITS:
            raise ValueError(
                f"layout has {len(labels)} qubits, maximum is {MAX_QUBITS}"
            )
        object.__setattr__(self, "labels", labels)

    @property
    def n_qubits(self) -> int:
        return len(self.labels)

    @property
    def dim(self) -> int:
        return 2 ** len(self.labels)

    def index(self, label: str) -> int:
        """Position of ``label`` in the register (0 = most significant)."""
        try:
            return self.labels.index(label)
        except ValueError:
            raise ValueError(
                f"unknown label {label!r}, layout has {self.labels}"
            ) from None


PAIR_LAYOUT = SubsystemLayout(PAIR_LABELS)


def _as_state_array(data: np.ndarray) -> np.ndarray:
    arr = np.array(data, dtype=complex, copy=True)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"state must be a square matrix, got shape {arr.shape}")
    dim = arr.shape[0]
    if dim < 2 or dim & (dim - 1) != 0 or dim > 2**MAX_QUBITS:
        raise ValueError(f"state dimension must be a power of 2 in [2, 64], got {dim}")
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
        herm = np.abs(arr - arr.conj().T).max()
        if herm > HERMITICITY_ATOL:
            raise ValueError(f"matrix is not Hermitian (residual {herm:.3e})")
        tr = arr.trace()
        if abs(tr - 1.0) > TRACE_ATOL:
            raise ValueError(f"matrix trace is {tr:.15g}, expected 1")
        eigmin = float(np.linalg.eigvalsh(arr).min())
        if eigmin < PSD_EIGEN_FLOOR:
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

    @property
    def n_qubits(self) -> int:
        return self.dim.bit_length() - 1

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

    @property
    def dim(self) -> int:
        return self.kraus[0].shape[0]


def tensor(a: DensityMatrix, b: DensityMatrix) -> DensityMatrix:
    """Kronecker product of two states; weights multiply."""
    if a.dim * b.dim > 2**MAX_QUBITS:
        raise ValueError(
            f"tensor product dimension {a.dim * b.dim} exceeds 2**{MAX_QUBITS}"
        )
    return DensityMatrix(np.kron(a.data, b.data), weight=a.weight * b.weight)


def partial_trace(
    rho: DensityMatrix, layout: SubsystemLayout, keep: Iterable[str]
) -> DensityMatrix:
    """Reduced state on the ``keep`` labels, ordered as in ``layout``.

    The traced-out qubits are summed away; the weight is unchanged since
    a partial trace discards information, not probability mass.
    """
    if rho.dim != layout.dim:
        raise ValueError(f"state dim {rho.dim} does not match layout dim {layout.dim}")
    keep_set = set(keep)
    if not keep_set:
        raise ValueError("keep must name at least one qubit")
    for label in keep_set:
        layout.index(label)
    n = layout.n_qubits
    keep_pos = [i for i, lab in enumerate(layout.labels) if lab in keep_set]
    letters = string.ascii_lowercase
    row = list(letters[:n])
    col = [letters[n + i] if i in keep_pos else row[i] for i in range(n)]
    out = "".join(row[i] for i in keep_pos) + "".join(col[i] for i in keep_pos)
    sub = "".join(row) + "".join(col) + "->" + out
    reduced = np.einsum(sub, rho.data.reshape((2,) * (2 * n)))
    dim = 2 ** len(keep_pos)
    return DensityMatrix(reduced.reshape(dim, dim), weight=rho.weight)


def permute_qubits(rho: DensityMatrix, order: Sequence[int]) -> DensityMatrix:
    """Reorder tensor factors so new slot ``k`` holds old qubit ``order[k]``."""
    n = rho.n_qubits
    order = list(order)
    if sorted(order) != list(range(n)):
        raise ValueError(f"order must be a permutation of range({n}), got {order}")
    axes = order + [n + q for q in order]
    data = rho.data.reshape((2,) * (2 * n)).transpose(axes).reshape(rho.dim, rho.dim)
    return DensityMatrix(data, weight=rho.weight)


def _positions(
    op: np.ndarray, targets: Sequence[str], layout: SubsystemLayout
) -> list[int]:
    """Register positions of ``targets``, checked against the operator shape."""
    targets = list(targets)
    positions = [layout.index(t) for t in targets]
    if len(set(positions)) != len(positions):
        raise ValueError(f"duplicate targets: {targets}")
    t = len(positions)
    if op.shape != (2**t, 2**t):
        raise ValueError(
            f"operator shape {op.shape} does not match {t} target qubit(s)"
        )
    return positions


def lift_unitary(
    u: np.ndarray, targets: Sequence[str], layout: SubsystemLayout
) -> np.ndarray:
    """Embed a unitary acting on ``targets`` (in that order) into the register."""
    u = np.asarray(u, dtype=complex)
    positions = _positions(u, targets, layout)
    t = len(positions)
    n = layout.n_qubits
    if t == n and positions == list(range(n)):
        return u
    full = np.kron(u, np.eye(2 ** (n - t), dtype=complex))
    # Axis k of `full` belongs to qubit order[k]; permute into layout order.
    order = positions + [q for q in range(n) if q not in positions]
    perm = [order.index(q) for q in range(n)]
    axes = perm + [n + p for p in perm]
    return full.reshape((2,) * (2 * n)).transpose(axes).reshape(2**n, 2**n)


def kraus_map(
    data: np.ndarray,
    kraus: Sequence[np.ndarray],
    targets: Sequence[str],
    layout: SubsystemLayout,
) -> np.ndarray:
    """Sum of K rho K^dag over ``kraus``, each K acting on ``targets``.

    The operators share one shape. Works on the raw matrix and returns one;
    nothing is validated or renormalized. The target axes of the
    ``(2,)*2n`` tensor of ``data`` are moved to the front, every operator
    is contracted with them by one stacked matmul per side, and the axes
    are moved back, so no register-sized operator is ever built.
    """
    ops = np.asarray(kraus, dtype=complex)
    positions = _positions(ops[0], targets, layout)
    n, dim = layout.n_qubits, layout.dim
    t = 2 ** len(positions)
    rest = dim // t
    order = positions + [q for q in range(n) if q not in positions]
    axes = order + [n + q for q in order]
    front = np.asarray(data).reshape((2,) * (2 * n)).transpose(axes).reshape(t, -1)
    left = np.matmul(ops, front).reshape(len(ops), t * rest, t, rest)
    both = np.matmul(ops.conj()[:, None], left).sum(axis=0)
    back = [axes.index(k) for k in range(2 * n)]
    return both.reshape((2,) * (2 * n)).transpose(back).reshape(dim, dim)


def apply_unitary(
    rho: DensityMatrix,
    u: np.ndarray,
    targets: Sequence[str],
    layout: SubsystemLayout,
) -> DensityMatrix:
    """Conjugate the state by a unitary on the target qubits."""
    if rho.dim != layout.dim:
        raise ValueError(f"state dim {rho.dim} does not match layout dim {layout.dim}")
    u = np.asarray(u, dtype=complex)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise ValueError(f"operator must be square, got shape {u.shape}")
    resid = np.abs(u.conj().T @ u - np.eye(u.shape[0])).max()
    if resid > UNITARITY_ATOL:
        raise ValueError(f"operator is not unitary (residual {resid:.3e})")
    return DensityMatrix(kraus_map(rho.data, (u,), targets, layout), weight=rho.weight)


def apply_channel(
    rho: DensityMatrix,
    channel: QuantumChannel,
    targets: Sequence[str],
    layout: SubsystemLayout,
) -> DensityMatrix:
    """Apply a Kraus channel on the target qubits.

    The output is renormalized and the weight is multiplied by the
    pre-normalization trace, which is 1 for trace-preserving channels.
    Raises :class:`PostselectionError` if the state is postselected away.
    """
    if rho.dim != layout.dim:
        raise ValueError(f"state dim {rho.dim} does not match layout dim {layout.dim}")
    out = kraus_map(rho.data, channel.kraus, targets, layout)
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
    if not 1 <= n_qubits <= MAX_QUBITS:
        raise ValueError(f"n_qubits must be in [1, {MAX_QUBITS}], got {n_qubits}")
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
    """Joint photon-pair state over the canonical register.

    Pairs a 16-dimensional :class:`DensityMatrix` with its layout and adds
    the marginals the optical stages lean on.
    """

    rho: DensityMatrix
    layout: SubsystemLayout = PAIR_LAYOUT

    def __post_init__(self) -> None:
        if self.rho.dim != self.layout.dim:
            raise ValueError(
                f"state dim {self.rho.dim} does not match layout dim {self.layout.dim}"
            )

    @property
    def weight(self) -> float:
        return self.rho.weight

    def _labels_with_prefix(self, prefix: str) -> tuple[str, ...]:
        labels = tuple(l for l in self.layout.labels if l.startswith(prefix))
        if not labels:
            raise ValueError(f"layout has no {prefix!r} qubits: {self.layout.labels}")
        return labels

    def pol_marginal(self) -> DensityMatrix:
        """Reduced state of the two polarization qubits."""
        return partial_trace(self.rho, self.layout, self._labels_with_prefix("pol"))

    def et_marginal(self) -> DensityMatrix:
        """Reduced state of the two energy-time (path) qubits."""
        return partial_trace(self.rho, self.layout, self._labels_with_prefix("et"))


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
