"""State, channel, and metric algebra checked against brute-force oracles."""

import re

import numpy as np
import pytest

from fransonsim.qcore import (
    HERMITICITY_ATOL,
    PSD_EIGEN_FLOOR,
    TRACE_ATOL,
    DensityMatrix,
    PAIR_LABELS,
    PAULI_Y,
    PHI_PLUS_KET,
    PhotonPairState,
    PostselectionError,
    apply_channel,
    apply_unitary,
    concurrence,
    dumps_density_matrix,
    fidelity_to,
    loads_density_matrix,
    purity,
    _concurrences,
    _purities,
    _roots,
    _state_errors,
)

from oracle_states import maximally_mixed, random_state, trace_distance


def random_density(rng, dim):
    # Ginibre construction: always Hermitian PSD with unit trace.
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    return DensityMatrix(rho / np.trace(rho).real)


def random_unitary(rng, dim):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def brute_partial_trace(rho, n_qubits, keep):
    """Index-loop partial trace, the oracle for the einsum implementation."""
    keep = list(keep)
    traced = [q for q in range(n_qubits) if q not in keep]
    dim_keep = 2 ** len(keep)
    out = np.zeros((dim_keep, dim_keep), dtype=complex)

    def bits(idx):
        return [(idx >> (n_qubits - 1 - q)) & 1 for q in range(n_qubits)]

    def join(bit_list):
        idx = 0
        for b in bit_list:
            idx = (idx << 1) | b
        return idx

    dim = 2 ** n_qubits
    for i in range(dim):
        for j in range(dim):
            bi, bj = bits(i), bits(j)
            if any(bi[q] != bj[q] for q in traced):
                continue
            out[join([bi[q] for q in keep]), join([bj[q] for q in keep])] += rho[i, j]
    return out


def interleave(pol, et):
    """Kron of the pol (pol_A, pol_B) and et (et_A, et_B) parts, in register order."""
    grouped = np.kron(pol, et).reshape((2,) * 8)
    return grouped.transpose(0, 2, 1, 3, 4, 6, 5, 7).reshape(16, 16)


class TestDensityMatrixValidation:
    def test_rejects_non_hermitian(self):
        """A visibly non-Hermitian matrix is refused."""
        bad = np.array([[0.5, 0.5], [0.0, 0.5]], dtype=complex)
        with pytest.raises(ValueError, match="Hermitian"):
            DensityMatrix(bad)

    def test_rejects_wrong_trace(self):
        """Trace must be 1 within 1e-12."""
        with pytest.raises(ValueError, match="trace"):
            DensityMatrix(np.diag([0.6, 0.6]).astype(complex))

    def test_rejects_negative_eigenvalue(self):
        """Eigenvalues below -1e-10 are unphysical."""
        bad = np.array([[1.1, 0.0], [0.0, -0.1]], dtype=complex)
        with pytest.raises(ValueError, match="negative"):
            DensityMatrix(bad)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_entries(self, bad):
        """NaN or infinite entries are refused before any other check."""
        off = np.eye(2, dtype=complex) / 2
        off[0, 1] = off[1, 0] = bad
        for matrix in (off, np.full((2, 2), bad, dtype=complex)):
            with pytest.raises(ValueError, match="non-finite"):
                DensityMatrix(matrix)

    def test_rejects_bad_weight(self):
        """Postselection weight lives in [0, 1]."""
        rho = np.eye(2, dtype=complex) / 2
        with pytest.raises(ValueError, match="weight"):
            DensityMatrix(rho, weight=1.5)
        with pytest.raises(ValueError, match="weight"):
            DensityMatrix(rho, weight=-0.2)

    def test_rejects_non_power_of_two(self):
        """Dimension must be a power of two between 2 and 16, the pair register."""
        with pytest.raises(ValueError, match="dimension"):
            DensityMatrix(np.eye(3, dtype=complex) / 3)
        with pytest.raises(ValueError, match="dimension"):
            DensityMatrix(np.eye(32, dtype=complex) / 32)

    def test_data_is_frozen(self):
        """The stored array cannot be mutated in place."""
        rho = maximally_mixed(1)
        with pytest.raises(ValueError):
            rho.data[0, 0] = 2.0

    def test_pure_normalizes_and_rejects_zero(self):
        """pure() normalizes its ket and refuses the zero vector."""
        rho = DensityMatrix.pure(np.array([1.0, 1.0]))
        np.testing.assert_allclose(rho.data, np.full((2, 2), 0.5), atol=1e-15)
        with pytest.raises(ValueError, match="zero"):
            DensityMatrix.pure(np.zeros(2))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_pure_refuses_a_non_finite_ket(self, bad):
        """pure() refuses a ket with a NaN or infinite entry by name, before normalizing it."""
        with pytest.raises(ValueError, match="ket has non-finite entries"):
            DensityMatrix.pure(np.array([bad, 0.0, 0.0, 1.0]))

    def test_pure_normalizes_a_ket_whose_squares_overflow(self):
        """pure() scales a ket by its largest entry first: [1e308, 1e308] gives |+><+|."""
        rho = DensityMatrix.pure(np.array([1e308, 1e308]))
        np.testing.assert_allclose(rho.data, np.full((2, 2), 0.5), rtol=0.0, atol=1e-15)

    def test_pure_and_maximally_mixed(self):
        """Constructors produce the expected matrices."""
        rho = DensityMatrix.pure(PHI_PLUS_KET)
        expected = np.zeros((4, 4), dtype=complex)
        for i in (0, 3):
            for j in (0, 3):
                expected[i, j] = 0.5
        np.testing.assert_allclose(rho.data, expected, atol=1e-15)
        np.testing.assert_allclose(
            maximally_mixed(2).data, np.eye(4) / 4, atol=1e-15
        )


class TestBatchedStateCheck:
    def test_refuses_exactly_what_density_matrix_refuses(self):
        """One check of a mixed stack gives each row the refusal it gets alone."""
        good = random_state(2, "mixed", seed=3).data
        nan = good.copy()
        nan[0, 1] = nan[1, 0] = np.nan
        inf = good.copy()
        inf[2, 2] = np.inf
        skew = good.copy()
        skew[0, 1] += 1e-3
        heavy = good * 1.01
        negative = np.diag([1.1, 0.0, 0.0, -0.1]).astype(complex)
        bell = DensityMatrix.pure(PHI_PLUS_KET).data
        stack = np.stack([good, nan, skew, bell, heavy, negative, inf, good])
        errors = _state_errors(stack)
        for matrix, error in zip(stack, errors):
            try:
                DensityMatrix(matrix)
            except ValueError as exc:
                assert str(error) == str(exc)
            else:
                assert error is None
        kinds = ["non-finite", "Hermitian", "trace", "negative eigenvalue", "non-finite"]
        refused = [e for e in errors if e is not None]
        assert len(refused) == len(kinds)
        for error, kind in zip(refused, kinds):
            assert kind in str(error)
        assert [e is None for e in errors] == [True, False, False, True, False, False, False, True]

    def test_a_stack_of_good_states_passes(self):
        """Every row of a stack of valid states, of any size, passes the check."""
        stack = np.stack([random_state(4, "mixed", seed=k).data for k in range(5)])
        assert _state_errors(stack) == [None] * 5
        assert _state_errors(stack[:1]) == [None]

    @pytest.mark.parametrize("dim", [4, 16])
    def test_near_the_floor_each_verdict_is_the_eigensolvers(self, dim):
        """Rows a hair either side of the eigenvalue floor get the eigvalsh oracle's verdicts.

        Each state is checked alone, in a stack of its own kind, and mixed
        into valid states with a NaN, a non-Hermitian and an off-trace row.
        """
        rng = np.random.default_rng(dim)
        near = [near_floor_state(rng, dim, delta)
                for delta in NEAR_FLOOR_DELTAS for _ in range(40)]
        want = [state_error_oracle(m) for m in near]
        # both verdicts occur, so the check is tested on each side of the floor
        assert None in want and any(w and "negative eigenvalue" in w for w in want)
        assert [messages(_state_errors(m[None]))[0] for m in near] == want
        assert messages(_state_errors(np.stack(near))) == want
        good = [random_density(rng, dim).data for _ in range(3)]
        nan = good[0].copy()
        nan[0, 1] = nan[1, 0] = np.nan
        skew = good[1].copy()
        skew[0, 1] += 1e-9
        heavy = good[2] * (1 + 1e-9)
        for m in near[::7]:
            stack = np.stack([good[0], m, nan, good[1], skew, heavy, good[2]])
            assert messages(_state_errors(stack)) == [state_error_oracle(r) for r in stack]

    def test_a_stack_that_passes_never_reaches_the_eigensolver(self, monkeypatch):
        """Valid stacks, near-floor rows included, pass on the factorisation alone."""
        rng = np.random.default_rng(7)

        def refuse(*args, **kwargs):
            raise AssertionError("eigvalsh ran on a stack of valid states")

        stacks = []
        for dim in (4, 16):
            rows = [random_density(rng, dim).data for _ in range(5)]
            rows += [near_floor_state(rng, dim, 1e-12) for _ in range(5)]
            stacks.append(np.stack(rows))
        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        for stack in stacks:
            assert _state_errors(stack) == [None] * len(stack)
            assert _state_errors(stack[:1]) == [None]
        DensityMatrix(stacks[1][-1])


# The smallest eigenvalue of a near-floor state is PSD_EIGEN_FLOOR + delta.
NEAR_FLOOR_DELTAS = (0.0, 1e-14, -1e-14, 1e-13, -1e-13, 1e-12, -1e-12)


def near_floor_state(rng, dim, delta):
    """A Hermitian unit-trace matrix in a random basis with smallest eigenvalue -1e-10 + delta."""
    low = PSD_EIGEN_FLOOR + delta
    eigs = np.concatenate([[low], rng.dirichlet(np.ones(dim - 1)) * (1.0 - low)])
    u = random_unitary(rng, dim)
    m = (u * eigs) @ u.conj().T
    return (m + m.conj().T) / 2


def state_error_oracle(m):
    """The refusal message of one matrix, or None: the checks in order, eigvalsh for the last."""
    with np.errstate(invalid="ignore"):
        residual = float(np.abs(m - m.conj().T).max())
    trace = complex(np.trace(m))
    if not np.isfinite(m).all():
        return "matrix has non-finite entries"
    if not residual <= HERMITICITY_ATOL:
        return f"matrix is not Hermitian (residual {residual:.3e})"
    if not abs(trace - 1.0) <= TRACE_ATOL:
        return f"matrix trace is {trace:.15g}, expected 1"
    eigmin = float(np.linalg.eigvalsh(m)[0])
    if not eigmin >= PSD_EIGEN_FLOOR:
        return f"matrix has negative eigenvalue {eigmin:.3e}"
    return None


def messages(errors):
    return [None if e is None else str(e) for e in errors]


def metric_stack():
    """Two-qubit states of every rank: pure, full rank, rank 2 and products."""
    rng = np.random.default_rng(5)
    rhos = []
    for k in range(25):
        rhos.append(random_state(2, "pure", seed=k).data)
        rhos.append(random_state(2, "mixed", seed=k).data)
        g = rng.normal(size=(4, 2)) + 1j * rng.normal(size=(4, 2))
        rhos.append(DensityMatrix(g @ g.conj().T / np.linalg.norm(g) ** 2).data)
        product = np.kron(random_state(1, "mixed", seed=k).data, random_state(1, seed=k).data)
        rhos.append(DensityMatrix(product).data)
    return np.stack(rhos)


def concurrence_oracle(rho):
    """The one-matrix Wootters concurrence: singular values of A^T (sy x sy) A, rho = A A^dag."""
    yy = np.kron(PAULI_Y, PAULI_Y)
    eigvals, eigvecs = np.linalg.eigh(rho)
    roots = eigvecs * np.sqrt(np.clip(eigvals, 0.0, None))
    lams = np.linalg.svd(roots.T @ yy @ roots, compute_uv=False)
    return float(max(0.0, lams[0] - lams[1] - lams[2] - lams[3]))


class TestStackedMetrics:
    def test_kernels_match_the_one_state_forms_bitwise(self):
        """Each stacked metric equals, bit for bit, its one-state call and one-matrix form."""
        stack = metric_stack()
        con = _concurrences(_roots(stack))
        pur = _purities(stack)
        for k, rho in enumerate(stack):
            state = DensityMatrix(rho)
            assert con[k] == concurrence(state) == concurrence_oracle(rho)
            assert pur[k] == purity(state) == float((rho @ rho).trace().real)
        # the product states sit at concurrence 0, some of them at the clip itself
        assert con[3::4].max() < 1e-8
        assert np.count_nonzero(con == 0.0) > 0

    def test_concurrence_matches_closed_forms(self):
        """Pure, Werner and rank-deficient linear-inversion states give their closed forms to 1e-13.

        A pure ket (a, b, c, d) has C = 2 |ad - bc|; a Werner state
        p |Phi+><Phi+| + (1 - p) I / 4 has C = max(0, (3p - 1) / 2). Linear
        inversion of the exact counts of a pure tilted Bell state leaves a
        state of rank 1 up to eigenvalues of order 1e-16, whose concurrence
        is that of the ket, both from the state and from the factor that
        the fit carries. Square roots of those rounded eigenvalues put the
        spin-flip eigenvalue form off by up to about 1e-8 here.
        """
        from fransonsim.tomo import _linear_fits, analytic_counts, linear_inversion

        rng = np.random.default_rng(8)
        kets = rng.normal(size=(40, 4)) + 1j * rng.normal(size=(40, 4))
        kets /= np.linalg.norm(kets, axis=1)[:, None]
        got = _concurrences(_roots(kets[:, :, None] * kets.conj()[:, None, :]))
        want = 2.0 * np.abs(kets[:, 0] * kets[:, 3] - kets[:, 1] * kets[:, 2])
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-13)

        weights = np.linspace(0.0, 1.0, 21)
        bell = np.outer(PHI_PLUS_KET, PHI_PLUS_KET.conj())
        werner = weights[:, None, None] * bell + (1.0 - weights[:, None, None]) * np.eye(4) / 4
        want = np.maximum(0.0, (3.0 * weights - 1.0) / 2.0)
        np.testing.assert_allclose(_concurrences(_roots(werner)), want, rtol=0, atol=1e-13)

        for p in (0.5, 0.3, 0.1, 0.02):
            ket = np.array([np.sqrt(p), 0.0, 0.0, np.sqrt(1.0 - p)])
            data = analytic_counts(DensityMatrix.pure(ket), 260_000)
            fit = linear_inversion(data)
            assert np.linalg.eigvalsh(fit.rho.data)[:3].max() < 1e-15
            assert concurrence(fit.rho) == pytest.approx(2.0 * np.sqrt(p * (1.0 - p)), abs=1e-13)
            [got] = _concurrences(_linear_fits(data.counts[None], 260_000).roots)
            assert got == pytest.approx(2.0 * np.sqrt(p * (1.0 - p)), abs=1e-13)


class TestTensorAndPermutation:
    """The register's tensor factors: its two fixed marginals are partial traces."""

    def test_partial_trace_against_brute_force(self):
        """Both marginals agree with the index-loop partial trace."""
        rng = np.random.default_rng(11)
        for _ in range(40):
            rho = random_density(rng, 16)
            state = PhotonPairState(rho)
            np.testing.assert_allclose(
                state.pol_marginal().data,
                brute_partial_trace(rho.data, 4, [0, 2]),
                atol=1e-12,
            )
            np.testing.assert_allclose(
                state.et_marginal().data,
                brute_partial_trace(rho.data, 4, [1, 3]),
                atol=1e-12,
            )

    def test_partial_trace_keeps_weight(self):
        """Tracing out subsystems does not change the weight."""
        state = PhotonPairState(DensityMatrix(np.eye(16, dtype=complex) / 16, weight=0.25))
        assert state.pol_marginal().weight == pytest.approx(0.25, abs=1e-15)
        assert state.et_marginal().weight == pytest.approx(0.25, abs=1e-15)


class TestUnitaries:
    def test_apply_unitary_preserves_invariants(self):
        """Conjugation keeps Hermiticity, unit trace, and positivity."""
        rng = np.random.default_rng(17)
        for _ in range(100):
            rho = random_density(rng, 16)
            targets = tuple(rng.choice(PAIR_LABELS, size=rng.integers(1, 5), replace=False))
            u = random_unitary(rng, 2 ** len(targets))
            out = apply_unitary(rho, u, targets)
            assert abs(np.trace(out.data) - 1.0) < 1e-12
            np.testing.assert_allclose(out.data, out.data.conj().T, atol=1e-12)
            assert np.linalg.eigvalsh(out.data).min() > -1e-10

    def test_apply_unitary_rejects_non_unitary(self):
        """A matrix failing u u+ = 1 is refused."""
        rho = maximally_mixed(4)
        with pytest.raises(ValueError, match="unitary"):
            apply_unitary(rho, np.array([[1.0, 0.0], [0.0, 0.5]]), ("pol_A",))

    def test_targets_are_register_labels(self):
        """Targets resolve in PAIR_LABELS; unknown, repeated or mis-sized ones fail."""
        rho = maximally_mixed(4)
        with pytest.raises(ValueError, match="unknown label"):
            apply_unitary(rho, np.eye(2), ("pol_C",))
        with pytest.raises(ValueError, match="duplicate"):
            apply_unitary(rho, np.eye(4), ("et_A", "et_A"))
        with pytest.raises(ValueError, match="shape"):
            apply_unitary(rho, np.eye(4), ("et_A",))
        with pytest.raises(ValueError, match="pair register"):
            apply_unitary(maximally_mixed(2), np.eye(2), ("pol_A",))


class TestChannels:
    def test_kraus_completeness_validation(self):
        """Kraus sets with sum(K^dag K) > I are refused; postselecting sets are taken.

        The refusal names the largest eigenvalue of the sum. A set whose sum
        stays below the identity postselects: the state is renormalized and
        the weight multiplied by the kept probability.
        """
        rho = maximally_mixed(4)
        with pytest.raises(ValueError, match=r"sum\(K\^H K\) > I \(largest eigenvalue 1\.25\)"):
            apply_channel(rho, (np.diag([1.0, 0.5]), np.diag([0.0, 1.0])), ("pol_A",))
        with pytest.raises(ValueError, match="largest eigenvalue 1.0000000001"):
            apply_channel(rho, (np.sqrt(1.0 + 1e-10) * np.eye(2),), ("et_B",))
        # the identity plus rounding is a complete set, not a refused one
        apply_channel(rho, (np.sqrt(1.0 + 1e-13) * np.eye(2),), ("et_B",))
        half = maximally_mixed(4, weight=0.5)
        out = apply_channel(half, (np.diag([1.0, 0.5]),), ("pol_A",))
        assert out.weight == pytest.approx(0.5 * 0.625, abs=1e-15)
        assert np.trace(out.data).real == pytest.approx(1.0, abs=1e-12)
        assert out.data[0, 0].real == pytest.approx(0.1, abs=1e-15)

    def test_random_channels_preserve_invariants(self):
        """1000 random channel applications keep valid density matrices."""
        rng = np.random.default_rng(23)
        for _ in range(1000):
            rho = random_density(rng, 16)
            # random 2-outcome TP channel on one qubit via a 4x2 isometry
            g = rng.normal(size=(4, 2)) + 1j * rng.normal(size=(4, 2))
            q, _ = np.linalg.qr(g)
            out = apply_channel(rho, (q[:2, :], q[2:, :]), (PAIR_LABELS[rng.integers(4)],))
            assert abs(np.trace(out.data) - 1.0) < 1e-12
            np.testing.assert_allclose(out.data, out.data.conj().T, atol=1e-12)
            assert np.linalg.eigvalsh(out.data).min() > -1e-10
            assert out.weight == pytest.approx(1.0, abs=1e-9)

    def test_postselection_weights_multiply(self):
        """Chained lossy channels multiply their survival probabilities."""
        rho = maximally_mixed(4)
        keep_h = (np.diag([1.0, 0.0]),)
        damp = (np.diag([np.sqrt(0.5), np.sqrt(0.5)]),)
        once = apply_channel(rho, keep_h, ("pol_B",))
        assert once.weight == pytest.approx(0.5, abs=1e-12)
        twice = apply_channel(once, damp, ("et_A",))
        assert twice.weight == pytest.approx(0.25, abs=1e-12)

    def test_empty_postselection_raises(self):
        """Selecting a branch with no support raises PostselectionError."""
        ket = np.zeros(16)
        ket[0b0010] = 1.0  # pol_B = V
        rho = DensityMatrix.pure(ket)
        keep_h = (np.diag([1.0, 0.0]),)
        with pytest.raises(PostselectionError):
            apply_channel(rho, keep_h, ("pol_B",))


class TestMetrics:
    def test_concurrence_x_state_closed_form(self):
        """Eigenvalue concurrence matches the X-state closed form."""
        rng = np.random.default_rng(29)
        for _ in range(300):
            a, b, c, d = rng.dirichlet(np.ones(4))
            w = rng.uniform(0, 1) * np.sqrt(a * d) * np.exp(2j * np.pi * rng.uniform())
            z = rng.uniform(0, 1) * np.sqrt(b * c) * np.exp(2j * np.pi * rng.uniform())
            mat = np.array(
                [
                    [a, 0, 0, w],
                    [0, b, z, 0],
                    [0, np.conj(z), c, 0],
                    [np.conj(w), 0, 0, d],
                ]
            )
            want = 2.0 * max(
                0.0, abs(w) - np.sqrt(b * c), abs(z) - np.sqrt(a * d)
            )
            assert concurrence(DensityMatrix(mat)) == pytest.approx(want, abs=1e-10)

    def test_concurrence_werner_closed_form(self):
        """Werner states have concurrence max(0, (3p - 1) / 2)."""
        bell = np.outer(PHI_PLUS_KET, PHI_PLUS_KET)
        for p in (0.0, 0.2, 1.0 / 3.0, 0.5, 0.8, 1.0):
            rho = DensityMatrix(p * bell + (1 - p) * np.eye(4) / 4)
            want = max(0.0, (3 * p - 1) / 2)
            assert concurrence(rho) == pytest.approx(want, abs=1e-10)

    def test_concurrence_product_states_vanish(self):
        """Product pure states carry no entanglement."""
        rng = np.random.default_rng(31)
        for _ in range(100):
            ka = rng.normal(size=2) + 1j * rng.normal(size=2)
            kb = rng.normal(size=2) + 1j * rng.normal(size=2)
            ket = np.kron(ka / np.linalg.norm(ka), kb / np.linalg.norm(kb))
            assert concurrence(DensityMatrix.pure(ket)) == pytest.approx(0.0, abs=1e-8)

    def test_concurrence_local_unitary_invariance(self):
        """Local rotations of each photon cannot change its polarization entanglement."""
        rng = np.random.default_rng(37)
        for _ in range(100):
            pol = random_density(rng, 4)
            et = random_density(rng, 4)
            state = PhotonPairState(DensityMatrix(interleave(pol.data, et.data)))
            base = concurrence(state.pol_marginal())
            rho = state.rho
            for label in PAIR_LABELS:
                rho = apply_unitary(rho, random_unitary(rng, 2), (label,))
            rotated = PhotonPairState(rho).pol_marginal()
            assert concurrence(rotated) == pytest.approx(base, abs=1e-9)

    def test_fidelity_pure_state_overlap(self):
        """fidelity_to on a pure state is the squared overlap."""
        rng = np.random.default_rng(41)
        for _ in range(100):
            ka = rng.normal(size=4) + 1j * rng.normal(size=4)
            kb = rng.normal(size=4) + 1j * rng.normal(size=4)
            ka /= np.linalg.norm(ka)
            kb /= np.linalg.norm(kb)
            got = fidelity_to(DensityMatrix.pure(ka), kb)
            assert got == pytest.approx(abs(np.vdot(kb, ka)) ** 2, abs=1e-12)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_fidelity_refuses_a_non_finite_ket(self, bad):
        """fidelity_to refuses a target ket with a NaN or infinite entry by name."""
        with pytest.raises(ValueError, match="target ket has non-finite entries"):
            fidelity_to(DensityMatrix.pure(PHI_PLUS_KET), np.array([bad, 0.0, 0.0, 1.0]))

    def test_fidelity_names_the_norm_of_a_ket_whose_squares_overflow(self):
        """fidelity_to refuses a ket of norm 1.41e308 by its norm, not with an overflow warning."""
        with pytest.raises(ValueError, match=r"not normalized \(norm 1\.414213562373\d*e\+308\)"):
            fidelity_to(DensityMatrix.pure(PHI_PLUS_KET), np.array([1e308, 0.0, 0.0, 1e308]))

    def test_purity_range(self):
        """Purity is 1 on pure states and 1/d on the maximally mixed state."""
        assert purity(DensityMatrix.pure(PHI_PLUS_KET)) == pytest.approx(1.0, abs=1e-12)
        assert purity(maximally_mixed(2)) == pytest.approx(0.25, abs=1e-12)

    def test_trace_distance_axioms(self):
        """Trace distance is symmetric, bounded, zero only at equality."""
        rng = np.random.default_rng(43)
        for _ in range(50):
            a = random_density(rng, 4)
            b = random_density(rng, 4)
            d_ab = trace_distance(a, b)
            assert 0.0 <= d_ab <= 1.0 + 1e-12
            assert d_ab == pytest.approx(trace_distance(b, a), abs=1e-12)
            assert trace_distance(a, a) == pytest.approx(0.0, abs=1e-12)

    def test_trace_distance_orthogonal_states(self):
        """Perfectly distinguishable states are at distance 1."""
        zero = DensityMatrix.pure(np.array([1.0, 0.0]))
        one = DensityMatrix.pure(np.array([0.0, 1.0]))
        assert trace_distance(zero, one) == pytest.approx(1.0, abs=1e-12)


class TestRandomStates:
    def test_pure_states_have_unit_purity(self):
        """kind='pure' yields rank-1 states."""
        for seed in range(20):
            rho = random_state(2, kind="pure", seed=seed)
            assert purity(rho) == pytest.approx(1.0, abs=1e-10)

    def test_mixed_states_are_valid(self):
        """kind='mixed' yields full-rank valid states."""
        for seed in range(20):
            rho = random_state(2, kind="mixed", seed=seed)
            assert abs(np.trace(rho.data) - 1.0) < 1e-12
            assert np.linalg.eigvalsh(rho.data).min() > -1e-10

    def test_seed_determinism(self):
        """Same seed, same state; different seed, different state."""
        a = random_state(2, kind="mixed", seed=9)
        b = random_state(2, kind="mixed", seed=9)
        c = random_state(2, kind="mixed", seed=10)
        np.testing.assert_array_equal(a.data, b.data)
        assert trace_distance(a, c) > 1e-3


class TestPairState:
    def test_marginals_split_polarization_and_arm(self):
        """pol and et marginals pick out the right qubit pairs."""
        rng = np.random.default_rng(47)
        pol = random_density(rng, 4)
        et = random_density(rng, 4)
        state = PhotonPairState(DensityMatrix(interleave(pol.data, et.data)))
        np.testing.assert_allclose(state.pol_marginal().data, pol.data, atol=1e-12)
        np.testing.assert_allclose(state.et_marginal().data, et.data, atol=1e-12)

    def test_layout_labels(self):
        """The pair register interleaves arms A and B."""
        assert PAIR_LABELS == ("pol_A", "et_A", "pol_B", "et_B")

    def test_rejects_other_dimensions(self):
        """A pair state covers exactly the 16-dimensional register."""
        with pytest.raises(ValueError, match="pair register"):
            PhotonPairState(maximally_mixed(3))


class TestDumpFormat:
    def test_round_trip_is_exact(self):
        """17 significant digits round-trip float64 exactly."""
        rng = np.random.default_rng(53)
        for _ in range(20):
            rho = random_density(rng, 4)
            again = loads_density_matrix(dumps_density_matrix(rho))
            np.testing.assert_array_equal(again.data, rho.data)

    def test_rejects_malformed_header(self):
        """The dim header is mandatory."""
        with pytest.raises(ValueError, match="dim"):
            loads_density_matrix("2\n1 0\n0 1\n")

    def test_a_malformed_field_is_refused_by_line_and_column(self):
        """An entry or a dimension that does not parse names its line and column.

        Lines count every line of the text, blank ones too, from 1.
        """
        dump = dumps_density_matrix(maximally_mixed(1))
        lines = dump.splitlines()
        entry = "\n".join([lines[0], "", lines[1], lines[2].split()[0] + " abc"])
        want = "density-matrix dump line 4, column 2: expected a complex number, got 'abc'"
        with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
            loads_density_matrix(entry)
        header = "\n".join(["dim x", *lines[1:]])
        want = "density-matrix dump line 1, column 2: expected an integer, got 'x'"
        with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
            loads_density_matrix(header)

    @pytest.mark.parametrize("token", ["nan+0j", "inf+0j", "-inf+0j"])
    def test_rejects_non_finite_entries(self, token):
        """A dump whose off-diagonal entries are NaN or infinite is refused."""
        text = f"dim 2\n0.5+0j {token}\n{token} 0.5+0j\n"
        with pytest.raises(ValueError, match="non-finite"):
            loads_density_matrix(text)
