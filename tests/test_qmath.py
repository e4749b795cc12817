"""Linear-algebra core: products, reductions, spectra, entropies."""

import math

import numpy as np
import pytest

from qdcascade import entanglement, qmath

I2 = np.eye(2, dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
BELL = np.array([1, 0, 0, 1], dtype=complex) / math.sqrt(2)


def random_density(rng, dim):
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = z @ z.conj().T
    return rho / np.trace(rho).real


def random_state(rng, dim):
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def random_qubit_unitary(rng):
    z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


# --------------------------------------------------------------------------
# kron
# --------------------------------------------------------------------------

def test_kron_identities():
    np.testing.assert_array_equal(qmath.kron(I2, I2), np.eye(4))


def test_kron_basis_projectors():
    a = np.diag([1.0, 0.0]).astype(complex)
    b = np.diag([0.0, 1.0]).astype(complex)
    np.testing.assert_array_equal(qmath.kron(a, b), np.diag([0.0, 1.0, 0.0, 0.0]))


def test_kron_xx_flips_both_qubits():
    # hand expansion of the 4x4 product
    expected = np.array(
        [
            [0, 0, 0, 1],
            [0, 0, 1, 0],
            [0, 1, 0, 0],
            [1, 0, 0, 0],
        ],
        dtype=complex,
    )
    xx = qmath.kron(PAULI_X, PAULI_X)
    np.testing.assert_array_equal(xx, expected)
    ket00 = np.array([1, 0, 0, 0], dtype=complex)
    ket11 = np.array([0, 0, 0, 1], dtype=complex)
    np.testing.assert_array_equal(xx @ ket00, ket11)


# --------------------------------------------------------------------------
# partial trace
# --------------------------------------------------------------------------

def brute_partial_trace(rho, dims, keep):
    """Independent oracle: explicit mixed-radix index sums."""
    keep = sorted(keep)
    traced = [i for i in range(len(dims)) if i not in keep]

    def encode(indices, subsystems):
        code = 0
        for s in subsystems:
            code = code * dims[s] + indices[s]
        return code

    kept_dim = math.prod(dims[i] for i in keep) if keep else 1
    out = np.zeros((kept_dim, kept_dim), dtype=complex)
    all_dims = list(dims)

    def iterate(subsystems):
        if not subsystems:
            yield {}
            return
        first, rest = subsystems[0], subsystems[1:]
        for value in range(all_dims[first]):
            for tail in iterate(rest):
                yield {first: value, **tail}

    for row_kept in iterate(keep):
        for col_kept in iterate(keep):
            acc = 0.0 + 0.0j
            for t in iterate(traced):
                row = encode({**row_kept, **t}, range(len(dims)))
                col = encode({**col_kept, **t}, range(len(dims)))
                acc += rho[row, col]
            out[encode(row_kept, keep), encode(col_kept, keep)] = acc
    return out


def test_partial_trace_everything_traced():
    rho = np.outer(BELL, BELL.conj())
    np.testing.assert_allclose(qmath.partial_trace(rho, (2, 2), ()), [[1.0]], atol=1e-14)


def test_partial_trace_bell_marginal_is_maximally_mixed():
    rho = np.outer(BELL, BELL.conj())
    np.testing.assert_allclose(qmath.partial_trace(rho, (2, 2), (0,)), I2 / 2, atol=1e-14)


def test_partial_trace_four_mode_first_qubit():
    # alpha^2 = 1/2 branch weights: marginal of the first mode is diag(1/2, 1/2)
    v = np.zeros(16, dtype=complex)
    v[0b0000] = math.sqrt(0.5)
    v[0b1001] = math.sqrt(math.sqrt(2.0) - 1.0)
    v[0b1111] = math.sqrt(1.5 - math.sqrt(2.0))
    rho = np.outer(v, v.conj())
    reduced = qmath.partial_trace(rho, (2, 2, 2, 2), (0,))
    np.testing.assert_allclose(reduced, np.diag([0.5, 0.5]), atol=1e-12)
    np.testing.assert_allclose(reduced, brute_partial_trace(rho, (2, 2, 2, 2), (0,)), atol=1e-14)


@pytest.mark.parametrize(
    "dims,keep",
    [
        ((2, 2, 2, 2), (0,)),
        ((2, 2, 2, 2), (1, 3)),
        ((2, 2, 2, 2), (0, 1, 2)),
        ((3, 2, 2), (0,)),
        ((3, 2, 2), (1, 2)),
    ],
)
def test_partial_trace_matches_bruteforce(dims, keep):
    rng = np.random.default_rng(11)
    for _ in range(3):
        rho = random_density(rng, math.prod(dims))
        got = qmath.partial_trace(rho, dims, keep)
        want = brute_partial_trace(rho, dims, keep)
        np.testing.assert_allclose(got, want, atol=1e-13)


def test_partial_trace_preserves_trace_and_positivity():
    rng = np.random.default_rng(5)
    for _ in range(5):
        rho = random_density(rng, 16)
        reduced = qmath.partial_trace(rho, (2, 2, 2, 2), (0, 2))
        assert abs(np.trace(reduced).real - 1.0) < 1e-12
        assert qmath.eig_hermitian(reduced)[0] > -1e-12


def test_partial_trace_rejects_bad_inputs():
    rho = np.eye(4, dtype=complex) / 4
    with pytest.raises(ValueError):
        qmath.partial_trace(rho, (2, 2), (2,))
    with pytest.raises(ValueError):
        qmath.partial_trace(rho, (2, 3), (0,))


# --------------------------------------------------------------------------
# partial transpose
# --------------------------------------------------------------------------

def test_partial_transpose_product_state_stays_positive():
    rng = np.random.default_rng(3)
    rho_a = random_density(rng, 2)
    rho_b = random_density(rng, 2)
    product = qmath.kron(rho_a, rho_b)
    transposed = qmath.partial_transpose(product, (2, 2), (1,))
    np.testing.assert_allclose(transposed, qmath.kron(rho_a, rho_b.T), atol=1e-14)
    assert qmath.eig_hermitian(transposed)[0] > -1e-12


def test_partial_transpose_bell_negative_eigenvalue():
    rho = np.outer(BELL, BELL.conj())
    transposed = qmath.partial_transpose(rho, (2, 2), (1,))
    evals = qmath.eig_hermitian(transposed)
    np.testing.assert_allclose(evals, [-0.5, 0.5, 0.5, 0.5], atol=1e-13)


def test_partial_transpose_diagonal_unchanged():
    rho = np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)
    np.testing.assert_array_equal(qmath.partial_transpose(rho, (2, 2), (0,)), rho)


def test_partial_transpose_involution_is_exact():
    rng = np.random.default_rng(17)
    rho = random_density(rng, 16)
    for subset in [(0,), (1, 2), (0, 3)]:
        twice = qmath.partial_transpose(
            qmath.partial_transpose(rho, (2, 2, 2, 2), subset), (2, 2, 2, 2), subset
        )
        assert np.array_equal(twice, rho)


# --------------------------------------------------------------------------
# eigensolver
# --------------------------------------------------------------------------

def test_eig_diagonal():
    np.testing.assert_allclose(
        qmath.eig_hermitian(np.diag([0.7, 0.3]).astype(complex)), [0.3, 0.7], atol=1e-14
    )


def test_eig_pauli_x():
    np.testing.assert_allclose(qmath.eig_hermitian(PAULI_X), [-1.0, 1.0], atol=1e-13)


def bisection_eigenvalues(h, n_grid=6000, tol=1e-12):
    """Independent oracle: sign changes of the characteristic polynomial
    det(h - x I) evaluated by LU, bisected to convergence. Assumes simple
    eigenvalues (true almost surely for the seeded random matrix)."""
    n = h.shape[0]
    radius = float(np.max(np.sum(np.abs(h), axis=1)))  # Gershgorin bound

    def charpoly(x):
        return float(np.linalg.det(h - x * np.eye(n)).real)

    xs = np.linspace(-radius - 1.0, radius + 1.0, n_grid)
    values = [charpoly(x) for x in xs]
    roots = []
    for i in range(n_grid - 1):
        if values[i] == 0.0:
            roots.append(float(xs[i]))
            continue
        if values[i] * values[i + 1] < 0.0:
            lo, hi = float(xs[i]), float(xs[i + 1])
            flo = values[i]
            while hi - lo > tol:
                mid = (lo + hi) / 2.0
                fmid = charpoly(mid)
                if flo * fmid <= 0.0:
                    hi = mid
                else:
                    lo, flo = mid, fmid
            roots.append((lo + hi) / 2.0)
    return np.array(sorted(roots))


def test_eig_random_8x8_matches_bisection_oracle():
    rng = np.random.default_rng(2024)
    z = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    h = (z + z.conj().T) / 2
    expected = bisection_eigenvalues(h)
    assert expected.shape == (8,)
    np.testing.assert_allclose(qmath.eig_hermitian(h), expected, atol=1e-8)


def test_eig_spectrum_sums_to_trace():
    rng = np.random.default_rng(23)
    for dim in (3, 8, 16):
        z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        h = (z + z.conj().T) / 2
        assert abs(np.sum(qmath.eig_hermitian(h)) - np.trace(h).real) < 1e-10


def test_eig_invariant_under_product_unitary_conjugation():
    rng = np.random.default_rng(31)
    rho = random_density(rng, 16)
    u = qmath.kron(
        qmath.kron(random_qubit_unitary(rng), random_qubit_unitary(rng)),
        qmath.kron(random_qubit_unitary(rng), random_qubit_unitary(rng)),
    )
    before = qmath.eig_hermitian(rho)
    after = qmath.eig_hermitian(u @ rho @ u.conj().T)
    np.testing.assert_allclose(before, after, atol=1e-8)


def test_eig_rejects_non_hermitian():
    with pytest.raises(ValueError):
        qmath.eig_hermitian(np.array([[0, 1], [0, 0]], dtype=complex))


# --------------------------------------------------------------------------
# entropies and trace norm
# --------------------------------------------------------------------------

def test_vn_entropy_pure_states_zero():
    rng = np.random.default_rng(41)
    for dim in (2, 4, 16):
        v = random_state(rng, dim)
        assert qmath.vn_entropy(np.outer(v, v.conj())) < 1e-10


def test_vn_entropy_maximally_mixed_qubit():
    assert abs(qmath.vn_entropy(I2 / 2) - 1.0) < 1e-14


def test_vn_entropy_three_outcome_diagonal():
    # direct -sum(p log2 p) over the stated branch probabilities
    probs = (0.5, 0.414214, 0.085786)
    direct = -sum(p * math.log2(p) for p in probs)
    rho = np.diag(probs).astype(complex)
    assert abs(qmath.vn_entropy(rho) - direct) < 1e-12
    assert abs(direct - 1.3306441232450557) < 1e-12


def test_vn_entropy_rejects_bad_spectrum():
    rho = np.diag([1.0 + 5e-8, -5e-8]).astype(complex)
    with pytest.raises(ValueError):
        qmath.vn_entropy(rho)


def test_vn_entropy_invariant_under_conjugation():
    rng = np.random.default_rng(43)
    rho = random_density(rng, 16)
    u = qmath.kron(
        qmath.kron(random_qubit_unitary(rng), random_qubit_unitary(rng)),
        qmath.kron(random_qubit_unitary(rng), random_qubit_unitary(rng)),
    )
    assert abs(qmath.vn_entropy(rho) - qmath.vn_entropy(u @ rho @ u.conj().T)) < 1e-8


def test_schmidt_symmetry_for_pure_states():
    rng = np.random.default_rng(47)
    for keep in [(0,), (1,), (0, 1), (0, 2), (3,)]:
        v = random_state(rng, 16)
        rho = np.outer(v, v.conj())
        complement = tuple(i for i in range(4) if i not in keep)
        s1 = qmath.vn_entropy(qmath.partial_trace(rho, (2, 2, 2, 2), keep))
        s2 = qmath.vn_entropy(qmath.partial_trace(rho, (2, 2, 2, 2), complement))
        assert abs(s1 - s2) < 1e-10
    v = random_state(rng, 12)
    rho = np.outer(v, v.conj())
    s1 = qmath.vn_entropy(qmath.partial_trace(rho, (3, 2, 2), (0,)))
    s2 = qmath.vn_entropy(qmath.partial_trace(rho, (3, 2, 2), (1, 2)))
    assert abs(s1 - s2) < 1e-10


def test_trace_norm_of_density_is_one():
    rng = np.random.default_rng(53)
    assert abs(qmath.trace_norm(random_density(rng, 8)) - 1.0) < 1e-12


def test_trace_norm_mixed_signs():
    assert abs(qmath.trace_norm(np.diag([0.5, -0.5]).astype(complex)) - 1.0) < 1e-14


def test_trace_norm_of_bell_partial_transpose():
    rho = np.outer(BELL, BELL.conj())
    transposed = qmath.partial_transpose(rho, (2, 2), (1,))
    assert abs(qmath.trace_norm(transposed) - 2.0) < 1e-13
    assert abs((qmath.trace_norm(transposed) - 1.0) / 2.0 - 0.5) < 1e-13


def test_trace_norm_rejects_non_hermitian():
    with pytest.raises(ValueError):
        qmath.trace_norm(np.array([[0, 2], [0, 0]], dtype=complex))


@pytest.mark.parametrize(
    "measure,dim",
    [
        (qmath.vn_entropy, 2),
        (qmath.eig_hermitian, 2),
        (qmath.trace_norm, 2),
        (lambda m: entanglement.mutual_information(m, entanglement.channel_by_id(1)), 16),
    ],
    ids=["vn_entropy", "eig_hermitian", "trace_norm", "mutual_information"],
)
def test_guards_reject_nan_matrix(measure, dim):
    with pytest.raises(ValueError):
        measure(np.full((dim, dim), np.nan))


def test_entropy_helpers():
    assert qmath.binary_entropy(0.0) == 0.0
    assert qmath.binary_entropy(0.5) == 1.0
    assert abs(qmath.shannon_entropy((0.25, 0.25, 0.25, 0.25)) - 2.0) < 1e-14
    with pytest.raises(ValueError):
        qmath.shannon_entropy((1.5,))
    with pytest.raises(ValueError):
        qmath.shannon_entropy((math.nan,))
