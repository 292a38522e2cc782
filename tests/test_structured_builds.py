"""Families built from their structure, against the dense construction they
replace, bit for bit.

``detailed_balance`` builds its dissipators as stacked broadcasts and
``diagonally_covariant`` adds its transfer terms only on the entries they
touch; ``pure_decoherence`` takes the support and layers of its matrix units
without scanning a dense block.  The references below are those dense
constructions, kept here as they were: every generator matrix, component
layout and summed map must equal them byte for byte, signed zeros included.
"""

import math

import numpy as np
import pytest

from ebdyn import evolve, families, matcore, superop

from helpers import ginibre


def dense_dissipator(v):
    v = matcore.as_matrix(v, square=True)
    eye = np.eye(v.shape[0], dtype=complex)
    vv = v.conj().T @ v
    return matcore.kron(v.conj(), v) - 0.5 * (matcore.kron(eye, vv) + matcore.kron(vv.T, eye))


def dense_detailed_balance_generator(h, jumps, beta):
    gen = families._hamiltonian_part(h)
    for v, w in jumps:
        v = matcore.as_matrix(v, square=True)
        gen = gen + dense_dissipator(v) + math.exp(-beta * float(w)) * dense_dissipator(
            v.conj().T)
    return gen


def dense_unit_dissipators(d, pairs):
    i, j = (np.array(col, dtype=int)[:, None] for col in zip(*pairs))
    k, a = np.arange(len(pairs))[:, None], np.arange(d)[None, :]
    m = np.zeros((len(pairs), d * d, d * d), dtype=complex)
    m[k, i * (d + 1), j * (d + 1)] = 1.0
    m[k, a * d + j, a * d + j] -= 0.5
    m[k, j * d + a, j * d + a] -= 0.5
    return m


def dense_diagonally_covariant_generator(h, a, b, t):
    d = len(h)
    m = families.pure_decoherence(h, a).generator_matrix(t).copy()
    bt = matcore.as_matrix(b(t) if callable(b) else b, square=True)
    pairs = [(i, j) for i in range(d) for j in range(d) if i != j]
    for (i, j), dmat in zip(pairs, dense_unit_dissipators(d, pairs)):
        m += bt[i, j].real * dmat
    return m


def dense_units(d):
    comps = np.zeros((d * d,) * 3, dtype=complex)
    comps[(np.arange(d * d),) * 3] = 1.0
    return superop.SpectralComponents(comps)


def with_signed_zeros(rng, m):
    """``m`` with a few entries set to -0.0 (and as many to +0.0)."""
    m = np.array(m, dtype=complex)
    flat = m.reshape(-1)
    for value in (-0.0, 0.0):
        flat[rng.integers(0, flat.size, max(1, flat.size // 8))] = value
    return m


def covariant_jumps(rng, energies, n):
    """Jumps V = sum c_ij E_ij over the level pairs with e_j - e_i = w, w >= 0."""
    d = len(energies)
    gaps = sorted({energies[j] - energies[i] for i in range(d) for j in range(d)
                   if energies[j] >= energies[i]})
    jumps = []
    for _ in range(n):
        w = gaps[rng.integers(len(gaps))]
        v = np.zeros((d, d), dtype=complex)
        for i in range(d):
            for j in range(d):
                if energies[j] - energies[i] == w and rng.uniform() < 0.8:
                    v[i, j] = complex(*rng.normal(size=2))
        if rng.uniform() < 0.5:
            v = with_signed_zeros(rng, v) * (v != 0)  # keep the structure, flip zero signs
        jumps.append((v, w))
    return jumps


def same_bits(x, y):
    return x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


@pytest.mark.parametrize("d", range(2, 9))
def test_detailed_balance_generator_is_the_dense_sum(d):
    rng = np.random.default_rng(300 + d)
    for draw in range(4):
        # small integer spectra give degenerate levels and repeated gaps
        energies = np.sort(rng.integers(0, 4, d)).astype(float) * 0.5
        jumps = covariant_jumps(rng, energies, rng.integers(1, 2 * d))
        beta = rng.uniform(0.0, 1.5)
        fam = families.detailed_balance(np.diag(energies), jumps, beta)
        want = dense_detailed_balance_generator(np.diag(energies), jumps, beta)
        assert same_bits(fam.generator_matrix(0.0), want)
    # the ladders of the shipped and generated configs
    energies = np.cumsum(rng.uniform(0.3, 1.5, d))
    ladder = [(matcore.matrix_unit(d, k, k + 1) * rng.uniform(0.4, 1.2),
               energies[k + 1] - energies[k]) for k in range(d - 1)]
    fam = families.detailed_balance(np.diag(energies), ladder, 0.7)
    assert same_bits(fam.generator_matrix(0.0),
                     dense_detailed_balance_generator(np.diag(energies), ladder, 0.7))


@pytest.mark.parametrize("d", range(2, 9))
def test_diagonally_covariant_generator_is_the_dense_sum(d):
    rng = np.random.default_rng(400 + d)
    for draw in range(3):
        g = ginibre(rng, d)
        a = with_signed_zeros(rng, 0.3 * g @ g.conj().T)
        a = (a + a.conj().T) / 2 + 2.0 * d * np.eye(d)  # Hermitian, PSD
        b = rng.uniform(0.0, 0.6, (d, d)) * (rng.uniform(size=(d, d)) < 0.6)
        b[rng.uniform(size=(d, d)) < 0.15] = -0.0
        b[rng.uniform(size=(d, d)) < 0.1] = -1e-13  # tolerated rounding below zero
        np.fill_diagonal(b, rng.normal(size=d))  # the diagonal is not a rate
        h = list(np.sort(rng.uniform(0.0, 2.0, d)))
        fam = families.diagonally_covariant(h, a, b.astype(complex))
        for t in (0.0, 0.4, 3.7):
            want = dense_diagonally_covariant_generator(h, a, b, t)
            assert same_bits(fam.generator_matrix(t), want)



def test_diagonally_covariant_generator_keeps_negative_zeros():
    """Degenerate levels, a rate matrix with -0.0 imaginary parts and rates
    of -0.0 leave -0.0 on the diagonal of the dense sum at d = 2 (every term
    touches each coherence there); the structured build keeps it."""
    h = [0.5, 0.5]
    a = np.array([[1.0, complex(0.3, -0.0)], [complex(0.3, 0.0), 1.0]])
    for rate in (-0.0, 0.0, -1e-13):
        b = np.full((2, 2), rate)
        want = dense_diagonally_covariant_generator(h, a, b, 0.0)
        got = families.diagonally_covariant(h, a, b).generator_matrix(0.0)
        assert same_bits(got, want)
        negative_zero = (want.imag == 0.0) & np.signbit(want.imag)
        assert negative_zero.any() == np.signbit(rate)


@pytest.mark.parametrize("d", (2, 3, 5))
def test_time_dependent_diagonally_covariant_generator_is_the_dense_sum(d):
    rng = np.random.default_rng(500 + d)
    g = ginibre(rng, d)
    a0 = g @ g.conj().T / d
    b0 = rng.uniform(0.0, 0.6, (d, d))
    np.fill_diagonal(b0, 0.0)

    def a(t):
        return (1.0 + 0.5 * math.sin(t)) * a0

    def b(t):
        return b0 * (1.0 + 0.3 * math.cos(2.0 * t))

    h = [lambda t, k=k: 0.2 * k * (1.0 + t) for k in range(d)]
    fam = families.diagonally_covariant(h, a, b)
    assert not fam.constant
    for t in (0.0, 0.31, 1.7, 4.2):
        assert same_bits(fam.generator_matrix(t), dense_diagonally_covariant_generator(h, a, b, t))


def test_unit_components_match_the_scanned_block():
    for d in range(2, 9):
        got, want = families.pure_decoherence(a=np.eye(d)).closed_form.components, dense_units(d)
        assert len(got) == len(want) == d * d
        assert same_bits(np.array(got), np.array(want))
        assert not any(q.flags.writeable for q in got)
        assert same_bits(got.support, want.support)
        assert len(got.layers) == len(want.layers) == 1
        for (k_got, q_got), (k_want, q_want) in zip(got.layers, want.layers):
            assert same_bits(k_got, k_want) and same_bits(q_got, q_want)


@pytest.mark.parametrize("d", range(2, 9))
def test_pure_decoherence_sums_equal_the_scanned_block(d):
    rng = np.random.default_rng(600 + d)
    g = ginibre(rng, d)
    a = g @ g.conj().T / d
    h = list(rng.uniform(0.0, 2.0, d))
    ts = np.concatenate([[0.0], rng.uniform(0.0, 6.0, 12), [2.5, 2.5]])
    for fam in (families.pure_decoherence(h, a),
                families.pure_decoherence(h, a, cutoff=2.5),
                families.pure_decoherence([lambda t: 0.3 * t] * d, lambda t: (1 + t) * a)):
        cf = fam.closed_form
        rows = cf.coefficients(ts)
        want = superop.spectral_sum(rows, dense_units(d), d)
        assert same_bits(superop.spectral_sum(rows, cf.components, d), want)
        for t in ts[:3]:
            assert same_bits(cf.map_at(t).matrix, superop.spectral_sum(
                cf.coefficients(float(t)), dense_units(d), d).matrix)
        grid = evolve.EvolutionHandle(fam)._solve_grid([float(t) for t in ts[1:]])
        assert same_bits(grid, want[1:])
