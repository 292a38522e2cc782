"""Shared random-instance generators for the test suite.

Everything takes an explicit ``numpy.random.Generator`` so each test pins
its own seed; there is no module-level randomness.
"""

import os

import numpy as np

from ebdyn import asymptotics, cli, families, matcore, superop


def ginibre(rng, rows, cols=None):
    if cols is None:
        cols = rows
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def random_hermitian(rng, d, scale=1.0):
    g = ginibre(rng, d)
    return scale * (g + g.conj().T) / 2


def random_density(rng, d):
    """Full-rank density matrix (Hilbert-Schmidt measure)."""
    g = ginibre(rng, d)
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_unitary(rng, d):
    """Haar-distributed unitary via QR with phase correction."""
    q, r = np.linalg.qr(ginibre(rng, d))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_kraus(rng, d, n_kraus=None):
    """Kraus operators of a random CPTP map (Stinespring blocks)."""
    if n_kraus is None:
        n_kraus = d
    q, _ = np.linalg.qr(ginibre(rng, n_kraus * d, d))
    return [q[k * d : (k + 1) * d, :] for k in range(n_kraus)]


def random_cptp(rng, d, n_kraus=None):
    ks = random_kraus(rng, d, n_kraus)
    return superop.from_action(d, lambda x: sum(k @ x @ k.conj().T for k in ks))


def random_eb_map(rng, d, n_outcomes=None):
    """Measure-and-prepare channel: entanglement breaking by construction."""
    if n_outcomes is None:
        n_outcomes = d * d
    gs = []
    for _ in range(n_outcomes):
        g = ginibre(rng, d)
        gs.append(g @ g.conj().T)
    s = sum(gs)
    vals, vecs = np.linalg.eigh(s)
    s_inv_half = vecs @ np.diag(vals ** -0.5) @ vecs.conj().T
    povm = [s_inv_half @ g @ s_inv_half for g in gs]
    prep = [random_density(rng, d) for _ in range(n_outcomes)]
    return superop.from_action(
        d,
        lambda x: sum(np.trace(m @ x) * sig for m, sig in zip(povm, prep)),
    )


def random_hp_map(rng, d, shift=0.0):
    """Hermiticity-preserving map from a random Hermitian Choi matrix.

    ``shift`` moves the Choi spectrum up, letting callers sweep from
    indefinite (entangled-ish) to comfortably positive instances.
    """
    c = random_hermitian(rng, d * d) + shift * np.eye(d * d)
    return superop.from_choi(superop.ChoiMatrix(c, d))


def random_gkls_family(rng, d, n_jumps=2, with_hamiltonian=True):
    """Random GKLS semigroup; dense jumps make the kernel generically simple."""
    h = random_hermitian(rng, d) if with_hamiltonian else np.zeros((d, d))
    jumps = [(ginibre(rng, d) / np.sqrt(d), rng.uniform(0.5, 1.5)) for _ in range(n_jumps)]
    return families.gkls(h, jumps)


def generator_kernel(family, tol=1e-9):
    """Kernel dimension and hermitized kernel state of a constant generator.

    Independent of the package's own spectral analysis: plain ``eig`` on the
    generator matrix, used by tests to verify eligibility assumptions.
    """
    gen = family.generator_matrix(0.0)
    vals, vecs = np.linalg.eig(gen)
    idx = [i for i, v in enumerate(vals) if abs(v) < tol]
    if len(idx) != 1:
        return len(idx), None
    x = matcore.unvec(vecs[:, idx[0]], family.d)
    x = (x + x.conj().T) / 2
    tr = np.trace(x).real
    if abs(tr) < 1e-12:
        return 1, None
    return 1, x / tr


def choi_min_eig(phi):
    return matcore.min_herm_eig(superop.to_choi(phi).matrix)


def choi_pt_min_eig(phi):
    return matcore.min_herm_eig(superop.to_choi(phi).partial_transpose().matrix)


def shipped_family(name):
    """The family of the shipped config ``configs/<name>.ini``."""
    config = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                          "configs", f"{name}.ini")
    return cli.load_config(config)[0]


class RoundRecorder:
    """Records the stack size of every round of every bisection
    (``asymptotics._bisect_crossing``), one list per crossing."""

    def __init__(self, monkeypatch):
        self.crossings = []
        bisect = asymptotics._bisect_crossing

        def recorded(witnesses, *args):
            sizes = []
            self.crossings.append(sizes)

            def counted(points):
                sizes.append(len(points))
                return witnesses(points)

            return bisect(counted, *args)

        monkeypatch.setattr(asymptotics, "_bisect_crossing", recorded)

    def sizes(self):
        return [n for sizes in self.crossings for n in sizes]


def oscillating_pauli():
    """Pauli channel with time-dependent rates, integrated by quadrature."""
    return families.pauli_channel((
        lambda t: 0.4 + 0.3 * np.sin(1.3 * t),
        lambda t: 0.7 + 0.2 * np.cos(0.6 * t),
        0.25,
    ))


def inversion_atol(lam_s):
    """Tolerance for V = Lambda_t o Lambda_s^-1 computed by a linear solve, whose
    error grows as cond(Lambda_s) * eps."""
    return 10.0 * np.finfo(float).eps * max(1.0, float(np.linalg.cond(lam_s)))


def _ini_number(z):
    z = complex(z)
    if z.imag == 0.0:
        return repr(z.real)
    return f"{z.real!r}{'+' if z.imag >= 0.0 else '-'}{abs(z.imag)!r}j"


def _ini_matrix(m):
    return "; ".join(" ".join(_ini_number(x) for x in row) for row in np.asarray(m))


CONFIG_KINDS = ("gkls", "depolarizing", "detailed_balance", "diagonally_covariant",
                "pure_decoherence")


def random_config_text(rng, kind, d, points=25):
    """INI text of a random valid family of one of ``CONFIG_KINDS`` at dimension d."""
    lines = ["[family]", f"kind = {kind}"]
    if kind == "gkls":
        lines.append(f"hamiltonian = {_ini_matrix(random_hermitian(rng, d, 0.5))}")
        lines += [f"lindblad{k} = {_ini_matrix(ginibre(rng, d) / d)}" for k in (1, 2)]
    elif kind == "depolarizing":
        lines += [f"gamma = {rng.uniform(0.5, 2.0)!r}",
                  f"omega = {_ini_matrix(random_density(rng, d))}"]
    elif kind == "detailed_balance":
        # a ladder: E_{k,k+1} lowers level k + 1 by the gap w_k
        energies = np.cumsum(rng.uniform(0.3, 1.5, d)) - 0.3
        lines += [f"hamiltonian = {_ini_matrix(np.diag(energies))}",
                  f"beta = {rng.uniform(0.3, 1.2)!r}"]
        for k in range(d - 1):
            v = np.zeros((d, d), dtype=complex)
            v[k, k + 1] = rng.uniform(0.4, 1.2)
            lines += [f"jump{k + 1} = {_ini_matrix(v)}",
                      f"freq{k + 1} = {float(energies[k + 1] - energies[k])!r}"]
    elif kind in ("diagonally_covariant", "pure_decoherence"):
        g = ginibre(rng, d)
        lines += [f"h = {' '.join(repr(float(x)) for x in np.sort(rng.uniform(0.0, 2.0, d)))}",
                  f"a = {_ini_matrix(0.8 * g @ g.conj().T / d)}"]
        if kind == "diagonally_covariant":
            b = rng.uniform(0.0, 0.6, (d, d)) * (rng.uniform(size=(d, d)) < 0.7)
            np.fill_diagonal(b, 0.0)
            lines.append(f"b = {_ini_matrix(b)}")
    else:
        raise ValueError(kind)
    return "\n".join(lines + ["[analysis]", f"points = {points}"]) + "\n"
