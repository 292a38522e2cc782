"""The spectral record of a constant generator (``GeneratorFamily.spectrum``)
and the limits read from it.

One diagonalization per family serves its evolution, its search horizon, its
limit and the spectral predictor, and for a Floquet product with this core
also the closed form and the limit cycle.  A semigroup's limit is the exact
projector onto the kernel of its generator: X -> tr(X) omega when the kernel
is spanned by a state, V[:, K] V^-1[K, :] for a larger kernel, and no limit
when a nonzero eigenvalue does not decay.
"""

import contextlib
import io
import os

import numpy as np
import pytest
import scipy.linalg

from ebdyn import asymptotics, classify, cli, evolve, families, superop
from ebdyn.errors import NoLimitError

from helpers import (
    count_eig, generator_kernel, random_gkls_family, random_hermitian, random_unitary,
)

CONFIG_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "configs")


@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("seed", range(12))
def test_random_semigroups_have_the_kernel_projector_as_their_tail(d, seed):
    """The limit is X -> tr(X) omega, omega from a plain eig of the generator;
    it is e^{tL} at a long t, and the tail of the propagators from s = 0
    and s = 1 is inside every cone by omega's smallest eigenvalue, within
    the rounding of Lambda_1^-1 (the numeric limit this replaces missed
    Hermiticity preservation here)."""
    fam = random_gkls_family(np.random.default_rng(seed), d)
    handle = evolve.EvolutionHandle(fam)
    t_max = asymptotics.default_search(handle).t_max
    limit = asymptotics.asymptotic_map(fam, handle=handle, horizon=t_max)
    dim, omega = generator_kernel(fam)
    assert dim == 1
    np.testing.assert_allclose(limit.matrix, classify.projector_onto_state(omega).matrix,
                               rtol=0, atol=1e-14)
    long = scipy.linalg.expm(2.0 * t_max * fam.generator_matrix(0.0))
    np.testing.assert_allclose(limit.matrix, long, rtol=0, atol=1e-13)
    floor = float(np.linalg.eigvalsh(omega)[0])
    for s in (0.0, 1.0):
        for cone in ("CP", "PPT"):
            w, kind = asymptotics._tail(handle, cone, s, t_max)
            assert kind == "asymptotic_interior"
            assert w == pytest.approx(floor, abs=1e-14 if s == 0.0 else 1e-9)


def test_hamiltonian_only_generator_has_no_limit():
    """-i[H, .] has the oscillating eigenvalues -i(h_i - h_j): no limit, and
    the predictor is undetermined with the d-dimensional kernel."""
    d = 3
    fam = families.gkls(random_hermitian(np.random.default_rng(3), d), [])
    with pytest.raises(NoLimitError):
        asymptotics.asymptotic_map(fam)
    verdict = asymptotics.predict_eventually_eb(fam)
    assert (verdict.classification, verdict.kernel_dim) == ("undetermined", d)


@pytest.mark.parametrize("d", [2, 3])
def test_a_dephasing_kernel_gets_its_idempotent_projector(d):
    """Dephasing in the eigenbasis of a Hamiltonian: the kernel is spanned by
    the d eigenprojectors P_i, and the limit is the pinching X -> sum P_i X P_i,
    an idempotent map that preserves Hermiticity (a dense pattern, so the
    real route for d = 3)."""
    rng = np.random.default_rng(11 + d)
    u = random_unitary(rng, d)
    levels = np.arange(d, dtype=float)
    h = (u * rng.uniform(-1.0, 1.0, d)) @ u.conj().T
    fam = families.gkls(h, [((u * levels) @ u.conj().T, 0.7)])
    assert len(fam.spectrum.kernel()[0]) == d
    q0 = asymptotics.asymptotic_map(fam).matrix
    projectors = [np.outer(u[:, i], u[:, i].conj()) for i in range(d)]
    pinching = sum(np.kron(p.conj(), p) for p in projectors)
    np.testing.assert_allclose(q0, pinching, rtol=0, atol=1e-13)
    np.testing.assert_allclose(q0 @ q0, q0, rtol=0, atol=1e-13)
    assert superop.is_hermiticity_preserving(superop.Superoperator(q0, d))
    np.testing.assert_allclose(q0, scipy.linalg.expm(80.0 * fam.generator_matrix(0.0)),
                               rtol=0, atol=1e-12)


def test_a_refused_eigenbasis_keeps_the_numeric_limit(monkeypatch):
    """A Jordan block (phase_covariant with g+ = -g-) fails the eigenbasis
    gate, so its limit is looked for numerically; a random GKLS generator
    never goes there.  ||Lambda_t|| grows linearly (20.1 at t = 10, 40.0 at
    t = 20), so there is no limit, and the map check says so before any
    eigenbasis of Lambda_t is asked for."""
    calls = []
    numeric = asymptotics._numeric_limit
    monkeypatch.setattr(asymptotics, "_numeric_limit",
                        lambda *args: calls.append(args[0].kind) or numeric(*args))
    asymptotics.asymptotic_map(random_gkls_family(np.random.default_rng(0), 3))
    jordan = families.phase_covariant(0.5, 1.0, -1.0, 0.0)
    assert jordan.closed_form is None and jordan.spectrum.inverse is None
    norms = [np.linalg.norm(evolve.solve(jordan, t).matrix) for t in (10.0, 20.0, 40.0)]
    np.testing.assert_allclose(norms, [20.1, 40.0, 80.0], rtol=0, atol=0.05)
    monkeypatch.setattr(superop, "map_spectrum", lambda phi: pytest.fail("eigenbasis asked for"))
    with pytest.raises(NoLimitError, match="has not settled"):
        asymptotics.asymptotic_map(jordan, horizon=10.0)
    assert calls == ["phase_covariant"]


# (eig, eigvals) calls of each command of each shipped config; ppt2 reads no
# search horizon, so it makes no eigvals call.  Before the record, each
# floquet_rotating command also diagonalized the core's generator for its
# closed form and for its limit cycle (classify and ppt2 made 2 eig calls,
# arrival and divisibility 3), and a gkls_damped_qubit divisibility scan made
# 3 for the two spectra of its numeric limit.
EIG_CALLS = {
    "depolarizing_qutrit": (0, 0),
    "detailed_balance_ladder": (1, 0),
    "diagonally_covariant": (1, 0),
    "eternal": (0, 0),
    "floquet_rotating": (1, 0),
    "gkls_damped_qubit": (1, 0),
    "pauli_isotropic": (0, 1),
    "phase_covariant": (0, 1),
    "pure_decoherence_cutoff": (0, 1),
}


def run_quietly(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv + ["--out", os.devnull])


@pytest.mark.parametrize("command", ["classify", "ppt2", "arrival", "divisibility"])
@pytest.mark.parametrize("name", sorted(EIG_CALLS))
def test_each_shipped_command_diagonalizes_each_generator_once(monkeypatch, name, command):
    calls = count_eig(monkeypatch)
    assert run_quietly([command, "--config", os.path.join(CONFIG_DIR, f"{name}.ini")]) == 0
    eig, eigvals = EIG_CALLS[name]
    assert (calls["eig"], calls["eigvals"]) == (eig, 0 if command == "ppt2" else eigvals)


def test_reproduce_diagonalizes_each_generator_once(monkeypatch):
    """Five eig calls; the Floquet check made a sixth before its closed form
    and its limit cycle shared the core's record."""
    calls = count_eig(monkeypatch)
    assert run_quietly(["reproduce"]) == 0
    assert calls == {"eig": 5, "eigvals": 5}
