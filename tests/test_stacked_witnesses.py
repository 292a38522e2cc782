"""Stacked grid witnesses against the map-by-map path they replace.

``asymptotics.cone_witnesses`` evaluates a whole grid of maps with one Choi
permutation, one partial transpose and one batched eigensolve per cone.  These
tests pin it to a numpy-only reference built from the Choi definition, to the
single-map ``cone_witness`` and, on shipped families, to the per-map loops
that the arrival scan and the limit-cycle tail used to run.
"""

import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ebdyn import asymptotics, cli, evolve, matcore, superop

REPO = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
WITNESS_CONES = ("CP", "coCP", "PPT", "EB")


def reference_witness(s, d, cone):
    """Witness of the map with matrix ``s`` from the Choi definition, numpy only.

    Block (i, j) of the Choi matrix is phi(E_ij), whose column-stacked form
    is column i + d*j of ``s``; the partial transpose transposes every block.
    """
    blocks = [[s[:, i + d * j].reshape(d, d, order="F") for j in range(d)] for i in range(d)]
    choi = np.block(blocks)
    pt = np.block([[b.T for b in row] for row in blocks])
    min_c = np.linalg.eigvalsh(choi)[0]
    min_pt = np.linalg.eigvalsh(pt)[0]
    return {"CP": min_c, "coCP": min_pt, "PPT": min(min_c, min_pt), "EB": min(min_c, min_pt)}[cone]


def hermiticity_preserving_stack(seed, d, n, log_scale, rank):
    """n map matrices whose Choi matrices are Hermitian (numpy only).

    ``rank`` 0 gives indefinite Choi matrices; otherwise positive ones of
    that rank, so boundary maps with zero eigenvalues occur too.
    """
    rng = np.random.default_rng(seed)
    d2 = d * d
    out = np.empty((n, d2, d2), dtype=complex)
    for k in range(n):
        if rank:
            g = rng.standard_normal((d2, rank)) + 1j * rng.standard_normal((d2, rank))
            choi = g @ g.conj().T
        else:
            g = rng.standard_normal((d2, d2)) + 1j * rng.standard_normal((d2, d2))
            choi = g + g.conj().T
        choi *= 10.0 ** log_scale
        # column i + d*j of S is the column-stacked block (i, j) of the Choi matrix
        for i in range(d):
            for j in range(d):
                out[k, :, i + d * j] = choi[i * d:(i + 1) * d, j * d:(j + 1) * d].ravel(order="F")
    return out


stacks = st.builds(
    lambda seed, d, n, log_scale, rank: (hermiticity_preserving_stack(seed, d, n, log_scale, rank), d),
    seed=st.integers(0, 2**32 - 1),
    d=st.sampled_from((2, 3, 4)),
    n=st.integers(1, 6),
    log_scale=st.floats(-3.0, 3.0),
    rank=st.integers(0, 3),
)


class TestBatchedAgainstScalar:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(stack_d=stacks, cone=st.sampled_from(WITNESS_CONES))
    def test_stack_equals_numpy_reference_and_single_maps(self, stack_d, cone):
        stack, d = stack_d
        ws = asymptotics.cone_witnesses(stack, d, cone)
        assert ws.shape == (len(stack),)
        np.testing.assert_array_equal(ws, [reference_witness(s, d, cone) for s in stack])
        for s, w in zip(stack, ws):
            single = asymptotics.cone_witness(superop.Superoperator(s, d), cone)
            assert isinstance(single, float)
            assert single == w

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(stack_d=stacks)
    def test_stacked_helpers_act_matrix_by_matrix(self, stack_d):
        stack, d = stack_d
        choi = superop._choi_shuffle(stack, d)
        pt = matcore.partial_transpose_second(choi, d, d)
        for k in range(len(stack)):
            np.testing.assert_array_equal(choi[k], superop._choi_shuffle(stack[k], d))
            np.testing.assert_array_equal(pt[k], matcore.partial_transpose_second(choi[k], d, d))
        np.testing.assert_array_equal(superop._choi_shuffle(choi, d), stack)
        np.testing.assert_array_equal(matcore.partial_transpose_second(pt, d, d), choi)

    def test_positivity_witness_runs_map_by_map(self):
        stack = hermiticity_preserving_stack(3, 2, 3, 0.0, 0)
        ws = asymptotics.cone_witnesses(stack, 2, "P")
        for s, w in zip(stack, ws):
            assert asymptotics.cone_witness(superop.Superoperator(s, 2), "P") == w

    def test_unknown_cone(self):
        with pytest.raises(ValueError):
            asymptotics.cone_witnesses(np.eye(4)[None], 2, "EBB")


def haar_unitary(rng, d):
    """Haar-distributed unitary from the QR factorization of a Ginibre matrix."""
    q, r = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


class TestLocalUnitaryInvariance:
    """Witnesses ignore unitary conjugations on the input and the output.

    The Floquet shortcut of ``scan_divisibility`` scans the core semigroup
    instead of P_t o e^{(t-s)X} o P_s^-1 on this ground, and one phase of a
    limit cycle stands for all of them.
    """

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), d=st.sampled_from((2, 3)),
           rank=st.integers(0, 3), cone=st.sampled_from(WITNESS_CONES))
    def test_conjugated_maps_keep_their_witness(self, seed, d, rank, cone):
        stack = hermiticity_preserving_stack(seed, d, 4, 0.0, rank)
        rng = np.random.default_rng(seed)
        u, w = haar_unitary(rng, d), haar_unitary(rng, d)
        # X -> u Phi(w^dag X w) u^dag in column-stacking form
        conjugated = np.kron(u.conj(), u) @ stack @ np.kron(w.T, w.conj().T)
        before = asymptotics.cone_witnesses(stack, d, cone)
        after = asymptotics.cone_witnesses(conjugated, d, cone)
        np.testing.assert_array_less(np.abs(after - before), 1e-12 * (1.0 + np.abs(before)))


def shipped_family(name):
    family, analysis = cli.load_config(os.path.join(REPO, "configs", f"{name}.ini"))
    return family, analysis["tmax"]


class TestFastPathOnShippedFamilies:
    @pytest.mark.parametrize("cone", WITNESS_CONES)
    @pytest.mark.parametrize("name", ["depolarizing_qutrit", "eternal", "floquet_rotating"])
    def test_arrival_grid_equals_per_map_witnesses(self, name, cone):
        family, t_max = shipped_family(name)
        handle = evolve.EvolutionHandle(family)
        search = asymptotics.Search(t_max=t_max, grid_n=300)
        result = asymptotics.arrival_time(handle, cone, search=search)
        # a Floquet family is scanned through its core, whose maps differ from
        # the family's by unitary conjugations (and by rounding)
        scanned = evolve.EvolutionHandle(family.params.get("core", family))
        slow = [asymptotics.cone_witness(phi, cone) for phi in scanned.solve_many(result.grid_times)]
        np.testing.assert_array_equal(result.grid_witness, slow)

    @pytest.mark.parametrize("cone", ["CP", "PPT", "EB"])
    def test_floquet_tail_equals_per_phase_loop(self, cone):
        family, t_max = shipped_family("floquet_rotating")
        handle = evolve.EvolutionHandle(family)
        search = asymptotics.Search(t_max=t_max)
        limit = asymptotics.asymptotic_map(family, handle=handle, horizon=search.t_max)
        assert isinstance(limit, asymptotics.PeriodicMap)
        for s in (0.0, 0.35, 1.2, 2.9, 6.5):
            w, cert = asymptotics._tail(handle, cone, s, search.t_max)
            lam_s_inv = np.linalg.inv(handle.solve(s).matrix)
            slow = min(
                asymptotics.cone_witness(
                    superop.Superoperator(phi.matrix @ lam_s_inv, family.d), cone)
                for phi in limit.sample()
            )
            assert cert == "asymptotic_interior"
            assert abs(w - slow) <= 1e-13
