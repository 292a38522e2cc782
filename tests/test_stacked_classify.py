"""The stacked classifier against the map-by-map path it replaces.

``classify.classify_stack`` places a whole stack of maps in the
CP / coCP / PPT / EB hierarchy with one Choi permutation, one partial
transpose, two batched eigensolves and one batched ball certificate.  The
reference here is the per-map loop the package ran before, written out with
numpy: every floor, flag, status and certificate field must agree bitwise.
The same holds for the ``classify`` rows of the CLI, for
``ppt_composition_experiment`` and for the constant generators that
``families`` now builds once.
"""

import contextlib
import json
import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ebdyn import asymptotics, classify, cli, evolve, families, matcore, superop
from ebdyn.errors import EbdynError, NoConvergenceError, NotHermitianError

from helpers import (
    ginibre,
    random_cptp,
    random_density,
    random_eb_map,
    random_hermitian,
    random_hp_map,
    shipped_family,
)
from test_spectral_rows import explicit_families

REPO = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
SHIPPED_CONFIGS = sorted(
    name[:-4] for name in os.listdir(os.path.join(REPO, "configs")) if name.endswith(".ini"))
PSD_TOL = 1e-9


# ---------------------------------------------------------------------------
# the per-map reference loop


def components(mask):
    """Connected components of the graph with an edge i - j wherever
    ``mask[i, j]`` or ``mask[j, i]``, each sorted."""
    adj = mask | mask.T
    seen, comps = set(), []
    for i in range(len(mask)):
        if i in seen:
            continue
        todo, comp = [i], []
        seen.add(i)
        while todo:
            k = todo.pop()
            comp.append(k)
            for j in np.flatnonzero(adj[k]).tolist():
                if j not in seen:
                    seen.add(j)
                    todo.append(j)
        comps.append(sorted(comp))
    return comps


def partial_transpose(m, d):
    return m.reshape(d, d, d, d).transpose(0, 3, 2, 1).reshape(d * d, d * d)


def dense_floors(choi, d):
    pt = partial_transpose(choi, d)
    return float(np.linalg.eigvalsh(choi)[0]), float(np.linalg.eigvalsh(pt)[0])


def block_floor(m, mask):
    """Smallest eigenvalue of the Hermitian matrix m from the blocks of the
    components of ``mask``: a 1 x 1 block is its entry, a 2 x 2 block
    [[p, .], [z, q]] has min(p, q) - |z|^2 / (h + hypot(h, |z|)) with
    h = |p - q| / 2, and a larger block (the whole matrix when the pattern
    is connected) its own eigensolve."""
    modulus = np.abs(m)  # numpy's array abs, which can differ from scalar abs in the last bit
    mins = []
    for comp in components(mask):
        if len(comp) == 1:
            mins.append(m[comp[0], comp[0]].real)
        elif len(comp) == 2:
            i, j = comp
            p, q, z = m[i, i].real, m[j, j].real, modulus[j, i]
            h = abs(p - q) / 2.0
            mins.append(min(p, q) - (z / (h + np.hypot(h, z)) * z if z > 0 else 0.0))
        else:
            mins.append(np.linalg.eigvalsh(m[np.ix_(comp, comp)])[0])
    return float(min(mins))


def is_routed(choi, d):
    """Whether the classifier takes a block layout for this Choi matrix: it
    is finite, and the exact-zero pattern of it or of its partial transpose
    is not connected."""
    return bool(np.isfinite(choi).all()) and any(
        len(components(m != 0)) > 1 for m in (choi, partial_transpose(choi, d)))


def reference_floors(s, d):
    """Choi matrix of one map matrix and its two eigenvalue floors, from the
    blocks of its own exact-zero pattern and that of its partial transpose;
    a non-finite map is one block."""
    choi = s.reshape(d, d, d, d).transpose(3, 1, 2, 0).reshape(d * d, d * d)
    if not np.isfinite(choi).all():
        return (choi,) + dense_floors(choi, d)
    pt = partial_transpose(choi, d)
    return choi, block_floor(choi, choi != 0), block_floor(pt, pt != 0)


def block_sizes(choi, d):
    """The block sizes above 2 of a Choi matrix and of its partial transpose,
    each a set: what takes an eigensolve."""
    if not np.isfinite(choi).all():
        return {d * d}, {d * d}
    return tuple({len(c) for c in components(m != 0) if len(c) > 2}
                 for m in (choi, partial_transpose(choi, d)))


def reference_certificate(choi, min_c, min_pt, d, tol):
    """(certified, path, boundary, distance, radius, branch) of one map."""
    ppt_floor = min(min_c, min_pt)
    if d == 2 and ppt_floor > tol:
        return True, "strict_ppt_qubit", False, None, None, "strict_ppt_qubit"
    omega = choi.reshape(d, d, d, d).trace(axis1=0, axis2=2) / d
    omega = (omega + omega.conj().T) / 2.0
    tr = float(np.trace(omega).real)
    certified, distance, radius, branch = False, None, None, "small_trace"
    if tr > 0.5:
        omega = omega / tr
        lam = float(np.linalg.eigvalsh(omega)[0])
        branch = "omega_not_positive"
        if lam > tol:
            target = np.kron(np.eye(d, dtype=complex), omega)
            distance = float(np.linalg.norm(choi - target, "fro"))
            radius = lam / 2.0
            certified = distance <= radius
            branch = "ball_certified" if certified else "outside_ball"
    boundary = (not certified) and -tol <= ppt_floor <= tol
    if boundary:
        branch += "+boundary"
    path = "state_projector_ball" if certified else None
    return certified, path, boundary, distance, radius, branch


def reference_classify(s, d, tol=PSD_TOL):
    """Classification fields of one map, the old ``classify_map`` order."""
    choi, min_c, min_pt = reference_floors(s, d)
    is_cp, is_cocp = min_c >= -tol, min_pt >= -tol
    is_ppt = is_cp and is_cocp
    if d == 2:
        status = classify.EB_CERTIFIED if is_ppt else classify.EB_REFUTED
    elif not is_ppt:
        status = classify.EB_REFUTED
    else:
        cert = reference_certificate(choi, min_c, min_pt, d, tol)
        status = classify.EB_CERTIFIED if cert[0] else classify.EB_UNKNOWN
    return (is_cp, is_cocp, is_ppt, status, min_c, min_pt)


def report_fields(report):
    return (report.is_cp, report.is_cocp, report.is_ppt, report.eb_status,
            report.min_eig_choi, report.min_eig_choi_pt)


def cert_fields(cert):
    return (cert.certified, cert.path, cert.boundary, cert.distance, cert.radius)


# ---------------------------------------------------------------------------
# stacks that reach every branch


def from_choi_matrix(c, d):
    return superop.from_choi(superop.ChoiMatrix(c, d)).matrix


def branch_stack(seed, d):
    """Map matrices covering non-PPT maps, strict PPT at d = 2, tr(omega) <= 0.5,
    lambda_min(omega) <= tol, boundary maps and both outcomes of the ball."""
    rng = np.random.default_rng(seed)
    mixed = classify.projector_onto_state(np.eye(d) / d).matrix
    pure = np.zeros((d, d))
    pure[0, 0] = 1.0
    edge = [1.0 - (d - 1) * PSD_TOL] + [PSD_TOL] * (d - 1)
    maps = [
        random_hp_map(rng, d).matrix,                                     # indefinite
        superop.transpose_map(d).matrix,                                  # coCP, not CP
        classify.projector_onto_state(random_density(rng, d)).matrix,     # strict interior
        from_choi_matrix(0.01 * np.eye(d * d), d),                        # tr(omega) <= 0.5
        classify.projector_onto_state(pure).matrix,                       # singular omega, boundary
        classify.projector_onto_state(np.diag(edge)).matrix,              # floors exactly tol
        0.97 * mixed + 0.03 * random_cptp(rng, d).matrix,                 # inside the ball
        0.5 * mixed + 0.5 * superop.identity(d).matrix,                   # outside the ball
        random_eb_map(rng, d).matrix,
        random_hp_map(rng, d, shift=4.0).matrix,
        random_cptp(rng, d).matrix,
    ]
    order = rng.permutation(len(maps))
    return np.array([maps[k] for k in order])


@pytest.mark.parametrize("tol", [None, 1e-6])
@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_stack_matches_per_map_loop_bitwise(d, tol):
    branches = set()
    for seed in range(6):
        stack = branch_stack(seed, d)
        used_tol = PSD_TOL if tol is None else tol
        reports = classify.classify_stack(stack, d, tol=tol)
        certs = classify.interior_certificates(*classify.choi_floors(stack, d), d, tol=tol)
        assert len(reports) == len(certs) == len(stack)
        for s, report, cert in zip(stack, reports, certs):
            assert report_fields(report) == reference_classify(s, d, used_tol)
            assert report.tolerance_used == used_tol and report.d == d
            ref = reference_certificate(*reference_floors(s, d), d, used_tol)
            assert cert_fields(cert) == ref[:5]
            # a stack of one is the stack's entry
            one = superop.Superoperator(s, d)
            assert report_fields(classify.classify_map(one, tol=tol)) == report_fields(report)
            assert cert_fields(classify.interior_certificate(one, tol=tol)) == ref[:5]
            branches.add(ref[5] if report.is_ppt or d == 2 else "not_ppt")
    want = {"not_ppt", "small_trace", "omega_not_positive+boundary", "ball_certified",
            "outside_ball"}
    if d == 2:
        want = {"strict_ppt_qubit", "small_trace", "omega_not_positive+boundary",
                "outside_ball"}
    assert want <= branches


def test_ball_runs_over_the_ppt_maps_only():
    stack = branch_stack(3, 3)
    reports = classify.classify_stack(stack, 3)
    choi, min_c, min_pt = classify.choi_floors(stack, 3)
    ppt = np.array([r.is_ppt for r in reports])
    certs = classify.interior_certificates(choi, min_c, min_pt, 3, which=ppt)
    assert [c is None for c in certs] == list(~ppt)
    for r, c in zip(reports, certs):
        if c is not None:
            assert (r.eb_status == classify.EB_CERTIFIED) == c.certified


def test_witness_pair_and_floors_are_stacks_of_one():
    rng = np.random.default_rng(5)
    for d in (2, 3, 4):
        phi = random_hp_map(rng, d, shift=0.3)
        _, min_c, min_pt = reference_floors(phi.matrix, d)
        assert asymptotics.witness_pair(phi) == (min_c, min_pt)
        choi, c, p = classify.choi_floors(phi.matrix[None], d)
        assert (float(c[0]), float(p[0])) == (min_c, min_pt)
        assert classify.choi_floors(phi.matrix[None], d, cocp=False)[2] is None


def test_cone_witnesses_keep_their_eigensolve_count(monkeypatch):
    calls = []
    real = matcore.min_herm_eig

    def counting(m, tol=None):
        calls.append(np.shape(m))
        return real(m, tol)

    monkeypatch.setattr(matcore, "min_herm_eig", counting)
    rng = np.random.default_rng(1)
    # generic maps: one dense solve per floor
    stack = np.array([random_cptp(rng, 3).matrix for _ in range(4)]
                     + [random_hp_map(rng, 3, shift=0.5).matrix for _ in range(3)])
    for cone, n in (("CP", 1), ("coCP", 1), ("PPT", 2), ("EB", 2)):
        calls.clear()
        asymptotics.cone_witnesses(stack, 3, cone)
        assert calls == [(len(stack), 9, 9)] * n, cone
    # a covariant stack: one batched block solve for the CP floor, none for coCP
    stack = covariant_stack(np.random.default_rng(1), 4)
    for cone, n in (("CP", 1), ("coCP", 0), ("PPT", 1), ("EB", 1)):
        calls.clear()
        asymptotics.cone_witnesses(stack, 4, cone)
        assert calls == [(len(stack), 4, 4)] * n, cone
    # maps of many patterns: one batched solve per block size and floor
    stack = branch_stack(1, 3)
    sizes = [block_sizes(c, 3) for c in superop._choi_shuffle(stack, 3)]
    for cone, sides in (("CP", (0,)), ("coCP", (1,)), ("PPT", (0, 1))):
        calls.clear()
        asymptotics.cone_witnesses(stack, 3, cone)
        want = [k for side in sides for k in sorted(set().union(*(s[side] for s in sizes)))]
        assert [shape[-1] for shape in calls] == want, cone
        assert len(want) >= len(sides)


def test_empty_stack():
    assert classify.classify_stack(np.zeros((0, 9, 9)), 3) == []
    for d in (4, 6):
        assert classify.classify_stack(np.zeros((0, d * d, d * d)), d) == []
        choi, min_c, min_pt = classify.choi_floors(np.zeros((0, d * d, d * d)), d)
        assert choi.shape == (0, d * d, d * d) and min_c.shape == min_pt.shape == (0,)
    assert asymptotics.ppt_composition_experiment(superop.identity(2), 0).ks == ()


def test_non_hermitian_stack_raises_the_per_map_error():
    rng = np.random.default_rng(11)
    d = 3
    good = [random_cptp(rng, d).matrix for _ in range(3)]
    bad_small = good[0] + 1e-6 * ginibre(rng, d * d)
    bad_large = good[1] + ginibre(rng, d * d)
    for stack in ([good[0], good[1], bad_small, good[2], bad_large],
                  [good[2], bad_large, bad_small]):
        stack = np.array(stack)
        with pytest.raises(NotHermitianError) as per_map:
            for s in stack:  # the old loop: Choi matrix, then its partial transpose
                choi = superop.to_choi(superop.Superoperator(s, d))
                matcore.min_herm_eig(choi.matrix)
                matcore.min_herm_eig(choi.partial_transpose().matrix)
        with pytest.raises(NotHermitianError) as stacked:
            classify.classify_stack(stack, d)
        assert str(stacked.value) == str(per_map.value)


@pytest.mark.parametrize("d", [2, 3])
def test_dense_floors_judge_hermiticity_once_per_stack(d):
    """cp only, cocp only and both raise the error of the same first bad map:
    the partial transpose deviates from Hermiticity exactly as its Choi matrix."""
    rng = np.random.default_rng(12 + d)
    good = [random_cptp(rng, d).matrix for _ in range(3)]
    bad_small = good[0] + 1e-6 * ginibre(rng, d * d)
    bad_large = good[1] + ginibre(rng, d * d)
    for stack, first in (([good[0], bad_small, good[2], bad_large], bad_small),
                         ([good[2], bad_large, bad_small], bad_large)):
        choi_first = superop._choi_shuffle(first, d)
        with pytest.raises(NotHermitianError) as alone:
            matcore.min_herm_eig(choi_first)
        with pytest.raises(NotHermitianError) as pt_alone:
            matcore.min_herm_eig(matcore.partial_transpose_second(choi_first, d, d))
        assert str(pt_alone.value) == str(alone.value)
        for cp, cocp in ((True, False), (False, True), (True, True)):
            with pytest.raises(NotHermitianError) as stacked:
                classify.choi_floors(np.array(stack), d, cp, cocp)
            assert str(stacked.value) == str(alone.value)


# ---------------------------------------------------------------------------
# the block layout against the dense eigensolve


def covariant_choi(a, b):
    """sum_ab A_ab |aa><bb| + sum_{a != b} B_ab |ab><ab|, the Choi matrix of a
    map covariant under diagonal unitaries."""
    d = len(a)
    c = np.diag(np.asarray(b, dtype=complex).reshape(-1))
    ii = [k * (d + 1) for k in range(d)]
    c[np.ix_(ii, ii)] = a
    return c


def covariant_stack(rng, d, scale=1.0):
    """Covariant map matrices: PPT, CP but not coCP, not CP, and near I (x) omega."""
    g = ginibre(rng, d)
    a = g @ g.conj().T / d
    z = np.abs(a - np.diag(np.diag(a)))
    shift = np.linalg.eigvalsh(a)[0] + rng.uniform(0.05, 1.0)
    omega = rng.uniform(0.5, 1.5, d)
    chois = [
        covariant_choi(a, z * rng.uniform(1.05, 2.0, (d, d))),             # PPT
        covariant_choi(a, z * rng.uniform(0.0, 0.9, (d, d))),              # CP, not coCP
        covariant_choi(a - shift * np.eye(d), z * rng.uniform(0.0, 2.0, (d, d))),  # not CP
        0.97 * np.diag(np.tile(omega / omega.sum(), d)).astype(complex)    # near I (x) omega
        + 0.03 * covariant_choi(a, z * rng.uniform(1.05, 2.0, (d, d))) / np.trace(a).real,
    ]
    return np.array([from_choi_matrix(scale * c, d) for c in chois])


def dense_classify(choi, d, tol=PSD_TOL):
    """Classification and certificate fields of one map from dense floors."""
    min_c, min_pt = dense_floors(choi, d)
    is_cp, is_cocp = min_c >= -tol, min_pt >= -tol
    cert = reference_certificate(choi, min_c, min_pt, d, tol)
    status = (classify.EB_REFUTED if not (is_cp and is_cocp) else
              classify.EB_CERTIFIED if cert[0] else classify.EB_UNKNOWN)
    return (is_cp, is_cocp, is_cp and is_cocp, status), (min_c, min_pt), cert[:5]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), d=st.integers(4, 8),
       scale=st.sampled_from([1e-3, 1.0, 1e3]))
def test_covariant_floors_agree_with_dense_eigvalsh(seed, d, scale):
    stack = covariant_stack(np.random.default_rng(seed), d, scale)
    choi, min_c, min_pt = classify.choi_floors(stack, d)
    assert all(is_routed(c, d) for c in choi)
    reports = classify.classify_stack(stack, d)
    certs = classify.interior_certificates(choi, min_c, min_pt, d)
    classes = []
    for c, report, cert in zip(choi, reports, certs):
        flags, floors, ref_cert = dense_classify(c, d)
        bound = 1e-13 * max(1.0, float(np.abs(c).max()))
        assert abs(report.min_eig_choi - floors[0]) <= bound
        assert abs(report.min_eig_choi_pt - floors[1]) <= bound
        assert report_fields(report)[:4] == flags
        assert cert_fields(cert) == ref_cert
        classes.append(flags[:3])
    assert classes[:3] == [(True, True, True), (True, False, False), (False, False, False)]


def test_diagonal_choi_matrices_give_the_dense_floors_bitwise():
    rng = np.random.default_rng(31)
    for d in range(2, 9):
        for diag in (rng.uniform(-1.0, 1.0, d * d), rng.uniform(0.0, 2.0, d * d),
                     np.zeros(d * d), -np.arange(d * d, dtype=float)):
            s = from_choi_matrix(np.diag(diag).astype(complex), d)
            choi, min_c, min_pt = classify.choi_floors(s[None], d)
            assert is_routed(choi[0], d)
            assert (float(min_c[0]), float(min_pt[0])) == dense_floors(choi[0], d)


def solve_shapes(monkeypatch):
    """The shape of every stack ``matcore.min_herm_eig`` solves, in order."""
    calls = []
    real = matcore.min_herm_eig
    monkeypatch.setattr(matcore, "min_herm_eig",
                        lambda m, tol=None: calls.append(np.shape(m)) or real(m, tol))
    return calls


@pytest.mark.parametrize("entry", [1e-300, 1e-300j, np.nan])
def test_one_off_pattern_entry_reroutes_only_that_map(monkeypatch, entry):
    """A tiny entry off the covariant pattern is an entry of that map's own
    pattern: the map takes that pattern's layout (one block more), a NaN
    raises before any eigensolve, and the other maps keep their floors."""
    d = 5
    stack = covariant_stack(np.random.default_rng(41), d)
    choi = classify.choi_floors(stack, d)[0]
    c = choi[2].copy()
    c[1, 7], c[7, 1] = entry, np.conj(entry)  # |01><12|: off the block and the diagonal
    stack[2] = from_choi_matrix(c, d)
    calls = solve_shapes(monkeypatch)
    if np.isnan(entry):
        with pytest.raises(NoConvergenceError) as alone:
            classify.choi_floors(stack[2:3], d)
        calls.clear()
        with pytest.raises(NoConvergenceError) as stacked:
            classify.choi_floors(stack, d)
        assert str(stacked.value) == str(alone.value)
        assert calls == []
        return
    # C: the 5 x 5 block of the others and of this map, and one more pair;
    # C^Gamma: the pairs, and now a 3 x 3 block {02, 11, 20} of this map
    assert block_sizes(c, d) == ({d}, {3})
    calls.clear()
    _, min_c, min_pt = classify.choi_floors(stack, d)
    assert calls == [(4, d, d), (1, 3, 3)]
    assert (float(min_c[2]), float(min_pt[2])) == reference_floors(stack[2], d)[1:]
    bound = 1e-13 * max(1.0, float(np.abs(c).max()))
    assert np.allclose((min_c[2], min_pt[2]), dense_floors(c, d), rtol=0, atol=bound)
    for k in range(len(stack)):
        _, c_k, pt_k = classify.choi_floors(stack[k:k + 1], d)
        assert (min_c[k], min_pt[k]) == (c_k[0], pt_k[0])


def test_one_nan_on_the_shared_pattern_raises_before_any_solve(monkeypatch):
    """A NaN on the pattern every map of the stack shares (|00><11|, in the
    block) leaves the pattern as it is; the stack raises the error its map
    raises alone, before any eigensolve, and without it the other three
    take one block solve."""
    d = 5
    stack = covariant_stack(np.random.default_rng(41), d)
    choi = superop._choi_shuffle(stack, d).copy()
    assert all((c != 0).tolist() == (choi[0] != 0).tolist() for c in choi)
    choi[2, 0, d + 1] = choi[2, d + 1, 0] = np.nan
    stack = superop._choi_shuffle(choi, d)
    with pytest.raises(NoConvergenceError) as alone:
        classify.choi_floors(stack[2:3], d)
    calls = solve_shapes(monkeypatch)
    with pytest.raises(NoConvergenceError) as stacked:
        classify.choi_floors(stack, d)
    assert str(stacked.value) == str(alone.value)
    assert calls == []
    rest = stack[[0, 1, 3]]
    _, min_c, min_pt = classify.choi_floors(rest, d)
    assert calls == [(3, d, d)]
    for k in range(len(rest)):
        _, c_k, pt_k = classify.choi_floors(rest[k:k + 1], d)
        assert (min_c[k], min_pt[k]) == (c_k[0], pt_k[0])


@pytest.mark.parametrize("entry, routed", [(-0.0, True), (complex(-0.0, -0.0), True),
                                           (np.inf, False), (complex(0.0, np.nan), False)])
def test_off_pattern_zeros_keep_the_route_and_non_finite_entries_leave_it(
        monkeypatch, entry, routed):
    d = 5
    stack = covariant_stack(np.random.default_rng(41), d)
    choi = superop._choi_shuffle(stack, d).copy()
    choi[2, 1, 7] = entry  # |01><12|: off the block and the diagonal
    assert is_routed(choi[2], d) == routed
    calls = solve_shapes(monkeypatch)
    if not routed:
        # a non-finite entry raises before any eigensolve
        with pytest.raises(NoConvergenceError, match="non-finite"):
            classify.choi_floors(superop._choi_shuffle(choi, d), d)
        assert calls == []
        return
    _, min_c, min_pt = classify.choi_floors(superop._choi_shuffle(choi, d), d)
    # the zero map keeps the layout of the others: one block solve for all four
    assert calls == [(4, d, d)]
    _, want_c, want_pt = classify.choi_floors(stack, d)
    assert list(min_c) == list(want_c) and list(min_pt) == list(want_pt)


@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("entry", [complex(0.5, np.nan), np.nan, np.inf, -np.inf])
def test_a_non_finite_choi_entry_raises_alone_and_in_a_stack(d, entry):
    """A CPTP map whose C[0, 0] has a NaN imaginary part once got finite
    floors and is_cp (LAPACK reads only the real part of the diagonal), and
    C[0, 0] = inf NaN floors, reported as EB_refuted: now the classifier and
    the direct eigensolves raise, with one message, and warn of nothing."""
    rng = np.random.default_rng(70 + d)
    choi = superop._choi_shuffle(np.array([random_cptp(rng, d).matrix for _ in range(3)]), d)
    choi[1, 0, 0] = entry
    stack = superop._choi_shuffle(choi, d)
    messages = set()
    calls = [lambda s=s: classify.choi_floors(s, d) for s in (stack[1:2], stack)]
    calls += [lambda s=s: classify.classify_stack(s, d) for s in (stack[1:2], stack)]
    calls += [lambda m=m, f=f: f(m) for m in (choi[1], choi)
              for f in (matcore.min_herm_eig, matcore.herm_eig)]
    for call in calls:
        with pytest.raises(NoConvergenceError) as exc:
            call()
        messages.add(str(exc.value))
    assert messages == {"matrix has a non-finite entry"}
    # the error is that of the first bad map
    choi[0, 0, 1] += 1e-3
    with pytest.raises(NotHermitianError):
        classify.choi_floors(superop._choi_shuffle(choi, d), d)
    with pytest.raises(NoConvergenceError):
        classify.choi_floors(superop._choi_shuffle(choi[::-1], d), d)


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_mixed_stack_gives_each_map_its_stack_of_one_floors(d):
    rng = np.random.default_rng(50 + d)
    generic = [random_cptp(rng, d).matrix, random_hp_map(rng, d, shift=0.5).matrix,
               superop.transpose_map(d).matrix]
    covariant = list(covariant_stack(rng, d)) + [superop.identity(d).matrix]
    stack = np.array([covariant[0], generic[0], covariant[1], covariant[2], generic[1],
                      covariant[3], generic[2], covariant[4]])
    assert [is_routed(c, d) for c in classify.choi_floors(stack, d)[0]] == [
        True, False, True, True, False, True, True, True]
    _, both_c, both_pt = classify.choi_floors(stack, d)
    for cp, cocp in ((True, True), (True, False), (False, True)):
        _, min_c, min_pt = classify.choi_floors(stack, d, cp=cp, cocp=cocp)
        # one floor alone is that floor of both
        assert min_c is None or list(min_c) == list(both_c)
        assert min_pt is None or list(min_pt) == list(both_pt)
        for k in range(len(stack)):
            _, c_k, pt_k = classify.choi_floors(stack[k:k + 1], d, cp=cp, cocp=cocp)
            assert (min_c is None) == (c_k is None) and (min_pt is None) == (pt_k is None)
            if cp:
                assert min_c[k] == c_k[0]
            if cocp:
                assert min_pt[k] == pt_k[0]
    reports = classify.classify_stack(stack, d)
    for s, report in zip(stack, reports):
        assert report_fields(report) == reference_classify(s, d)


@contextlib.contextmanager
def counted_solves():
    """The shape of every stack ``matcore.min_herm_eig`` solves inside the block."""
    calls = []
    real = matcore.min_herm_eig
    matcore.min_herm_eig = lambda m, tol=None: calls.append(np.shape(m)) or real(m, tol)
    try:
        yield calls
    finally:
        matcore.min_herm_eig = real


def floors_bytes(floors, k):
    """Both floors of map k, as bytes: NaN and the sign of zero count."""
    return np.array([floors[1][k], floors[2][k]]).tobytes()


def check_split(stack, bad, alone, pairs, d):
    """``stack`` (map matrices or a SpectralStack) against its maps alone:
    ``alone(which)`` is the stack of the maps ``which`` in the same form,
    ``pairs(which)`` their distinct (floor, block size) pairs, and map
    ``bad`` holds a NaN or an inf.  Without it, every map's floors are
    bitwise those of its stack of one, from one eigensolve per pair; with
    it, the stack raises what that map raises alone, or else gives every
    map its stack-of-one floors from one eigensolve per pair."""
    good = [k for k in range(len(stack)) if k != bad]
    with counted_solves() as calls:
        floors = classify.choi_floors(alone(good), d)
    assert len(calls) == len(pairs(good))
    for i, k in enumerate(good):
        assert floors_bytes(floors, i) == floors_bytes(classify.choi_floors(alone([k]), d), 0)
    try:
        want = classify.choi_floors(alone([bad]), d)
    except EbdynError as exc:
        with pytest.raises(type(exc)) as stacked:
            classify.choi_floors(stack, d)
        assert str(stacked.value) == str(exc)
        return
    with counted_solves() as calls:
        floors = classify.choi_floors(stack, d)
    assert len(calls) == len(pairs(range(len(stack))))
    assert floors_bytes(floors, bad) == floors_bytes(want, 0)
    for k in good:
        assert floors_bytes(floors, k) == floors_bytes(classify.choi_floors(alone([k]), d), 0)


def pattern_pairs(chois, d):
    """The distinct (floor, block size) pairs of Choi matrices that take an
    eigensolve (:func:`block_sizes`)."""
    return {(side, k) for c in chois for side, sizes in enumerate(block_sizes(c, d))
            for k in sizes}


NON_FINITE = st.sampled_from([np.nan, np.inf, -np.inf, complex(0.0, np.nan),
                              complex(np.inf, 1.0)])


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), d=st.integers(2, 5), data=st.data(),
       kinds=st.lists(st.sampled_from(["generic", "covariant", "sparse", "identity",
                                       "transpose"]), min_size=1, max_size=7),
       entry=NON_FINITE)
def test_one_split_gives_each_map_its_stack_of_one_floors(seed, d, data, kinds, entry):
    """Generic, covariant, identity and transpose maps in any order, and one
    map with a NaN or an inf anywhere in its Choi matrix.  A sparse
    covariant map lacks |00><(d-1)(d-1)|: another pattern, whose block of
    C (for d > 2) shares its size with the covariant one."""
    rng = np.random.default_rng(seed)

    def sparse():
        c = superop._choi_shuffle(covariant_stack(rng, d)[rng.integers(4)], d)
        c[0, d * d - 1] = c[d * d - 1, 0] = 0.0
        return superop._choi_shuffle(c, d)

    maps = {"generic": lambda: random_cptp(rng, d).matrix,
            "covariant": lambda: covariant_stack(rng, d)[rng.integers(4)],
            "sparse": sparse,
            "identity": lambda: superop.identity(d).matrix,
            "transpose": lambda: superop.transpose_map(d).matrix}
    stack = np.array([maps[kind]() for kind in kinds])
    bad = data.draw(st.integers(0, len(stack) - 1))
    choi = superop._choi_shuffle(stack, d)
    choi[bad, data.draw(st.integers(0, d * d - 1)), data.draw(st.integers(0, d * d - 1))] = entry
    stack = superop._choi_shuffle(choi, d)
    check_split(stack, bad, lambda which: stack[list(which)],
                lambda which: pattern_pairs(choi[list(which)], d), d)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(name=st.sampled_from(sorted(explicit_families())),
       times=st.lists(st.floats(0.0, 4.0), min_size=1, max_size=7),
       bad_t=st.floats(0.1, 4.0), data=st.data(), entry=NON_FINITE)
def test_one_split_reads_a_spectral_stack_with_one_non_finite_row(
        name, times, bad_t, data, entry):
    """Coefficient rows of Lambda_t in any order, one of them with a NaN or
    an inf, as a SpectralStack and as the stack of its maps."""
    fam = explicit_families()[name]
    d = fam.d
    bad = data.draw(st.integers(0, len(times)))
    times = times[:bad] + [bad_t] + times[bad:]
    stack = evolve.EvolutionHandle(fam)._propagator_rows(times, 0.0)
    rows = stack.rows.copy()
    rows[bad, data.draw(st.integers(0, rows.shape[1] - 1))] = entry
    stack = superop.SpectralStack(rows, stack.components, stack.identity, d)
    # the joint pattern of the components and the identity, off the diagonal
    joint = np.eye(d * d, dtype=bool) | (superop._choi_shuffle(np.eye(d * d), d) != 0)
    for q in stack.components:
        joint |= superop._choi_shuffle(q, d) != 0

    def pairs(which):
        which = list(which)
        solved = pattern_pairs([joint.astype(complex)] if set(which) - {bad} else [], d)
        return solved | ({(0, d * d), (1, d * d)} if bad in which else set())

    check_split(stack, bad, lambda which: superop.SpectralStack(
        rows[list(which)], stack.components, stack.identity[list(which)], d), pairs, d)
    maps = stack.maps()
    check_split(maps, bad, lambda which: maps[list(which)],
                lambda which: pattern_pairs(superop._choi_shuffle(maps[list(which)], d), d), d)


def test_covariant_non_hermitian_stack_raises_the_per_map_error():
    rng = np.random.default_rng(61)
    d = 4
    cov = covariant_stack(rng, d)
    generic = [random_cptp(rng, d).matrix for _ in range(2)]

    def perturbed(s, i, j, delta):
        c = classify.choi_floors(s[None], d)[0][0].copy()
        c[i, j] += delta
        return from_choi_matrix(c, d)

    bad_block = perturbed(cov[0], 0, 5, 1e-6)        # block entry C_00,11, not mirrored
    bad_diag = perturbed(cov[1], 1, 1, 3e-4j)        # imaginary part of C_01,01
    bad_generic = generic[0] + 1e-5 * ginibre(rng, d * d)
    routed = np.array([cov[2], cov[3], bad_block, bad_diag])
    assert all(is_routed(c, d) for c in superop._choi_shuffle(routed, d))
    for stack in ([cov[2], bad_generic, bad_block, generic[1]],
                  [cov[2], bad_block, bad_generic, bad_diag],
                  [generic[1], bad_diag, cov[3], bad_block],
                  [cov[3], generic[1], bad_generic]):
        stack = np.array(stack)
        with pytest.raises(NotHermitianError) as per_map:
            for s in stack:  # the dense loop: Choi matrix, then its partial transpose
                choi = superop.to_choi(superop.Superoperator(s, d))
                matcore.min_herm_eig(choi.matrix)
                matcore.min_herm_eig(choi.partial_transpose().matrix)
        for cp, cocp in ((True, True), (False, True)):
            with pytest.raises(NotHermitianError) as stacked:
                classify.choi_floors(stack, d, cp=cp, cocp=cocp)
            assert str(stacked.value) == str(per_map.value)


def permuted_block_choi(rng, d, sizes):
    """A Hermitian d^2 x d^2 matrix, block diagonal with blocks of ``sizes``
    under a random permutation, with random spectra about zero."""
    n = d * d
    c = np.zeros((n, n), dtype=complex)
    order = rng.permutation(n)
    start = 0
    for k in sizes:
        idx = order[start:start + k]
        g = ginibre(rng, k)
        block = g @ g.conj().T - rng.uniform(0.0, 2.0) * np.eye(k)
        c[np.ix_(idx, idx)] = block
        start += k
    return c


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), d=st.integers(2, 4), data=st.data())
def test_permuted_block_diagonal_choi_matrices_agree_with_dense_eigvalsh(seed, d, data):
    """Blocks of sizes 1-4 in any order and position: the floors of the
    block layout, alone and in a stack of several patterns, are within
    1e-13 max(1, max|C|) of the dense solve, and the flags agree."""
    rng = np.random.default_rng(seed)
    chois = []
    for _ in range(3):
        sizes = []
        while sum(sizes) < d * d:
            sizes.append(min(data.draw(st.integers(1, 4)), d * d - sum(sizes)))
        chois.append(permuted_block_choi(rng, d, sizes))
    stack = np.array([from_choi_matrix(c, d) for c in chois])
    _, min_c, min_pt = classify.choi_floors(stack, d)
    reports = classify.classify_stack(stack, d)
    for k, (c, report) in enumerate(zip(superop._choi_shuffle(stack, d), reports)):
        bound = 1e-13 * max(1.0, float(np.abs(c).max()))
        want = dense_floors(c, d)
        assert abs(min_c[k] - want[0]) <= bound and abs(min_pt[k] - want[1]) <= bound
        assert (float(min_c[k]), float(min_pt[k])) == reference_floors(stack[k], d)[1:]
        assert (report.is_cp, report.is_cocp) == (want[0] >= -PSD_TOL, want[1] >= -PSD_TOL)
        _, c_k, pt_k = classify.choi_floors(stack[k:k + 1], d)
        assert (min_c[k], min_pt[k]) == (c_k[0], pt_k[0])


# ---------------------------------------------------------------------------
# hypothesis: EB within PPT within CP


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), d=st.integers(2, 5),
       shift=st.floats(0.0, 3.0))
def test_eb_within_ppt_within_cp(seed, d, shift):
    rng = np.random.default_rng(seed)
    eb = [random_eb_map(rng, d).matrix for _ in range(2)]
    others = [random_hp_map(rng, d, shift=shift).matrix, random_cptp(rng, d).matrix,
              0.9 * classify.projector_onto_state(random_density(rng, d)).matrix
              + 0.1 * random_cptp(rng, d).matrix]
    reports = classify.classify_stack(np.array(eb + others), d)
    for r in reports:
        assert r.is_ppt == (r.is_cp and r.is_cocp)
        if r.eb_status == classify.EB_CERTIFIED:
            assert r.is_ppt
        if not r.is_ppt:
            assert r.eb_status == classify.EB_REFUTED
    # entanglement-breaking maps are PPT, so never refuted
    for r in reports[:2]:
        assert r.is_cp and r.is_ppt and r.eb_status != classify.EB_REFUTED


# ---------------------------------------------------------------------------
# the CLI rows and the composition experiment


def fmt_matrix(m):
    return "; ".join(" ".join(repr(complex(x)).strip("()") for x in row) for row in m)


def generated_configs(tmp_path):
    rng = np.random.default_rng(8)
    texts = {}
    for d in (3, 4):
        texts[f"gkls_d{d}"] = (
            "[family]\nkind = gkls\n"
            f"hamiltonian = {fmt_matrix(random_hermitian(rng, d, 0.5))}\n"
            f"lindblad1 = {fmt_matrix(ginibre(rng, d) / d)}\n"
            f"lindblad2 = {fmt_matrix(ginibre(rng, d) / d)}\n"
            "[analysis]\npoints = 9\n")
        b = rng.uniform(0.0, 0.5, (d, d))
        np.fill_diagonal(b, 0.0)
        g = ginibre(rng, d)
        texts[f"diag_cov_d{d}"] = (
            "[family]\nkind = diagonally_covariant\n"
            f"h = {' '.join(repr(float(x)) for x in np.sort(rng.uniform(0, 2, d)))}\n"
            f"a = {fmt_matrix(0.3 * g @ g.conj().T)}\n"
            f"b = {fmt_matrix(b)}\n[analysis]\npoints = 9\n")
        texts[f"depolarizing_d{d}"] = (
            "[family]\nkind = depolarizing\ngamma = 1.3\n"
            f"omega = {fmt_matrix(random_density(rng, d))}\n[analysis]\npoints = 9\n")
    paths = []
    for name, text in texts.items():
        path = tmp_path / f"{name}.ini"
        path.write_text(text, encoding="utf-8")
        paths.append(str(path))
    return paths


def test_cli_classify_rows_match_per_map_loop(tmp_path, capsys):
    configs = [os.path.join(REPO, "configs", f"{n}.ini") for n in SHIPPED_CONFIGS]
    for config in configs + generated_configs(tmp_path):
        out = tmp_path / "out.json"
        assert cli.main(["classify", "--config", config, "--out", str(out)]) == 0
        capsys.readouterr()
        payload = json.loads(out.read_text())
        family, _ = cli.load_config(config)
        handle = evolve.EvolutionHandle(family)
        for row in payload["rows"]:
            want = reference_classify(handle.solve(row["t"]).matrix, family.d)
            got = (row["is_cp"], row["is_cocp"], row["is_ppt"], row["eb_status"],
                   row["min_eig_choi"], row["min_eig_choi_pt"])
            assert got == want, (config, row["t"])


def test_ppt_composition_matches_per_map_loop():
    rng = np.random.default_rng(21)
    maps = [evolve.solve(shipped_family(name), 0.7) for name in SHIPPED_CONFIGS]
    maps += [random_cptp(rng, d) for d in (2, 3, 4)]
    for phi in maps:
        result = asymptotics.ppt_composition_experiment(phi, 7)
        rows, current = [], phi
        for k in range(1, 8):
            rows.append((k,) + reference_classify(current.matrix, phi.d))
            current = superop.compose(current, phi)
        assert result.ks == tuple(r[0] for r in rows)
        assert result.witness_choi == tuple(r[5] for r in rows)
        assert result.witness_pt == tuple(r[6] for r in rows)
        assert result.eb_statuses == tuple(r[4] for r in rows)
        assert result.first_ppt == next((r[0] for r in rows if r[3]), None)
        assert result.first_eb == next(
            (r[0] for r in rows if r[4] == classify.EB_CERTIFIED), None)


def test_ppt_composition_rejects_non_conservative_maps():
    phi = superop.Superoperator(2.0 * np.eye(4), 2)
    with pytest.raises(ValueError, match="trace preserving or unital"):
        asymptotics.ppt_composition_experiment(phi, 3)


# ---------------------------------------------------------------------------
# generators built once, against their Kronecker form


def kron_dissipator(v):
    eye = np.eye(v.shape[0], dtype=complex)
    vv = v.conj().T @ v
    return np.kron(v.conj(), v) - 0.5 * (np.kron(eye, vv) + np.kron(vv.T, eye))


def kron_gkls(h, jumps):
    eye = np.eye(h.shape[0], dtype=complex)
    m = -1j * (np.kron(eye, h) - np.kron(h.T, eye))
    for v, rate in jumps:
        m += float(rate) * kron_dissipator(np.asarray(v, dtype=complex))
    return m


def kron_diagonally_covariant(dec_generator, b):
    d = b.shape[0]
    m = dec_generator.copy()
    for i in range(d):
        for j in range(d):
            if i != j:
                e = np.zeros((d, d), dtype=complex)
                e[i, j] = 1.0
                m += b[i, j].real * kron_dissipator(e)
    return m


def assert_built_once(family, want):
    for t in (0.0, 0.7, 5.0):
        m = family.generator_matrix(t)
        assert m.tobytes() == want.tobytes()
        assert not m.flags.writeable


@pytest.mark.parametrize("d", range(2, 9))
def test_gkls_generator_matches_kronecker_form(d):
    rng = np.random.default_rng(100 + d)
    h = random_hermitian(rng, d, 0.5).astype(complex)
    jumps = [(ginibre(rng, d) / d, rng.uniform(0.2, 1.5)) for _ in range(2)]
    assert_built_once(families.gkls(h, jumps), kron_gkls(h, jumps))


@pytest.mark.parametrize("d", range(2, 9))
def test_diagonally_covariant_generator_matches_kronecker_form(d):
    rng = np.random.default_rng(200 + d)
    g = ginibre(rng, d)
    a = 0.3 * g @ g.conj().T
    b = rng.uniform(0.0, 0.6, (d, d)) * (rng.uniform(size=(d, d)) < 0.7)
    np.fill_diagonal(b, 0.0)
    h = list(np.sort(rng.uniform(0.0, 2.0, d)))
    dec = families.pure_decoherence(h, a)
    fam = families.diagonally_covariant(h, a, b.astype(complex))
    assert_built_once(fam, kron_diagonally_covariant(dec.generator_matrix(0.0), b))


def shipped_section(name):
    parser = cli.configparser.ConfigParser()
    parser.read(os.path.join(REPO, "configs", f"{name}.ini"))
    return parser["family"]


def test_shipped_constant_generators_match_kronecker_form():
    sec = shipped_section("diagonally_covariant")
    a, b = cli._parse_matrix(sec["a"], "a"), cli._parse_matrix(sec["b"], "b")
    h = cli._parse_vector(sec["h"], "h") if "h" in sec else [0.0] * a.shape[0]
    dec = families.pure_decoherence(h, a)
    assert_built_once(shipped_family("diagonally_covariant"),
                      kron_diagonally_covariant(dec.generator_matrix(0.0), b))
    sec = shipped_section("gkls_damped_qubit")
    jumps = [(cli._parse_matrix(sec[k], k), 1.0) for k in sorted(sec) if k.startswith("lindblad")]
    h = (cli._parse_matrix(sec["hamiltonian"], "h") if "hamiltonian" in sec
         else np.zeros_like(jumps[0][0]))
    assert_built_once(shipped_family("gkls_damped_qubit"), kron_gkls(h, jumps))


def test_shipped_constant_generators_are_one_read_only_matrix():
    """Every shipped constant family but the Pauli channel, whose generator
    is summed per call: its closed form never reads it, and a rate such as
    1e308 overflows only when it does."""
    constant = [fam for fam in map(shipped_family, SHIPPED_CONFIGS)
                if fam.constant and fam.kind != "pauli"]
    assert sorted(fam.kind for fam in constant) == [
        "depolarizing", "detailed_balance", "diagonally_covariant", "gkls", "phase_covariant"]
    for fam in constant:
        m = fam.generator_matrix(0.0)
        assert fam.generator_matrix(2.5) is m, fam.kind
        assert not m.flags.writeable, fam.kind


def test_time_dependent_generators_stay_writable():
    fam = families.gkls(np.zeros((2, 2)), [(np.array([[0, 1], [0, 0]]), lambda t: 1.0 + t)])
    assert fam.generator_matrix(0.5).flags.writeable
    assert not np.array_equal(fam.generator_matrix(0.5), fam.generator_matrix(1.5))
