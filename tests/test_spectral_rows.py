"""Spectral closed forms through their coefficient rows.

Every spectral family is Lambda_t = sum_k c_k(t) Q_k, so a grid of maps is one
sum of coefficient rows and V_{t,s} = sum_k c_k(t) / c_k(s) Q_k.  Over random
families of each kind: grid stacks equal the per-point ``map_at`` bit for
bit, V_{t,s} o Lambda_s reproduces Lambda_t, V_{s,s} is exactly the
identity, and a start time past the pure-decoherence cutoff raises the
singular-map error with the condition number of Lambda_s.  The witness
scans read the Choi entries of the blocks of the components' joint pattern
straight from the rows (``EvolutionHandle._propagator_rows``, a
``superop.SpectralStack``): each is bitwise the entry of the map's Choi
matrix, every other entry of it is zero, and the rows refuse exactly the
start times the propagator grid refuses.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ebdyn import classify, evolve, families, superop
from ebdyn.errors import NoConvergenceError, SingularMapError

from helpers import random_density

SETTINGS = settings(max_examples=25, deadline=None, derandomize=True)
RATE = st.floats(0.05, 1.5)
TIMES = st.lists(st.floats(0.0, 4.0), min_size=1, max_size=9)


def pauli(rates, amps, freqs):
    """Constant rates, or rates g + a sin(f t) integrated by quadrature."""
    if not any(amps):
        return families.pauli_channel(rates)
    return families.pauli_channel([
        (lambda t, g=g, a=a, f=f: g + a * math.sin(f * t)) if a else g
        for g, a, f in zip(rates, amps, freqs)
    ])


@st.composite
def pauli_families(draw):
    rates = [draw(st.floats(-0.2, 1.5)) for _ in range(3)]
    amps = [draw(st.sampled_from([0.0, 0.1, 0.3])) for _ in range(3)]
    freqs = [draw(st.floats(0.3, 2.0)) for _ in range(3)]
    return pauli(rates, amps, freqs)


@st.composite
def phase_covariant_families(draw):
    return families.phase_covariant(draw(st.floats(-2.0, 2.0)), draw(st.floats(-0.3, 1.5)),
                                    draw(st.floats(0.0, 1.5)), draw(st.floats(-0.3, 0.8)))


@st.composite
def depolarizing_families(draw):
    d = draw(st.integers(2, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    return families.depolarizing(draw(RATE), random_density(rng, d))


@st.composite
def pure_decoherence_families(draw):
    d = draw(st.integers(2, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    a0 = g @ g.conj().T / d
    h = list(rng.uniform(0.0, 2.0, d))
    cutoff = draw(st.one_of(st.none(), st.floats(0.5, 3.0)))
    a = a0 if draw(st.booleans()) else (lambda t: (1.0 + 0.5 * math.sin(t)) * a0)
    return families.pure_decoherence(h=h, a=a, cutoff=cutoff)


FAMILIES = {
    "pauli": pauli_families(),
    "eternal_nm": st.floats(0.2, 3.0).map(families.eternal_nm),
    "phase_covariant": phase_covariant_families(),
    "depolarizing": depolarizing_families(),
    "pure_decoherence": pure_decoherence_families(),
}


def per_point_map(fam, t):
    return np.eye(fam.d ** 2) if t == 0.0 else fam.closed_form.map_at(t).matrix


def check_family(fam, times, s):
    handle = evolve.EvolutionHandle(fam)
    assert handle.solver == "closed_form" and fam.closed_form.components is not None
    d2 = fam.d ** 2
    # grids: one sum of rows, each map bitwise the per-point map_at
    grid = handle._solve_grid(times)
    for t, got, lam in zip(times, grid, handle.solve_many(times)):
        want = per_point_map(fam, t)
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(lam.matrix, want)
        np.testing.assert_array_equal(evolve.EvolutionHandle(fam).solve(t).matrix, want)
    # propagators from s
    ts = [s] + sorted(s + t for t in times)
    cutoff = fam.params.get("cutoff")
    if cutoff is not None and s >= cutoff:
        cond = float(np.linalg.cond(handle.solve(s).matrix))
        message = f"Lambda_s at s={s:g} is numerically singular (cond {cond:.3e})"
        for call in (lambda: handle._propagator_grid(ts, s),
                     lambda: handle.propagator(s + 1.0, s)):
            with pytest.raises(SingularMapError) as info:
                call()
            assert str(info.value) == message
        return
    props = handle._propagator_grid(ts, s)
    np.testing.assert_array_equal(props[0], np.eye(d2))
    np.testing.assert_array_equal(handle.propagator(s, s).matrix, np.eye(d2))
    lam_s = handle.solve(s).matrix
    for t, v, single in zip(ts, props, handle.propagator_many(ts, s)):
        np.testing.assert_array_equal(single.matrix, v)
        if t == s:
            continue
        if fam.constant:
            np.testing.assert_array_equal(v, per_point_map(fam, t - s))
        else:
            cf = fam.closed_form
            ratio = superop.spectral_sum(cf.coefficients(t) / cf.coefficients(s),
                                         cf.components, fam.d).matrix
            np.testing.assert_array_equal(v, ratio)
        lam_t = handle.solve(t).matrix
        np.testing.assert_allclose(v @ lam_s, lam_t, rtol=0,
                                   atol=1e-10 * max(1.0, np.abs(lam_t).max()))


@pytest.mark.parametrize("kind", sorted(FAMILIES))
def test_rows_serve_grids_and_propagators(kind):
    @SETTINGS
    @given(fam=FAMILIES[kind], times=TIMES, s=st.floats(0.0, 3.5))
    def check(fam, times, s):
        check_family(fam, times, s)

    check()


def test_coefficients_broadcast():
    fam = pauli([0.3, 0.5, 0.2], [0.3, 0.0, 0.1], [1.1, 1.0, 0.7])
    cf = fam.closed_form
    ts = np.array([0.0, 0.4, 2.5])
    rows = cf.coefficients(ts)
    assert rows.shape == (3, 4) and cf.coefficients(0.4).shape == (4,)
    for t, row in zip(ts, rows):
        np.testing.assert_array_equal(row, cf.coefficients(t))


def test_overflow_raises():
    fam = families.phase_covariant(0.0, -1.0, -1.0, 0.0)
    with pytest.raises(FloatingPointError):
        fam.closed_form.coefficients(np.array([1.0, 1000.0]))
    with pytest.raises(FloatingPointError):
        fam.closed_form.map_at(1000.0)


# ---------------------------------------------------------------------------
# the rows path of the witness scans


def check_rows_path(fam, times, s):
    """The rows of V_{t,s} against its maps: the block entries bitwise, the
    floors within 1e-13 max(1, max|C|) of the dense solve, and the same
    SingularMapError where the propagator grid raises one."""
    handle = evolve.EvolutionHandle(fam)
    d = fam.d
    ts = [s] + sorted(s + t for t in times)  # t == s first
    try:
        maps = handle._propagator_grid(ts, s)
    except SingularMapError as exc:
        with pytest.raises(SingularMapError) as info:
            evolve.EvolutionHandle(fam)._propagator_rows(ts, s)
        assert str(info.value) == str(exc)
        with pytest.raises(SingularMapError):
            handle._propagator_rows(ts, s)
        return False
    stack = evolve.EvolutionHandle(fam)._propagator_rows(ts, s)
    assert isinstance(stack, superop.SpectralStack) and len(stack) == len(ts)
    assert list(stack.identity) == [t == s for t in ts]
    layout, values = classify._spectral_entries(stack, d)
    choi = superop._choi_shuffle(maps, d).reshape(len(ts), -1)
    assert values.tobytes() == choi[:, layout.positions].tobytes()  # bitwise, signed zeros too
    off = np.ones(d ** 4, dtype=bool)
    off[layout.positions] = False
    assert not choi[:, off].any()
    assert stack.maps().tobytes() == maps.tobytes()
    _, min_c, min_pt = classify.choi_floors(stack, d)
    # one floor alone is that floor of both
    assert list(classify.choi_floors(stack, d, cocp=False)[1]) == list(min_c)
    assert list(classify.choi_floors(stack, d, cp=False)[2]) == list(min_pt)
    for c, got_c, got_pt in zip(choi.reshape(-1, d * d, d * d), min_c, min_pt):
        bound = 1e-13 * max(1.0, float(np.abs(c).max()))
        assert abs(got_c - np.linalg.eigvalsh(c)[0]) <= bound
        pt = c.reshape(d, d, d, d).transpose(0, 3, 2, 1).reshape(d * d, d * d)
        assert abs(got_pt - np.linalg.eigvalsh(pt)[0]) <= bound
    return True


@pytest.mark.parametrize("kind", sorted(FAMILIES))
def test_rows_give_the_block_entries_of_the_maps(kind):
    @SETTINGS
    @given(fam=FAMILIES[kind], times=TIMES, s=st.floats(0.0, 3.5))
    def check(fam, times, s):
        check_rows_path(fam, times, s)

    check()


def explicit_families():
    rng = np.random.default_rng(19)
    g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    a = g @ g.conj().T / 3
    return {
        "pauli_constant": pauli([0.3, 0.5, 0.2], [0.0, 0.0, 0.0], [1.0, 1.0, 1.0]),
        "pauli_callable": pauli([0.3, 0.5, 0.2], [0.3, 0.0, 0.1], [1.1, 1.0, 0.7]),
        "eternal_nm": families.eternal_nm(1.7),
        "phase_covariant": families.phase_covariant(1.0, 0.3, 0.5, 0.2),
        "depolarizing": families.depolarizing(1.2, random_density(rng, 3)),
        "depolarizing_diagonal": families.depolarizing(0.8, np.diag([0.2, 0.3, 0.5])),
        "pure_decoherence": families.pure_decoherence(h=[0.0, 0.7, 1.9], a=a),
        "pure_decoherence_cutoff": families.pure_decoherence(h=[0.0, 0.7, 1.9], a=a,
                                                             cutoff=1.5),
    }


@pytest.mark.parametrize("name", sorted(explicit_families()))
def test_rows_path_at_zero_inside_and_past_a_start_time(name):
    """s = 0, s != 0 and t == s on every kind; past the cutoff, the error."""
    fam = explicit_families()[name]
    times = [0.0, 0.3, 1.1, 2.6, 4.0]
    assert check_rows_path(fam, times, 0.0)
    assert check_rows_path(fam, times, 0.9)
    assert check_rows_path(fam, [], 0.4)  # the identity alone
    if name == "pure_decoherence_cutoff":
        assert not check_rows_path(fam, times, 2.0)


def test_rows_layout_is_kept_on_the_components():
    fam = explicit_families()["pure_decoherence"]
    comps = fam.closed_form.components
    assert comps.choi_layout is None
    stack = evolve.EvolutionHandle(fam)._propagator_rows([0.5, 1.0], 0.0)
    classify.choi_floors(stack, 3)
    layout = comps.choi_layout[0]
    classify.choi_floors(evolve.EvolutionHandle(fam)._propagator_rows([0.2], 0.1), 3)
    assert comps.choi_layout[0] is layout
    assert comps.choi_layout[3]  # no Q_k reaches the entries |ab><ab|, a != b
    # C: the 3 x 3 block on {00, 11, 22} and the six other diagonal entries;
    # C^Gamma: {00}, {11}, {22} and the pairs {ab, ba}
    assert [k for k, _ in layout.blocks[0]] == [3] and layout.blocks[1] == ()
    assert layout.split == 6 and list(layout.pair) == [0.0] * 6 + [0.0] * 3 + [1.0] * 3


@pytest.mark.parametrize("name", ["eternal_nm", "pure_decoherence"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_a_non_finite_row_takes_the_route_of_its_map_alone(name, bad):
    """A non-finite row is not read through the layout (whose 2 x 2 closed
    form would give a NaN floor): it raises what its map raises alone."""
    fam = explicit_families()[name]
    stack = evolve.EvolutionHandle(fam)._propagator_rows([0.0, 0.4, 1.3, 2.0], 0.0)
    rows = stack.rows.copy()
    rows[2, 1] = bad
    bad_stack = superop.SpectralStack(rows, stack.components, stack.identity, fam.d)
    with pytest.raises(NoConvergenceError) as alone:
        classify.choi_floors(bad_stack.maps([2]), fam.d)
    for cp, cocp in ((True, True), (True, False), (False, True)):
        with pytest.raises(NoConvergenceError) as stacked:
            classify.choi_floors(bad_stack, fam.d, cp=cp, cocp=cocp)
        assert str(stacked.value) == str(alone.value)
    good = superop.SpectralStack(rows[[0, 1, 3]], stack.components, stack.identity[[0, 1, 3]],
                                 fam.d)
    _, min_c, min_pt = classify.choi_floors(good, fam.d)
    _, want_c, want_pt = classify.choi_floors(stack, fam.d)
    assert list(min_c) == list(want_c[[0, 1, 3]]) and list(min_pt) == list(want_pt[[0, 1, 3]])
