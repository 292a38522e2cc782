"""Scan answers kept on the handle and chunked grids.

A handle answers each scan question once per witness kind: EB has the PPT
witness, so its arrival and divisibility scans read the PPT ones.  These
tests check that the answers are those of an independent computation, that
a kept answer costs no witness, that ``use_shortcuts=False`` recomputes, and
that the chunked grid of a CP-divisible family is bitwise the full sweep.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ebdyn import asymptotics, classify, divisibility, evolve, families
from ebdyn.errors import NotReachedError

from helpers import random_gkls_family, shipped_family
from test_divisibility import random_floquet

SHIPPED_CONFIGS = (
    "depolarizing_qutrit", "detailed_balance_ladder", "diagonally_covariant",
    "eternal", "floquet_rotating", "gkls_damped_qubit", "pauli_isotropic",
    "phase_covariant", "pure_decoherence_cutoff",
)


class ChoiFloorCounter:
    """Counts ``classify.choi_floors`` calls, through which every CP/PPT/EB
    witness goes."""

    def __init__(self, monkeypatch):
        self.calls = 0
        floors = classify.choi_floors

        def counted(*args, **kwargs):
            self.calls += 1
            return floors(*args, **kwargs)

        monkeypatch.setattr(classify, "choi_floors", counted)

    def run(self, fn):
        self.calls = 0
        return fn(), self.calls


def outcome(fn):
    """``fn()``, or the type of the exception it raises."""
    try:
        return fn()
    except Exception as exc:  # compared by type with the other path's
        return type(exc)


def shipped_search(name, grid_n=120):
    fam = shipped_family(name)
    return fam, asymptotics.default_search(fam, grid_n=grid_n)


def arrival_fields(res):
    return (res.tau, res.bracket, res.tolerance, res.retention_certificate,
            res.grid_times.tobytes(), res.grid_witness.tobytes())


def report_fields(rep):
    return (rep.s_grid, rep.delta, rep.certificates, rep.verdict, rep.shortcut_used,
            rep.details)


# ---------------------------------------------------------------------------
# EB is the PPT scan


@pytest.mark.parametrize("name", SHIPPED_CONFIGS)
def test_eb_arrival_is_the_ppt_arrival(name):
    """Computed on separate handles, EB and PPT differ only in cone and flag."""
    fam, search = shipped_search(name)
    ppt = outcome(lambda: asymptotics.arrival_time(evolve.EvolutionHandle(fam), "PPT",
                                                   search=search))
    eb = outcome(lambda: asymptotics.arrival_time(evolve.EvolutionHandle(fam), "EB",
                                                  search=search))
    if isinstance(ppt, type):
        assert eb is ppt
        return
    assert (ppt.cone, eb.cone) == ("PPT", "EB")
    assert not ppt.eb_lower_bound and eb.eb_lower_bound == (fam.d > 2)
    assert arrival_fields(eb) == arrival_fields(ppt)
    # on one handle EB reads the PPT answer, with its own cone and flag
    handle = evolve.EvolutionHandle(fam)
    first = asymptotics.arrival_time(handle, "PPT", search=search)
    kept = asymptotics.arrival_time(handle, "EB", search=search)
    assert (kept.cone, kept.eb_lower_bound) == ("EB", fam.d > 2)
    assert arrival_fields(kept) == arrival_fields(first) == arrival_fields(ppt)
    assert asymptotics.arrival_time(handle, "PPT", search=search) is first
    assert not first.grid_witness.flags.writeable


@pytest.mark.parametrize("name", SHIPPED_CONFIGS)
def test_eb_divisibility_is_the_ppt_divisibility(name):
    fam, search = shipped_search(name)
    s_grid = divisibility.default_s_grid(search, n=6)
    reports = {
        cone: divisibility.scan_divisibility(evolve.EvolutionHandle(fam), cone,
                                             s_grid=s_grid, search=search)
        for cone in ("PPT", "EB")
    }
    assert reports["EB"].cone == "EB"
    assert report_fields(reports["EB"]) == report_fields(reports["PPT"])
    handle = evolve.EvolutionHandle(fam)
    for cone in ("EB", "PPT"):  # EB first: PPT reads the EB answer
        rep = divisibility.scan_divisibility(handle, cone, s_grid=s_grid, search=search)
        assert rep.cone == cone
        assert report_fields(rep) == report_fields(reports["PPT"])


# ---------------------------------------------------------------------------
# call counts


def rotating_floquet():
    return shipped_family("floquet_rotating")


KEPT_FAMILIES = [
    ("eternal", lambda: families.eternal_nm(2.0)),
    ("floquet_core", rotating_floquet),
    ("semigroup", lambda: families.depolarizing(1.0, np.diag([0.6, 0.4]))),
    ("cutoff", lambda: shipped_family("pure_decoherence_cutoff")),
]


@pytest.mark.parametrize("name, make", KEPT_FAMILIES)
def test_second_cone_of_a_witness_kind_makes_no_witness(monkeypatch, name, make):
    fam = make()
    search = asymptotics.default_search(fam, grid_n=80)
    s_grid = (0.0, 0.4, 1.3)
    handle = evolve.EvolutionHandle(fam)
    counter = ChoiFloorCounter(monkeypatch)
    first, first_calls = counter.run(lambda: divisibility.scan_divisibility(
        handle, "PPT", s_grid=s_grid, search=search))
    second, second_calls = counter.run(lambda: divisibility.scan_divisibility(
        handle, "EB", s_grid=s_grid, search=search))
    assert first_calls > 0 and second_calls == 0
    assert second.delta == first.delta and second.certificates == first.certificates
    # another kind is its own question
    _, cp_calls = counter.run(lambda: divisibility.scan_divisibility(
        handle, "CP", s_grid=s_grid, search=search))
    assert cp_calls > 0


def test_kept_arrival_makes_no_witness(monkeypatch):
    fam = families.depolarizing(1.0, np.eye(3) / 3)
    handle = evolve.EvolutionHandle(fam)
    search = asymptotics.default_search(handle, grid_n=100)
    counter = ChoiFloorCounter(monkeypatch)
    _, calls = counter.run(lambda: asymptotics.arrival_time(handle, "EB", search=search))
    assert calls > 0
    ppt, calls = counter.run(lambda: asymptotics.arrival_time(handle, "PPT", search=search))
    assert calls == 0 and ppt.cone == "PPT" and not ppt.eb_lower_bound
    # a different search or tolerance is a different question
    _, calls = counter.run(lambda: asymptotics.arrival_time(handle, "PPT", search=search,
                                                            tol=1e-8))
    assert calls > 0


@pytest.mark.parametrize("name, make", KEPT_FAMILIES)
def test_without_shortcuts_every_scan_recomputes(monkeypatch, name, make):
    fam = make()
    search = asymptotics.default_search(fam, grid_n=60)
    handle = evolve.EvolutionHandle(fam)
    counter = ChoiFloorCounter(monkeypatch)

    def scan(cone):
        return divisibility.scan_divisibility(handle, cone, s_grid=(0.0, 0.4), search=search,
                                              use_shortcuts=False)

    first, first_calls = counter.run(lambda: scan("PPT"))
    again, again_calls = counter.run(lambda: scan("PPT"))
    eb, eb_calls = counter.run(lambda: scan("EB"))
    assert first_calls > 0 and again_calls == first_calls == eb_calls
    assert again.delta == first.delta == eb.delta


def test_an_exception_is_not_kept(monkeypatch):
    # a decaying coherence c(t) keeps the PPT witness at -|c(t)| < 0
    fam = families.pure_decoherence(a=np.array([[1.0, 1.0], [1.0, 1.5]]))
    handle = evolve.EvolutionHandle(fam)
    search = asymptotics.Search(t_max=10.0, grid_n=40)
    counter = ChoiFloorCounter(monkeypatch)
    for _ in range(2):
        with pytest.raises(NotReachedError) as info:
            counter.run(lambda: asymptotics.arrival_time(handle, "EB", search=search))
        assert info.value.cone == "EB" and counter.calls > 0


def test_floquet_core_is_diagonalized_once_per_witness_kind(monkeypatch):
    """5 start times x 3 cones: one core scan for CP, one for PPT and EB."""
    fam = rotating_floquet()
    handle = evolve.EvolutionHandle(fam)
    search = asymptotics.default_search(handle, grid_n=100)
    s_grid = divisibility.default_s_grid(search)
    eig_calls = []
    eig = np.linalg.eig

    def counted_eig(a):
        eig_calls.append(np.shape(a))
        return eig(a)

    monkeypatch.setattr(np.linalg, "eig", counted_eig)
    reports = [
        divisibility.scan_divisibility(handle, cone, s_grid=[float(s_grid[i])], search=search)
        for i in (0, 4, 8, 12, 15)
        for cone in ("CP", "PPT", "EB")
    ]
    assert len(eig_calls) == 2
    assert all(rep.details["reduction"] == "local_unitary_core" for rep in reports)


# ---------------------------------------------------------------------------
# chunked grids of CP-divisible families


def positive_pauli(amps, freqs, floors):
    """Pauli channel with positive callable rates, integrated by quadrature."""
    rates = tuple(
        (lambda t, a=a, w=w, c=c: c + a * (1.0 + math.sin(w * t)))
        for a, w, c in zip(amps, freqs, floors)
    )
    return families.pauli_channel(rates)


def cutoff_decoherence(seed, d, cutoff):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return families.pure_decoherence(h=list(np.sort(rng.uniform(0.0, 2.0, d))),
                                     a=g @ g.conj().T / d, cutoff=cutoff)


def assert_chunked_is_the_full_sweep(fam, cone, s, search):
    """Delta, certificate or exception type of the chunked scan, each on a
    fresh handle, against the full sweep."""
    tol = 1e-9
    full = outcome(lambda: divisibility._arrival_at_start(
        evolve.EvolutionHandle(fam), cone, s, search, tol, use_shortcuts=False))
    chunked = outcome(lambda: divisibility._arrival_at_start(
        evolve.EvolutionHandle(fam), cone, s, search, tol, use_shortcuts=True))
    assert chunked == full


@settings(max_examples=25, deadline=None)
@given(amps=st.lists(st.floats(0.0, 0.8), min_size=3, max_size=3),
       freqs=st.lists(st.floats(0.2, 3.0), min_size=3, max_size=3),
       floors=st.lists(st.floats(0.05, 1.0), min_size=3, max_size=3),
       cone=st.sampled_from(["CP", "coCP", "PPT", "EB"]),
       s=st.floats(0.0, 3.0), grid_n=st.integers(2, 60))
def test_chunked_pauli_is_the_full_sweep(amps, freqs, floors, cone, s, grid_n):
    fam = positive_pauli(amps, freqs, floors)
    assert fam.cp_divisible
    assert_chunked_is_the_full_sweep(fam, cone, s, asymptotics.Search(t_max=8.0, grid_n=grid_n))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), d=st.sampled_from([2, 3]), cutoff=st.floats(0.5, 4.0),
       cone=st.sampled_from(["CP", "coCP", "PPT", "EB"]), s=st.floats(0.0, 5.0),
       grid_n=st.integers(2, 80))
def test_chunked_cutoff_decoherence_is_the_full_sweep(seed, d, cutoff, cone, s, grid_n):
    # the witness sits on the boundary past the cutoff, never inside by tol
    fam = cutoff_decoherence(seed, d, cutoff)
    assert_chunked_is_the_full_sweep(fam, cone, s, asymptotics.Search(t_max=6.0, grid_n=grid_n))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), d=st.sampled_from([2, 3]),
       cone=st.sampled_from(["CP", "coCP", "PPT", "EB"]), s=st.floats(0.0, 3.0),
       grid_n=st.integers(2, 80))
def test_chunked_floquet_core_is_the_full_sweep(seed, d, cone, s, grid_n):
    _, core = random_floquet(seed, d)
    assert core.cp_divisible
    search = asymptotics.default_search(core, grid_n=grid_n)

    def delta(chunked):
        return outcome(lambda: divisibility._grid_delta(
            evolve.EvolutionHandle(core), cone, s, search, 1e-9, chunked=chunked))

    assert delta(True) == delta(False)


def test_chunked_sweep_stops_after_the_first_chunk(monkeypatch):
    fam = random_gkls_family(np.random.default_rng(5), 3)
    assert fam.cp_divisible and fam.constant
    search = asymptotics.Search(t_max=20.0, grid_n=400)
    sizes = []
    witnesses = asymptotics.cone_witnesses

    def recorded(stack, d, cone):
        sizes.append(len(stack))
        return witnesses(stack, d, cone)

    monkeypatch.setattr(asymptotics, "cone_witnesses", recorded)
    chunked = divisibility._grid_delta(evolve.EvolutionHandle(fam), "CP", 0.5, search, 1e-9,
                                       chunked=True)
    assert sizes[0] == divisibility._CHUNK and max(sizes) == divisibility._CHUNK
    sizes.clear()
    full = divisibility._grid_delta(evolve.EvolutionHandle(fam), "CP", 0.5, search, 1e-9)
    assert sizes[0] == search.grid_n and full == chunked


def test_a_family_that_is_not_cp_divisible_keeps_the_full_sweep():
    """Inside early and outside late: only the full sweep sees the late exit."""
    fam = families.pauli_channel(
        (lambda t: 1.0 - 0.8 * t,) * 3, antiderivatives=(lambda t: t - 0.4 * t * t,) * 3)
    assert not fam.cp_divisible
    search = asymptotics.Search(t_max=5.0, grid_n=100)
    handle = evolve.EvolutionHandle(fam)
    early = asymptotics.cone_witnesses(handle._propagator_grid([0.1, 0.5], 0.0), 2, "CP")
    assert (early > 1e-9).all()
    for chunked in (False, True):
        with pytest.raises(NotReachedError):
            divisibility._grid_delta(evolve.EvolutionHandle(fam), "CP", 0.0, search, 1e-9,
                                     chunked=chunked)
