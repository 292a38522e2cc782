"""Records of Delta(s) kept on the handle and chunked grids.

A handle keeps one record per witness kind and start time, which arrival
and divisibility scans share: EB has the PPT witness, so its scans read the
PPT record.  These tests check that the answers are those of an independent
computation, that a kept answer costs no witness and no tail, that an
arrival grows a kept chunk by the points it skipped, that
``use_shortcuts=False`` recomputes, and that the chunked grid of a
CP-divisible family is bitwise the full sweep.
"""

import collections
import gc
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ebdyn import asymptotics, classify, divisibility, evolve, families, superop
from ebdyn.errors import NotReachedError, SingularMapError

from helpers import RoundRecorder, random_gkls_family, shipped_family
from test_divisibility import random_floquet
from test_evolve import oscillating_gkls

SHIPPED_CONFIGS = (
    "depolarizing_qutrit", "detailed_balance_ladder", "diagonally_covariant",
    "eternal", "floquet_rotating", "gkls_damped_qubit", "pauli_isotropic",
    "phase_covariant", "pure_decoherence_cutoff",
)


class ChoiFloorCounter:
    """Counts ``classify.choi_floors`` calls, through which every CP/PPT/EB
    witness goes, and the maps stacked into them (``points``)."""

    def __init__(self, monkeypatch):
        self.calls = self.points = 0
        self.stacks = []  # the size of each stack
        floors = classify.choi_floors

        def counted(stack, *args, **kwargs):
            self.calls += 1
            self.points += len(stack)
            self.stacks.append(len(stack))
            return floors(stack, *args, **kwargs)

        monkeypatch.setattr(classify, "choi_floors", counted)

    def run(self, fn):
        self.calls = self.points = 0
        return fn(), self.calls


class TailCounter:
    """Counts ``asymptotics._tail`` calls: an analytic tail never reaches
    ``classify.choi_floors``, so only this sees it read again."""

    def __init__(self, monkeypatch):
        self.calls = 0
        tail = asymptotics._tail

        def counted(*args):
            self.calls += 1
            return tail(*args)

        monkeypatch.setattr(asymptotics, "_tail", counted)


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
    again = asymptotics.arrival_time(handle, "PPT", search=search)
    assert arrival_fields(again) == arrival_fields(first)
    assert again.grid_times is first.grid_times and again.grid_witness is first.grid_witness
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


def dephased_qubit():
    """A dephased qubit: its coherence e^{-t} keeps the PPT witness below -tol
    up to the default horizon t = 20, so its PPT and EB scans end not reached
    and the tail decides."""
    return families.gkls(np.zeros((2, 2)), [(np.diag([1.0, -1.0]), 0.5)])


KEPT_FAMILIES = [
    ("eternal", lambda: families.eternal_nm(2.0)),  # start times, analytic tail first
    ("floquet_core", rotating_floquet),  # the limit-cycle phase first
    ("semigroup", lambda: families.depolarizing(1.0, np.diag([0.6, 0.4]))),
    ("semigroup_tail", lambda: shipped_family("phase_covariant")),  # the ladder reads it
    ("not_reached", dephased_qubit),
    ("cutoff", lambda: shipped_family("pure_decoherence_cutoff")),
]


@pytest.mark.parametrize("name, make", KEPT_FAMILIES)
def test_second_cone_of_a_witness_kind_makes_no_witness(monkeypatch, name, make):
    """EB after PPT on one handle reads the kept records: no witness and no
    tail, at every start time, on the semigroup shift and on the core."""
    fam = make()
    search = asymptotics.default_search(fam, grid_n=80)
    s_grid = (0.0, 0.4, 1.3)
    handle = evolve.EvolutionHandle(fam)
    counter = ChoiFloorCounter(monkeypatch)
    tails = TailCounter(monkeypatch)
    first, first_calls = counter.run(lambda: divisibility.scan_divisibility(
        handle, "PPT", s_grid=s_grid, search=search))
    tails.calls = 0
    second, second_calls = counter.run(lambda: divisibility.scan_divisibility(
        handle, "EB", s_grid=s_grid, search=search))
    assert first_calls > 0 and second_calls == tails.calls == 0
    assert report_fields(second) == report_fields(first)
    if name == "not_reached":
        assert first.details["arrival"] == "not_reached"
    # another kind is its own question
    _, cp_calls = counter.run(lambda: divisibility.scan_divisibility(
        handle, "CP", s_grid=s_grid, search=search))
    assert cp_calls > 0


@pytest.mark.parametrize("name, t_max", [("depolarizing_qutrit", 8.0),
                                         ("floquet_rotating", 14.0)])
def test_divisibility_after_arrival_reads_the_kept_delta0(monkeypatch, name, t_max):
    """Arrival is Delta(0), kept once: the divisibility scan after it
    evaluates no witness and answers as on a fresh handle."""
    fam = shipped_family(name)
    search = asymptotics.default_search(fam, t_max=t_max, grid_n=200)
    s_grid = divisibility.default_s_grid(search, n=6)
    handle = evolve.EvolutionHandle(fam)
    counter = ChoiFloorCounter(monkeypatch)
    tails = TailCounter(monkeypatch)
    _, calls = counter.run(lambda: asymptotics.arrival_time(handle, "PPT", search=search))
    assert calls > 0
    tails.calls = 0
    rep, calls = counter.run(lambda: divisibility.scan_divisibility(
        handle, "PPT", s_grid=s_grid, search=search))
    # no grid witness: a Floquet core tests its limit-cycle phase first, a
    # tail that the arrival's ladder never reached (the family is CP-divisible)
    assert calls == counter.points == tails.calls == (name == "floquet_rotating")
    fresh = divisibility.scan_divisibility(evolve.EvolutionHandle(fam), "PPT", s_grid=s_grid,
                                           search=search)
    assert report_fields(rep) == report_fields(fresh)


@pytest.mark.parametrize("cone", ["CP", "PPT"])
@pytest.mark.parametrize("name, t_max", [("depolarizing_qutrit", 8.0),
                                         ("floquet_rotating", 14.0)])
def test_arrival_grows_a_kept_chunk(monkeypatch, name, t_max, cone):
    """After a divisibility scan kept the first chunk, the arrival evaluates
    only the points the chunk skipped, and equals a fresh arrival bitwise."""
    fam = shipped_family(name)
    search = asymptotics.default_search(fam, t_max=t_max, grid_n=30)
    handle = evolve.EvolutionHandle(fam)
    counter = ChoiFloorCounter(monkeypatch)
    rounds = RoundRecorder(monkeypatch)
    divisibility.scan_divisibility(handle, cone, s_grid=(0.0, 1.0), search=search)
    # the chunk had a point inside: no larger grid stack (the bisection
    # rounds, which may hold more points, are counted apart)
    grid_stacks = collections.Counter(counter.stacks) - collections.Counter(rounds.sizes())
    assert max(grid_stacks) == divisibility._CHUNK
    res, _ = counter.run(lambda: asymptotics.arrival_time(handle, cone, search=search))
    assert counter.points == search.grid_n - divisibility._CHUNK
    fresh = asymptotics.arrival_time(evolve.EvolutionHandle(fam), cone, search=search)
    assert arrival_fields(res) == arrival_fields(fresh)


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


def test_a_not_reached_answer_is_kept(monkeypatch):
    """PPT then EB on one handle scan one grid; each raises its own
    NotReachedError with the kept horizon and witness."""
    # a decaying coherence c(t) keeps the PPT witness at -|c(t)| < 0
    fam = families.pure_decoherence(a=np.array([[1.0, 1.0], [1.0, 1.5]]))
    handle = evolve.EvolutionHandle(fam)
    search = asymptotics.Search(t_max=10.0, grid_n=40)
    grids = []
    witnesses = asymptotics.cone_witnesses

    def counted(*args, **kwargs):
        grids.append(args)
        return witnesses(*args, **kwargs)

    monkeypatch.setattr(asymptotics, "cone_witnesses", counted)
    raised = []
    for cone in ("PPT", "EB", "EB"):
        with pytest.raises(NotReachedError) as info:
            asymptotics.arrival_time(handle, cone, search=search)
        raised.append(info.value)
        assert len(grids) == 1
    assert [exc.cone for exc in raised] == ["PPT", "EB", "EB"]
    assert len({(exc.t_max, exc.witness) for exc in raised}) == 1
    assert raised[0].t_max == 10.0 and raised[0].witness < 0.0
    assert str(raised[1]) == str(raised[0]).replace("PPT:", "EB:", 1)
    assert raised[1] is not raised[2]
    fresh = evolve.EvolutionHandle(fam)
    with pytest.raises(NotReachedError) as info:
        asymptotics.arrival_time(fresh, "EB", search=search)
    assert (info.value.t_max, info.value.witness) == (raised[0].t_max, raised[0].witness)
    # the kept answer holds no frame of the scan: the handle goes by reference counting
    kept = weakref.ref(handle)
    gc.disable()
    try:
        del info, raised, handle
        assert kept() is None
    finally:
        gc.enable()


def test_an_exception_is_not_kept(monkeypatch):
    """Only a not-reached outcome is an answer; any other exception is raised
    again by a new scan on the next call."""
    handle = evolve.EvolutionHandle(families.depolarizing(1.0, np.eye(2) / 2))
    search = asymptotics.Search(t_max=10.0, grid_n=40)
    scans = []

    def singular(*args):
        scans.append(args)
        raise SingularMapError("Lambda_s is numerically singular")

    monkeypatch.setattr(asymptotics, "_delta", singular)
    for _ in range(2):
        with pytest.raises(SingularMapError):
            asymptotics.arrival_time(handle, "EB", search=search)
    assert len(scans) == 2


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


class SpectrumCounter:
    """Counts ``superop.map_spectrum`` calls: a numeric limit makes two."""

    def __init__(self, monkeypatch):
        self.calls = 0
        spectrum = superop.map_spectrum

        def counted(phi):
            self.calls += 1
            return spectrum(phi)

        monkeypatch.setattr(superop, "map_spectrum", counted)


def test_numeric_limit_is_computed_once_per_handle_and_horizon(monkeypatch):
    """5 start times x 3 cones on one time-dependent GKLS: one limit, two spectra."""
    fam = oscillating_gkls()
    handle = evolve.EvolutionHandle(fam)
    assert handle.solver == "ode" and fam.closed_form is None
    search = asymptotics.Search(t_max=20.0, grid_n=40)  # a limit by 2 t_max
    counter = SpectrumCounter(monkeypatch)
    reports = [divisibility.scan_divisibility(handle, cone, s_grid=[s], search=search)
               for s in (0.0, 1.0, 2.0, 3.0, 5.0) for cone in ("CP", "PPT", "EB")]
    assert counter.calls == 2
    assert all(rep.verdict == "certified" for rep in reports)
    kept = asymptotics.asymptotic_map(fam, handle=handle, horizon=20.0)
    assert counter.calls == 2
    np.testing.assert_array_equal(
        kept.matrix, asymptotics.asymptotic_map(fam, horizon=20.0).matrix)
    assert counter.calls == 4
    asymptotics.asymptotic_map(fam, handle=handle, horizon=25.0)
    assert counter.calls == 6


def test_not_reached_semigroup_scans_share_the_limit(monkeypatch):
    """A dephased qubit's coherence e^{-t} keeps the PPT witness below -tol up to
    t = 12, while its numeric limit (the full dephasing) is settled by t = 24:
    PPT and EB end in not_reached and read one kept limit."""
    fam = dephased_qubit()
    handle = evolve.EvolutionHandle(fam)
    search = asymptotics.Search(t_max=12.0, grid_n=60)
    counter = SpectrumCounter(monkeypatch)
    reports = [divisibility.scan_divisibility(handle, cone, s_grid=[0.0, 1.0], search=search)
               for cone in ("PPT", "EB", "PPT")]
    for rep in reports:
        assert rep.details["arrival"] == "not_reached" and rep.verdict == "undetermined"
        assert abs(rep.details["asymptotic_witness"]) < 1e-9
    assert counter.calls == 2


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
    full = outcome(lambda: asymptotics._delta(
        evolve.EvolutionHandle(fam), cone, s, search, tol, True, None, False)[:2])
    chunked = outcome(lambda: asymptotics._delta(
        evolve.EvolutionHandle(fam), cone, s, search, tol, True, divisibility._CHUNK)[:2])
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
        head = divisibility._CHUNK if chunked else None
        return outcome(lambda: asymptotics._delta(
            evolve.EvolutionHandle(core), cone, s, search, 1e-9, head=head)[:2])

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
    chunked = asymptotics._delta(evolve.EvolutionHandle(fam), "CP", 0.5, search, 1e-9,
                                 head=divisibility._CHUNK)[0]
    assert sizes[0] == divisibility._CHUNK and max(sizes) == divisibility._CHUNK
    sizes.clear()
    full = asymptotics._delta(evolve.EvolutionHandle(fam), "CP", 0.5, search, 1e-9)[0]
    assert sizes[0] == search.grid_n and full == chunked


@pytest.mark.parametrize("cone", ["CP", "PPT"])
def test_chunked_ode_scan_is_the_full_sweep(monkeypatch, cone):
    """An ``ode`` handle reads each Lambda_t from its trajectory, a function of
    t alone: the chunked scan gives the full sweep's Delta and certificates
    bit for bit, and for CP it stops after the first chunk."""
    fam = oscillating_gkls()
    assert fam.cp_divisible and evolve.EvolutionHandle(fam).solver == "ode"
    search = asymptotics.Search(t_max=12.0, grid_n=300)
    sizes = []
    witnesses = asymptotics.cone_witnesses

    def recorded(stack, d, cone):
        sizes.append(len(stack))
        return witnesses(stack, d, cone)

    monkeypatch.setattr(asymptotics, "cone_witnesses", recorded)
    chunked = divisibility.scan_divisibility(fam, cone, search=search)
    chunk_sizes, sizes[:] = list(sizes), []
    full = divisibility.scan_divisibility(fam, cone, search=search, use_shortcuts=False)
    assert chunked.delta == full.delta and chunked.certificates == full.certificates
    assert chunked.verdict == full.verdict
    assert max(sizes) == search.grid_n
    assert (max(chunk_sizes) == divisibility._CHUNK) == (cone == "CP")


def test_a_family_that_is_not_cp_divisible_keeps_the_full_sweep():
    """Inside early and outside late: only the full sweep sees the late exit."""
    fam = families.pauli_channel(
        (lambda t: 1.0 - 0.8 * t,) * 3, antiderivatives=(lambda t: t - 0.4 * t * t,) * 3)
    assert not fam.cp_divisible
    search = asymptotics.Search(t_max=5.0, grid_n=100)
    handle = evolve.EvolutionHandle(fam)
    early = asymptotics.cone_witnesses(handle._propagator_grid([0.1, 0.5], 0.0), 2, "CP")
    assert (early > 1e-9).all()
    for head in (None, divisibility._CHUNK):
        _, certificate, scan = asymptotics._delta(evolve.EvolutionHandle(fam), "CP", 0.0, search,
                                                  1e-9, head=head)
        assert certificate == "not_reached" and len(scan.times) == search.grid_n
