"""Eventual divisibility scans and the cone-hierarchy consistency check."""

import math
import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ebdyn import asymptotics, cli, divisibility, evolve, families, matcore, tolerances

from helpers import random_gkls_family, random_unitary
from test_evolve import oscillating_gkls

CONFIG_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "configs")


class TestSemigroupShortcut:
    def test_depolarizing_delta_is_shifted_arrival(self):
        fam = families.depolarizing(1.0, np.eye(2) / 2)
        s_grid = (0.0, 0.5, 1.0, 3.0)
        rep = divisibility.scan_divisibility(fam, "PPT", s_grid=s_grid)
        assert rep.shortcut_used == "semigroup"
        assert rep.verdict == "certified"
        tau = rep.details["lambda_tau"]
        assert tau == pytest.approx(math.log(3.0), abs=1e-8)
        for s, delta in zip(rep.s_grid, rep.delta):
            assert delta == pytest.approx(s + tau, abs=1e-12)

    def test_detailed_balance_certified(self):
        fam = families.detailed_balance(
            np.diag([0.0, 1.0, 2.5]),
            [(matcore.matrix_unit(3, 0, 1), 1.0), (matcore.matrix_unit(3, 1, 2), 1.5)],
            beta=0.7,
        )
        rep = divisibility.scan_divisibility(fam, "EB", s_grid=(0.0, 1.0, 2.0))
        assert rep.verdict == "certified"
        assert rep.shortcut_used == "semigroup"
        assert all(math.isfinite(d) for d in rep.delta)

    def test_shortcut_agrees_with_direct_scan(self):
        """The generic per-start-time sweep must land on s + tau as well."""
        fam = families.depolarizing(1.0, np.diag([0.6, 0.4]))
        s_grid = (0.0, 0.4, 1.2)
        fast = divisibility.scan_divisibility(fam, "PPT", s_grid=s_grid)
        slow = divisibility.scan_divisibility(
            fam, "PPT", s_grid=s_grid, use_shortcuts=False
        )
        for a, b in zip(fast.delta, slow.delta):
            assert b == pytest.approx(a, abs=1e-5)
        assert slow.verdict == "certified"

    def test_never_arriving_semigroup_refuted_by_limit(self):
        # the 0-1 coherence never decays, so every propagator keeps a
        # partial-transpose witness pinned at -1
        a = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        fam = families.pure_decoherence(a=a)
        rep = divisibility.scan_divisibility(
            fam, "PPT", s_grid=(0.0, 1.0), search=asymptotics.Search(t_max=15.0)
        )
        assert rep.shortcut_used == "semigroup"
        assert rep.verdict == "refuted"
        assert all(d == math.inf for d in rep.delta)
        assert rep.certificates == ("refuted_tail", "refuted_tail")
        assert rep.details["asymptotic_witness"] == pytest.approx(-1.0, abs=1e-9)


class TestEternalFamily:
    def test_small_start_times_keep_finite_delta(self):
        fam = families.eternal_nm(2.0)
        rep = divisibility.scan_divisibility(fam, "EB", s_grid=(0.0, 0.2))
        assert all(d is not None and math.isfinite(d) for d in rep.delta)
        # V_{t,0} = Lambda_t, whose witness crosses once; later starts rest on the tail
        assert rep.certificates == ("analytic_monotone", "analytic_tail")

    def test_late_start_times_refuted(self):
        # tail witness 1/2 - (1 + e^{-2s})^{-2} turns negative past s*
        fam = families.eternal_nm(2.0)
        s_star = -0.5 * math.log(2 ** 0.5 - 1.0)
        rep = divisibility.scan_divisibility(fam, "EB", s_grid=(s_star + 0.1, 2.0))
        assert rep.verdict == "refuted"
        assert all(d == math.inf for d in rep.delta)
        assert all(c == "refuted_tail" for c in rep.certificates)

    def test_mixed_grid_is_refuted_overall(self):
        fam = families.eternal_nm(2.0)
        rep = divisibility.scan_divisibility(fam, "EB", s_grid=(0.0, 1.0, 2.0))
        assert rep.verdict == "refuted"
        assert math.isfinite(rep.delta[0])
        assert rep.delta[1] == math.inf
        assert rep.shortcut_used == "none"

    def test_alpha_below_one_refuted_from_the_start(self):
        rep = divisibility.scan_divisibility(
            families.eternal_nm(0.5), "PPT", s_grid=(0.0, 0.5)
        )
        assert rep.verdict == "refuted"


class TestFloquet:
    @staticmethod
    def family():
        core = families.depolarizing(1.0, np.diag([0.6, 0.4]))
        return families.floquet_product(
            lambda t: np.diag([np.exp(-1j * np.pi * t), 1.0]), 2.0, core
        )

    def test_certified_via_cp_divisibility(self):
        rep = divisibility.scan_divisibility(self.family(), "EB", s_grid=(0.0, 0.7, 1.9))
        assert rep.verdict == "certified"
        assert rep.shortcut_used == "cp_divisible_one_instant"
        assert all(c == "cp_divisible_one_instant" for c in rep.certificates)
        assert all(math.isfinite(d) and d >= s for s, d in zip(rep.s_grid, rep.delta))

    def test_chain_across_cones(self):
        fam = self.family()
        reports = {
            cone: divisibility.scan_divisibility(fam, cone, s_grid=(0.0, 0.7))
            for cone in ("CP", "PPT", "EB")
        }
        chain = divisibility.check_implication_chain(reports)
        assert chain.consistent, chain.messages


def random_floquet(seed, d):
    """Random GKLS core in a frame with a random integer-spectrum winding."""
    rng = np.random.default_rng(seed)
    core = random_gkls_family(rng, d)
    winding = rng.integers(-2, 3, size=d).astype(float)
    u = random_unitary(rng, d)
    period = rng.uniform(1.0, 3.0)
    w0 = 2.0 * math.pi / period

    def p_of_t(t):
        return (u * np.exp(-1j * w0 * t * winding)) @ u.conj().T

    return families.floquet_product(p_of_t, period, core), core


def rotating_dephasing():
    """Floquet family whose core has a two-dimensional kernel: no limit cycle."""
    core = families.gkls(np.zeros((2, 2)), [(matcore.PAULI_Z, 0.5)])
    fam = families.floquet_product(lambda t: np.diag([np.exp(-1j * np.pi * t), 1.0]), 2.0, core)
    return fam, core


class TestFloquetCoreShortcut:
    """The local-unitary core scan against the full per-start-time path."""

    @staticmethod
    def assert_paths_agree(fam, cone, s_grid, search):
        fast = divisibility.scan_divisibility(fam, cone, s_grid=s_grid, search=search)
        slow = divisibility.scan_divisibility(
            fam, cone, s_grid=s_grid, search=search, use_shortcuts=False
        )
        assert fast.details["reduction"] == "local_unitary_core"
        assert fast.details["core_certificate"] == fast.certificates[0]
        assert slow.details == {}
        assert fast.verdict == slow.verdict
        assert fast.certificates == slow.certificates
        # today's rule, which the full path cannot report with shortcuts off
        certified_cp = fam.cp_divisible and slow.verdict == "certified"
        assert fast.shortcut_used == ("cp_divisible_one_instant" if certified_cp else "none")
        for a, b in zip(fast.delta, slow.delta):
            if b is None or b == math.inf:
                assert a == b
            else:
                assert abs(a - b) <= 1e-12
        return fast

    @pytest.mark.parametrize("cone", ["CP", "PPT", "EB"])
    def test_shipped_config(self, cone):
        fam, analysis = cli.load_config(os.path.join(CONFIG_DIR, "floquet_rotating.ini"))
        search = asymptotics.default_search(fam, t_max=analysis["tmax"])
        rep = self.assert_paths_agree(fam, cone, divisibility.default_s_grid(search), search)
        assert rep.verdict == "certified"
        assert rep.details["tail_witness"] > 0.0
        core_delta = rep.details["core_delta"]
        assert all(d == s + core_delta for s, d in zip(rep.s_grid, rep.delta))

    @pytest.mark.parametrize("cone", ["CP", "PPT", "EB"])
    def test_depolarizing_core(self, cone):
        self.assert_paths_agree(TestFloquet.family(), cone, (0.0, 0.7, 1.9), None)

    @pytest.mark.parametrize("cone", ["CP", "PPT", "EB"])
    @pytest.mark.parametrize("seed, d", [(1, 2), (2, 2), (3, 2), (4, 3), (5, 3), (6, 3)])
    def test_random_cores_and_windings(self, seed, d, cone):
        # at s = 2.6 an inverted Lambda_s left the tail of seeds 3-6 off
        # Hermitian; a limit-cycle phase needs no inverse
        fam, core = random_floquet(seed, d)
        search = asymptotics.default_search(core, grid_n=400)
        self.assert_paths_agree(fam, cone, (0.0, 0.3, 1.1, 2.6), search)

    @pytest.mark.parametrize("cone", ["CP", "PPT", "EB"])
    def test_core_without_limit_cycle(self, cone):
        fam, core = rotating_dephasing()
        assert fam.closed_form.limit_cycle is None
        search = asymptotics.default_search(core, grid_n=400)
        rep = self.assert_paths_agree(fam, cone, (0.0, 0.5, 2.0), search)
        assert rep.details["tail_witness"] is None

    def test_positivity_cone_keeps_the_full_path(self):
        rep = divisibility.scan_divisibility(
            TestFloquet.family(), "P", s_grid=(0.0,),
            search=asymptotics.Search(t_max=4.0, grid_n=12),
        )
        assert rep.details == {}


class TestCoherenceCutoff:
    A = np.array([[1.0, 0.6], [0.6, 0.5]])

    def test_delta_pinned_at_cutoff(self):
        fam = families.pure_decoherence(a=self.A, cutoff=1.5)
        rep = divisibility.scan_divisibility(
            fam,
            "EB",
            s_grid=(0.3, 0.8),
            search=asymptotics.Search(t_max=6.0, grid_n=800),
        )
        assert rep.verdict == "certified"
        for d in rep.delta:
            assert d == pytest.approx(1.5, abs=1e-3)

    def test_start_past_cutoff_is_undecided(self):
        fam = families.pure_decoherence(a=self.A, cutoff=1.5)
        rep = divisibility.scan_divisibility(
            fam,
            "EB",
            s_grid=(0.3, 1.6),
            search=asymptotics.Search(t_max=6.0, grid_n=400),
        )
        assert rep.verdict == "undetermined"
        assert rep.delta[1] is None
        assert rep.certificates[1] == "singular"


class TestDefaultGridAndValidation:
    def test_default_grid_anchored_at_zero(self):
        grid = divisibility.default_s_grid(asymptotics.Search(t_max=40.0))
        assert grid[0] == 0.0
        assert grid[-1] == pytest.approx(20.0)
        assert len(grid) == 16
        assert np.all(np.diff(grid) > 0)

    def test_unknown_cone(self):
        with pytest.raises(ValueError):
            divisibility.scan_divisibility(families.eternal_nm(1.0), "QQ")


class TestImplicationChain:
    @staticmethod
    def report(cone, verdict, delta, s_grid=(0.0, 1.0)):
        return divisibility.DivisibilityReport(
            cone=cone,
            s_grid=tuple(s_grid),
            delta=tuple(delta),
            certificates=tuple("analytic_monotone" for _ in s_grid),
            verdict=verdict,
            shortcut_used="none",
        )

    def test_consistent_reports_pass(self):
        reports = {
            "EB": self.report("EB", "certified", (2.0, 3.0)),
            "CP": self.report("CP", "certified", (1.0, 2.0)),
        }
        out = divisibility.check_implication_chain(reports)
        assert out.consistent
        assert out.messages == ()

    def test_stronger_certified_weaker_refuted_flagged(self):
        reports = {
            "EB": self.report("EB", "certified", (2.0, 3.0)),
            "CP": self.report("CP", "refuted", (math.inf, math.inf)),
        }
        out = divisibility.check_implication_chain(reports)
        assert not out.consistent
        assert "refuted" in out.messages[0]

    def test_weaker_arriving_later_flagged(self):
        reports = {
            "EB": self.report("EB", "certified", (2.0, 2.0)),
            "CP": self.report("CP", "certified", (2.5, 2.0)),
        }
        out = divisibility.check_implication_chain(reports)
        assert not out.consistent
        assert "later" in out.messages[0]

    def test_slack_suppresses_numerical_jitter(self):
        reports = {
            "EB": self.report("EB", "certified", (2.0, 2.0)),
            "CP": self.report("CP", "certified", (2.0 + 1e-9, 2.0)),
        }
        assert divisibility.check_implication_chain(reports).consistent

    def test_none_and_inf_entries_skipped_in_delta_comparison(self):
        reports = {
            "EB": self.report("EB", "certified", (2.0, None)),
            "CP": self.report("CP", "undetermined", (None, 5.0)),
        }
        assert divisibility.check_implication_chain(reports).consistent


class TestPropagatorTail:
    def test_no_tail_from_a_start_that_counts_as_singular(self):
        """A decayed ``ode`` Lambda_s is not exactly singular, so a bare inverse
        would give a tail; past SINGULAR_COND_LIMIT, as on the inversion route,
        there is none, and the start time scans as singular."""
        handle = evolve.EvolutionHandle(oscillating_gkls())
        search = asymptotics.Search(t_max=120.0)
        s = 40.0
        assert handle.solver == "ode"
        assert np.linalg.cond(handle.solve(s).matrix) > tolerances.SINGULAR_COND_LIMIT
        assert asymptotics._tail(handle, "PPT", s, search.t_max) == (None, None)
        rep = divisibility.scan_divisibility(handle, "PPT", s_grid=[s], search=search)
        assert (rep.delta, rep.certificates) == ((None,), ("singular",))

    def test_an_invertible_start_keeps_the_inverse(self):
        fam, _ = cli.load_config(os.path.join(CONFIG_DIR, "detailed_balance_ladder.ini"))
        handle = evolve.EvolutionHandle(fam)
        search = asymptotics.default_search(handle)
        limit = asymptotics._one_phase(
            asymptotics.asymptotic_map(fam, handle=handle, horizon=search.t_max))
        for s in (0.0, 0.8, 3.0):
            # Lambda_inf o Lambda_s^-1 by one solve, as on the inversion route;
            # at s = 0 there is no inversion
            lam_s = handle.solve(s).matrix
            tail = limit.matrix if s == 0.0 else np.linalg.solve(lam_s.T, limit.matrix.T).T
            want = float(asymptotics.cone_witnesses(tail[None], 3, "PPT")[0])
            assert asymptotics._tail(handle, "PPT", s, search.t_max) == (
                want, "asymptotic_interior")


def test_depolarizing_chain_consistency_end_to_end():
    fam = families.depolarizing(1.0, np.eye(3) / 3)
    handle = evolve.EvolutionHandle(fam)
    reports = {
        cone: divisibility.scan_divisibility(handle, cone, s_grid=(0.0, 0.5, 1.5))
        for cone in ("CP", "PPT", "EB")
    }
    chain = divisibility.check_implication_chain(reports)
    assert chain.consistent, chain.messages
    # CP from the start, PPT after log(4), EB tracking the PPT witness
    assert reports["CP"].delta[0] == pytest.approx(0.0, abs=1e-9)
    assert reports["PPT"].delta[0] == pytest.approx(math.log(4.0), abs=1e-6)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), d=st.integers(2, 3), n_jumps=st.integers(1, 3),
       with_hamiltonian=st.booleans(),
       s_grid=st.lists(st.floats(0.0, 2.0), min_size=1, max_size=3, unique=True).map(sorted))
def test_implication_chain_holds_on_random_gkls_semigroups(seed, d, n_jumps, with_hamiltonian,
                                                           s_grid):
    # constant generators only: time-dependent draws hit the known defect of
    # the numeric asymptotic limit (asymptotics._numeric_limit)
    rng = np.random.default_rng(seed)
    family = random_gkls_family(rng, d, n_jumps=n_jumps, with_hamiltonian=with_hamiltonian)
    handle = evolve.EvolutionHandle(family)
    reports = {cone: divisibility.scan_divisibility(handle, cone, s_grid=tuple(s_grid))
               for cone in ("CP", "PPT", "EB")}
    chain = divisibility.check_implication_chain(reports)
    assert chain.consistent, chain.messages
