"""Seeded inputs, analyses and output checks of the benchmark's workloads.

A workload is a list of groups.  A group holds the analyses that share
state, the way a user would run them: the four cone arrivals of one family
share one ``EvolutionHandle``, the divisibility scans of one family share
one handle, and the two CLI commands of one config share the config file.
``start`` makes the group's state afresh on every pass, so no cache carries
over between passes.  Each analysis returns ``(value, outcome)``; the
outcome is ``"ok"`` or the name of an expected outcome, and any exception
it raises makes it a failed analysis.  ``finish`` runs after the group's
analyses, untimed, and ``check`` judges one pass of the group afterwards.

The library only ever receives the generated inputs: the seed stays here.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.linalg

from ebdyn import asymptotics, cli, divisibility, evolve, families
from ebdyn.errors import NotReachedError

ARRIVAL_CONES = ("CP", "coCP", "PPT", "EB")
DIVISIBILITY_CONES = ("CP", "PPT", "EB")
# indices into divisibility.default_s_grid (16 points), from the start
# s = 0 to the top of the geometric grid, s = t_max / 2
S_INDICES = (0, 4, 8, 12, 15)
ARRIVAL_GRID = 500
DIVISIBILITY_GRID = 100
# fixed horizons of the time-dependent divisibility families, near the
# median of what default_search gives them
TD_PAULI_HORIZON = 12.0
TD_GKLS_HORIZON = 24.0
# The time-dependent GKLS of the divisibility workload is one fixed
# instance, whatever the seed.  Whether the scans of such a family pass the
# Hermiticity check of their Choi matrices depends on the parameters, and a
# scan that fails costs about a hundredth of one that completes, so a
# seeded draw made the length of a pass bimodal across seeds.  Like most
# draws, this instance fails all 15 of its scans with NotHermitianError, the
# known defect, in every run.
TD_GKLS_SEED = 2
CLASSIFY_DIMS = (4, 5, 6, 7, 8)
# times per `classify` call on a generated config (the CLI default is 25)
CLASSIFY_POINTS = 10
SHIPPED_CONFIGS = (
    "depolarizing_qutrit", "detailed_balance_ladder", "diagonally_covariant",
    "eternal", "floquet_rotating", "gkls_damped_qubit", "pauli_isotropic",
    "phase_covariant", "pure_decoherence_cutoff",
)
# closed-form arrival times are checked to this tolerance, as in
# `ebdyn reproduce`
CLOSED_FORM_TOL = 5e-6
# slack of the cone-order check tau_CP, tau_coCP <= tau_PPT <= tau_EB
ORDER_SLACK = 1e-6
# recomputed minimum Choi eigenvalues must match the CLI output to this
EIG_ATOL = 1e-8
# floats of shipped-config outputs must match the recorded reference to
# |got - want| <= REF_ATOL + REF_RTOL * |want|
REF_ATOL = 1e-9
REF_RTOL = 1e-9
# the library's default cone-membership tolerance (tolerances.PSD_TOL)
PSD_TOL = 1e-9

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_DIR = os.path.join(HERE, "reference")


@dataclass
class Group:
    label: str
    kind: str
    d: int
    start: Callable[[], object]
    analyses: list  # (name, fn(state) -> (value, outcome))
    check: Callable  # (results, finished) -> list of problems
    finish: Callable | None = None  # (state, results) -> finished


# ---------------------------------------------------------------------------
# random building blocks


def _herm(rng, d, scale=1.0):
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return scale * (a + a.conj().T) / 2.0


def _op(rng, d, scale=1.0):
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return scale * a / math.sqrt(2.0 * d)


def _unitary(rng, d):
    q, r = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _state(rng, d):
    """Full-rank state with eigenvalue ratios at most 3, in a random basis."""
    p = rng.uniform(1.0, 3.0, d)
    p /= p.sum()
    u = _unitary(rng, d)
    w = (u * p) @ u.conj().T
    return (w + w.conj().T) / 2.0


def _psd(rng, d, scale=1.0):
    b = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    a = scale * (b @ b.conj().T) / d
    return (a + a.conj().T) / 2.0


def _ladder(rng, d):
    """Energies, lowering jumps |k-1><k| and their Bohr frequencies."""
    energies = np.concatenate([[0.0], np.cumsum(rng.uniform(0.5, 1.5, d - 1))])
    jumps = []
    for k in range(1, d):
        v = np.zeros((d, d), dtype=complex)
        v[k - 1, k] = rng.uniform(0.5, 1.0)
        jumps.append((v, float(energies[k] - energies[k - 1])))
    return energies, jumps


def _transfer_rates(rng, d):
    b = rng.uniform(0.1, 0.5, (d, d))
    np.fill_diagonal(b, 0.0)
    return b


def _oscillating_rate(g0, amp, freq):
    return lambda t: g0 * (1.0 + amp * math.sin(freq * t))


# parameter ranges of the time-dependent families: (rate, amplitude,
# frequency).  The ODE solver's step count grows with the frequency and the
# horizon, so the divisibility workload draws from narrow ranges and fixes
# the horizon: every seed then costs about the same number of steps.
TD_PAULI_WIDE = ((0.2, 0.8), (0.2, 0.6), (0.5, 2.0))
TD_PAULI_NARROW = ((0.4, 0.6), (0.3, 0.5), (0.9, 1.1))
TD_GKLS_WIDE = ((0.3, 1.0), (0.2, 0.8), (0.5, 2.0))
TD_GKLS_NARROW = ((0.5, 0.8), (0.4, 0.6), (0.9, 1.1))


def _td_pauli(rng, ranges=TD_PAULI_WIDE):
    (g_lo, g_hi), (a_lo, a_hi), (f_lo, f_hi) = ranges
    rates = [
        _oscillating_rate(rng.uniform(g_lo, g_hi), rng.uniform(a_lo, a_hi),
                          rng.uniform(f_lo, f_hi))
        for _ in range(3)
    ]
    return families.pauli_channel(rates)


def _td_gkls(rng, d, ranges=TD_GKLS_WIDE):
    """Non-commuting GKLS: a constant and an oscillating jump channel."""
    (g_lo, g_hi), (a_lo, a_hi), (f_lo, f_hi) = ranges
    return families.gkls(
        _herm(rng, d, 0.5),
        [
            (_op(rng, d), rng.uniform(g_lo, g_hi)),
            (_op(rng, d), _oscillating_rate(rng.uniform(g_lo, g_hi),
                                            rng.uniform(a_lo, a_hi),
                                            rng.uniform(f_lo, f_hi))),
        ],
    )


def _const_gkls(rng, d):
    return families.gkls(
        _herm(rng, d, 0.5),
        [(_op(rng, d), rng.uniform(0.3, 1.0)) for _ in range(2)],
    )


def _detailed_balance(rng, d):
    energies, jumps = _ladder(rng, d)
    return families.detailed_balance(np.diag(energies), jumps, rng.uniform(0.3, 1.2))


def _diag_cov(rng, d):
    return families.diagonally_covariant(
        list(np.sort(rng.uniform(0.0, 2.0, d))),
        _psd(rng, d, 0.8),
        _transfer_rates(rng, d),
    )


def _floquet_rotating(period, amp_down, amp_up):
    """The shipped floquet_rotating family with other parameters."""
    w0 = 2.0 * math.pi / period
    k = np.array([1.0, -1.0])

    def p_of_t(t):
        return np.diag(np.exp(-1j * w0 * t * k))

    def dp_of_t(t):
        return np.diag(-1j * w0 * k * np.exp(-1j * w0 * t * k))

    core = families.gkls(
        np.zeros((2, 2), dtype=complex),
        [(np.array([[0, amp_down], [0, 0]], dtype=complex), 1.0),
         (np.array([[0, 0], [amp_up, 0]], dtype=complex), 1.0)],
    )
    return families.floquet_product(p_of_t, period, core, dp_of_t=dp_of_t)


# ---------------------------------------------------------------------------
# arrival


def _arrival_analysis(cone, search):
    def run(handle):
        try:
            res = asymptotics.arrival_time(handle, cone, search=search)
        except NotReachedError:
            return ("not_reached",), "not_reached"
        value = (res.tau, res.bracket, res.retention_certificate)
        return value, ("ok" if res.tau is not None else "transient")
    return run


def _arrival_check(exact):
    """Closed forms where they exist, and tau_CP, tau_coCP <= tau_PPT <= tau_EB."""
    def check(results, _finished):
        problems = []
        taus = {}
        for r in results:
            if r.failure is None:
                taus[r.name] = r.value[0]
        for cone, want in exact.items():
            got = taus.get(cone)
            if not isinstance(got, float) or abs(got - want) > CLOSED_FORM_TOL:
                problems.append(f"{cone}: arrival {got!r} vs closed form {want!r}")
        for weak, strong in (("CP", "PPT"), ("coCP", "PPT"), ("PPT", "EB")):
            tw, ts = taus.get(weak), taus.get(strong)
            if tw is None or ts is None:
                continue
            if tw == "not_reached" and ts != "not_reached":
                problems.append(f"{weak} not reached but {strong} reached at {ts}")
            elif (isinstance(tw, float) and isinstance(ts, float)
                  and tw > ts + ORDER_SLACK):
                problems.append(f"tau_{weak}={tw:.9f} > tau_{strong}={ts:.9f}")
        return problems
    return check


def _arrival_group(label, family, exact=None):
    search = asymptotics.default_search(family, grid_n=ARRIVAL_GRID)
    return Group(
        label=label,
        kind=family.kind,
        d=family.d,
        start=lambda: evolve.EvolutionHandle(family),
        analyses=[(cone, _arrival_analysis(cone, search)) for cone in ARRIVAL_CONES],
        check=_arrival_check(exact or {}),
    )


def build_arrival(seed):
    rng = np.random.default_rng(seed)
    groups = []
    for copy in ("a", "b"):
        fam = families.depolarizing(rng.uniform(0.5, 2.0), _state(rng, 2))
        groups.append(_arrival_group(
            f"depolarizing/d2{copy}", fam, {"PPT": fam.closed_form.ppt_arrival_time}))
        gamma = rng.uniform(0.2, 1.0)
        # equal rates make the map depolarizing at 4 gamma: EB (= PPT) at
        # ln 3 / (4 gamma)
        want = math.log(3.0) / (4.0 * gamma)
        groups.append(_arrival_group(
            f"pauli_equal/d2{copy}", families.pauli_channel((gamma, gamma, gamma)),
            {"PPT": want, "EB": want}))
        groups.append(_arrival_group(
            f"pauli/d2{copy}", families.pauli_channel(tuple(rng.uniform(0.2, 1.0, 3)))))
        groups.append(_arrival_group(
            f"phase_covariant/d2{copy}", families.phase_covariant(
                rng.uniform(0.2, 1.5), rng.uniform(0.2, 1.0), rng.uniform(0.2, 1.0),
                rng.uniform(0.05, 0.5))))
        groups.append(_arrival_group(
            f"eternal_nm/d2{copy}", families.eternal_nm(rng.uniform(1.0, 3.0))))
        groups.append(_arrival_group(f"pauli_td/d2{copy}", _td_pauli(rng)))
        groups.append(_arrival_group(f"gkls/d2{copy}", _const_gkls(rng, 2)))
        groups.append(_arrival_group(f"gkls_td/d2{copy}", _td_gkls(rng, 2)))
    for d in (3, 4):
        fam = families.depolarizing(rng.uniform(0.5, 2.0), _state(rng, d))
        groups.append(_arrival_group(
            f"depolarizing/d{d}", fam, {"PPT": fam.closed_form.ppt_arrival_time}))
        groups.append(_arrival_group(f"gkls/d{d}", _const_gkls(rng, d)))
        groups.append(_arrival_group(f"detailed_balance/d{d}", _detailed_balance(rng, d)))
        groups.append(_arrival_group(f"diagonally_covariant/d{d}", _diag_cov(rng, d)))
    groups.append(_arrival_group("gkls_td/d3", _td_gkls(rng, 3)))
    return groups


# ---------------------------------------------------------------------------
# divisibility


def _divisibility_analysis(cone, s, search):
    def run(handle):
        rep = divisibility.scan_divisibility(handle, cone, s_grid=[s], search=search)
        if rep.verdict == "certified":
            return rep, "ok"
        return rep, f"{rep.verdict}:{rep.certificates[0]}"
    return run


def _divisibility_chains(_handle, results):
    """check_implication_chain over the three cones at each start time."""
    by_s = {}
    for r in results:
        if r.failure is None:
            s, cone = r.name
            by_s.setdefault(s, {})[cone] = r.value
    return {
        s: divisibility.check_implication_chain(reports)
        for s, reports in by_s.items()
    }


def _divisibility_check(results, chains):
    problems = []
    for s, chain in chains.items():
        if not chain.consistent:
            problems.append(f"s={s:g}: " + "; ".join(chain.messages))
    return problems


def _divisibility_group(label, family, search):
    s_grid = divisibility.default_s_grid(search)
    analyses = [
        ((float(s_grid[i]), cone), _divisibility_analysis(cone, float(s_grid[i]), search))
        for i in S_INDICES
        for cone in DIVISIBILITY_CONES
    ]
    return Group(
        label=label,
        kind=family.kind,
        d=family.d,
        start=lambda: evolve.EvolutionHandle(family),
        analyses=analyses,
        check=_divisibility_check,
        finish=_divisibility_chains,
    )


def shipped_config_path(root, name):
    return os.path.join(root, "configs", f"{name}.ini")


def build_divisibility(seed, workdir, root):
    rng = np.random.default_rng(seed)
    groups = []
    horizon = {}
    for name in ("floquet_rotating", "eternal", "pure_decoherence_cutoff"):
        family, analysis = cli.load_config(shipped_config_path(root, name))
        search = asymptotics.default_search(
            family, t_max=analysis.get("tmax"), grid_n=DIVISIBILITY_GRID)
        horizon[name] = search.t_max
        groups.append(_divisibility_group(f"{name}/shipped", family, search))

    # the seeded variants keep the shipped horizon and stay near the shipped
    # parameters, so the same start times are refuted by the tail (eternal)
    # or lie past the cutoff (pure decoherence) for every seed
    variants = [
        ("floquet_rotating/seeded", horizon["floquet_rotating"], _floquet_rotating(
            rng.uniform(1.5, 2.5), rng.uniform(0.7, 1.1), rng.uniform(0.2, 0.4))),
        ("eternal/seeded", horizon["eternal"], families.eternal_nm(rng.uniform(1.8, 2.2))),
        ("pure_decoherence_cutoff/seeded", horizon["pure_decoherence_cutoff"],
         families.pure_decoherence(h=list(np.sort(rng.uniform(0.0, 2.5, 3))),
                                   a=_psd(rng, 3, 1.0), cutoff=rng.uniform(3.0, 5.0))),
        ("pauli_td/d2", TD_PAULI_HORIZON, _td_pauli(rng, TD_PAULI_NARROW)),
        ("gkls_td/d2", TD_GKLS_HORIZON,
         _td_gkls(np.random.default_rng(TD_GKLS_SEED), 2, TD_GKLS_NARROW)),
    ]
    for label, t_max, family in variants:
        search = asymptotics.default_search(family, t_max=t_max, grid_n=DIVISIBILITY_GRID)
        groups.append(_divisibility_group(label, family, search))
    return groups


# ---------------------------------------------------------------------------
# classify (the CLI, in process)


class CliFailure(Exception):
    """``cli.main`` returned a non-zero exit code."""


def _fmt_number(z):
    z = complex(z)
    if z.imag == 0.0:
        return repr(z.real)
    sign = "+" if z.imag >= 0.0 else "-"
    return f"{z.real!r}{sign}{abs(z.imag)!r}j"


def _fmt_matrix(m):
    return "; ".join(" ".join(_fmt_number(x) for x in row) for row in np.asarray(m))


def _fmt_vector(v):
    return " ".join(repr(float(x)) for x in v)


def _config_text(kind, rng, d):
    lines = ["[family]", f"kind = {kind}"]
    if kind == "depolarizing":
        lines += [f"gamma = {rng.uniform(0.5, 2.0)!r}", f"omega = {_fmt_matrix(_state(rng, d))}"]
    elif kind == "gkls":
        lines.append(f"hamiltonian = {_fmt_matrix(_herm(rng, d, 0.5))}")
        for k in (1, 2):
            lines.append(f"lindblad{k} = {_fmt_matrix(_op(rng, d))}")
    elif kind == "detailed_balance":
        energies, jumps = _ladder(rng, d)
        lines += [f"hamiltonian = {_fmt_matrix(np.diag(energies))}",
                  f"beta = {rng.uniform(0.3, 1.2)!r}"]
        for k, (v, w) in enumerate(jumps, start=1):
            lines += [f"jump{k} = {_fmt_matrix(v)}", f"freq{k} = {w!r}"]
    elif kind == "diagonally_covariant":
        lines += [f"h = {_fmt_vector(np.sort(rng.uniform(0.0, 2.0, d)))}",
                  f"a = {_fmt_matrix(_psd(rng, d, 0.8))}",
                  f"b = {_fmt_matrix(_transfer_rates(rng, d))}"]
    elif kind == "pure_decoherence":
        lines += [f"h = {_fmt_vector(np.sort(rng.uniform(0.0, 2.0, d)))}",
                  f"a = {_fmt_matrix(_psd(rng, d, 0.8))}"]
    lines += ["[analysis]", f"points = {CLASSIFY_POINTS}"]
    return "\n".join(lines) + "\n"


GENERATED_KINDS = (
    "depolarizing", "gkls", "detailed_balance", "diagonally_covariant", "pure_decoherence",
)


def _cli_analysis(command, config, out_path):
    def run(_state):
        code = cli.main([command, "--config", config, "--out", out_path])
        if code != 0:
            raise CliFailure(f"{command} exited with code {code}")
        with open(out_path, "rb") as fh:
            return fh.read(), "ok"
    return run


def _choi(s, d):
    """Choi matrix by a single reshape of the column-stacked map matrix."""
    return s.reshape(d, d, d, d).transpose(3, 1, 2, 0).reshape(d * d, d * d)


def _min_eigs(s, d):
    c = _choi(s, d)
    pt = c.reshape(d, d, d, d).transpose(0, 3, 2, 1).reshape(d * d, d * d)
    return np.linalg.eigvalsh(c)[0], np.linalg.eigvalsh(pt)[0]


def _compare_reference(got, want, path=""):
    """Discrete fields equal, floats within REF_ATOL + REF_RTOL * |want|."""
    if isinstance(want, float) and isinstance(got, (int, float)) and not isinstance(got, bool):
        if abs(got - want) > REF_ATOL + REF_RTOL * abs(want):
            return [f"{path}: {got!r} vs reference {want!r}"]
        return []
    if isinstance(want, dict) and isinstance(got, dict):
        if set(want) != set(got):
            return [f"{path}: keys {sorted(got)} vs reference {sorted(want)}"]
        return [p for k in want for p in _compare_reference(got[k], want[k], f"{path}.{k}")]
    if isinstance(want, list) and isinstance(got, list):
        if len(want) != len(got):
            return [f"{path}: {len(got)} entries vs reference {len(want)}"]
        return [p for i, (g, w) in enumerate(zip(got, want))
                for p in _compare_reference(g, w, f"{path}[{i}]")]
    if got != want:
        return [f"{path}: {got!r} vs reference {want!r}"]
    return []


def _classify_check(config, reference):
    """Recompute witnesses independently; compare shipped configs to the reference."""
    def check(results, _finished):
        family, _analysis = cli.load_config(config)
        d = family.d
        if family.constant:
            gen = family.generator_matrix(0.0)

            def map_at(t):
                return scipy.linalg.expm(t * gen)
        else:
            handle = evolve.EvolutionHandle(family)

            def map_at(t):
                return handle.solve(t).matrix
        problems = []
        for r in results:
            if r.failure is not None:
                continue
            out = json.loads(r.value)
            tag = os.path.basename(config) + " " + r.name
            if r.name == "classify":
                rows = [(f"t={row['t']!r}", row["min_eig_choi"], row["min_eig_choi_pt"],
                         row["is_ppt"], row["eb_status"], map_at(row["t"]))
                        for row in out["rows"]]
            else:
                base = map_at(out["t"])
                rows = [(f"k={row['k']}", row["witness_choi"], row["witness_pt"],
                         None, row["eb_status"], np.linalg.matrix_power(base, row["k"]))
                        for row in out["rows"]]
            for where, w_choi, w_pt, is_ppt, eb_status, s in rows:
                c_min, pt_min = _min_eigs(s, d)
                if abs(c_min - w_choi) > EIG_ATOL or abs(pt_min - w_pt) > EIG_ATOL:
                    problems.append(
                        f"{tag} {where}: witnesses ({w_choi:.12g}, {w_pt:.12g}) "
                        f"vs recomputed ({c_min:.12g}, {pt_min:.12g})")
                ppt = min(w_choi, w_pt) >= -PSD_TOL
                if is_ppt is not None and is_ppt != ppt:
                    problems.append(f"{tag} {where}: is_ppt disagrees with the witnesses")
                if eb_status == "EB_certified" and not ppt:
                    problems.append(f"{tag} {where}: EB_certified but not PPT")
            if reference is not None:
                problems += _compare_reference(out, reference[r.name], tag)
        return problems
    return check


def _classify_group(label, config, d, kind, workdir, reference=None):
    stem = os.path.join(workdir, label.replace("/", "_"))
    return Group(
        label=label,
        kind=kind,
        d=d,
        start=lambda: None,
        analyses=[(cmd, _cli_analysis(cmd, config, f"{stem}.{cmd}.json"))
                  for cmd in ("classify", "ppt2")],
        check=_classify_check(config, reference),
    )


def load_reference(name):
    out = {}
    for cmd in ("classify", "ppt2"):
        with open(os.path.join(REFERENCE_DIR, f"{name}.{cmd}.json"), encoding="utf-8") as fh:
            out[cmd] = json.load(fh)
    return out


def build_classify(seed, workdir, root):
    rng = np.random.default_rng(seed)
    groups = []
    for copy in ("a", "b"):
        for d in CLASSIFY_DIMS:
            for kind in GENERATED_KINDS:
                path = os.path.join(workdir, f"{kind}_d{d}{copy}.ini")
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(_config_text(kind, rng, d))
                groups.append(_classify_group(f"{kind}/d{d}{copy}", path, d, kind, workdir))
    for name in SHIPPED_CONFIGS:
        path = shipped_config_path(root, name)
        family, _ = cli.load_config(path)
        groups.append(_classify_group(
            f"{name}/shipped", path, family.d, family.kind, workdir, load_reference(name)))
    return groups


def digest(value):
    """What must repeat exactly when the same analysis runs again."""
    if isinstance(value, divisibility.DivisibilityReport):
        return (value.verdict, value.shortcut_used, value.s_grid, value.delta,
                value.certificates)
    return value


WORKLOADS = {
    "arrival": lambda seed, workdir, root: build_arrival(seed),
    "divisibility": build_divisibility,
    "classify": build_classify,
}
