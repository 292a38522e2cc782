"""Command line front end.

Families are described by small INI files and analyzed by subcommand:

    ebdyn classify     --config model.ini [--times "0 0.5 1"]
    ebdyn arrival      --config model.ini [--cones "CP PPT EB"]
    ebdyn divisibility --config model.ini [--cones "CP PPT EB"]
    ebdyn ppt2         --config model.ini [--t 1.0] [--kmax 8]
    ebdyn reproduce
    ebdyn list-families

Output is deterministic: identical inputs give byte-identical output (keys
sorted, no timestamps), so results can be diffed across runs and machines.

Exit codes: 0 success, 1 configuration problem, 2 numerical failure,
3 consistency failure (a reproduction check or an implication-chain check
did not hold).

Heavy imports happen inside the command handlers so that ``--threads`` can
pin the BLAS thread count before the numerics are loaded.
"""

from __future__ import annotations

import argparse
import cmath
import configparser
import functools
import json
import math
import os
import sys

from .errors import (
    ConfigError,
    EbdynError,
    IntegrationFailureError,
    NoConvergenceError,
    NotReachedError,
    SingularMapError,
)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERICS = 2
EXIT_CONSISTENCY = 3

_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


# ---------------------------------------------------------------------------
# config parsing

_ANALYSIS_KEYS = {
    "tmax", "tol", "grid_n", "bisect_tol", "cones", "times", "points",
    "s_grid", "t", "kmax",
}

# per-kind section schemas: fixed keys and numbered key prefixes (jump1, ...)
_FAMILY_SCHEMAS = {
    "gkls": (set(), {"hamiltonian"}, ("lindblad",)),
    "pauli": ({"gamma1", "gamma2", "gamma3"}, set(), ()),
    "eternal_nm": ({"alpha"}, set(), ()),
    "phase_covariant": (
        {"gamma_plus", "gamma_minus", "gamma_z"}, {"omega_freq"}, (),
    ),
    "depolarizing": ({"gamma", "omega"}, set(), ()),
    "detailed_balance": ({"hamiltonian", "beta"}, set(), ("jump", "freq")),
    "floquet_product": (
        {"period", "winding"}, {"core_hamiltonian"}, ("core_lindblad",),
    ),
    "pure_decoherence": ({"a"}, {"h", "cutoff"}, ()),
    "diagonally_covariant": ({"a", "b"}, {"h"}, ()),
}

_FAMILY_NOTES = {
    "gkls": "constant generator from a Hamiltonian and jump operators",
    "pauli": "qubit Pauli rates gamma1..gamma3 (constant in config files)",
    "eternal_nm": "qubit with one eternally negative rate, parameter alpha",
    "phase_covariant": "qubit absorption/emission/dephasing semigroup",
    "depolarizing": "relaxation toward a fixed state omega at rate gamma",
    "detailed_balance": "thermal generator; jumpK + freqK pairs, inverse "
                        "temperature beta",
    "floquet_product": "periodic frame (integer-spectrum winding matrix) "
                       "around a constant gkls core",
    "pure_decoherence": "entrywise dephasing from a psd rate matrix a, "
                        "optional coherence cutoff",
    "diagonally_covariant": "dephasing plus classical population transfer "
                            "rates b",
}


def _finite(value, what, text):
    if not cmath.isfinite(value):  # nan and inf parse as numbers
        raise ConfigError(f"{what}: expected a finite number, got {text!r}")
    return value


def _parse_scalar(text, what, *, positive=False, integer=False):
    try:
        value = int(text) if integer else _finite(float(text), what, text)
    except ValueError:
        raise ConfigError(f"{what}: expected a number, got {text!r}") from None
    if positive and value <= 0:
        raise ConfigError(f"{what}: must be positive, got {value!r}")
    return value


def _parse_vector(text, what):
    out = []
    for tok in text.split():
        try:
            out.append(_finite(float(tok), what, tok))
        except ValueError:
            raise ConfigError(f"{what}: bad entry {tok!r}") from None
    if not out:
        raise ConfigError(f"{what}: empty vector")
    return out


def _parse_matrix(text, what):
    import numpy as np

    rows = [r for r in (part.strip() for part in text.split(";")) if r]
    data = []
    for r in rows:
        entries = []
        for tok in r.split():
            try:
                entries.append(_finite(complex(tok), what, tok))
            except ValueError:
                raise ConfigError(f"{what}: bad entry {tok!r}") from None
        data.append(entries)
    if not data:
        raise ConfigError(f"{what}: empty matrix")
    width = len(data[0])
    if any(len(r) != width for r in data):
        raise ConfigError(f"{what}: rows have unequal lengths")
    return np.array(data, dtype=complex)


def _numbered(section, prefix, what):
    """Values for prefix1, prefix2, ... in order, rejecting gaps."""
    found = {}
    for key in section:
        if key.startswith(prefix) and key[len(prefix):].isdigit():
            found[int(key[len(prefix):])] = section[key]
    if not found:
        return []
    top = max(found)
    if set(found) != set(range(1, top + 1)):
        raise ConfigError(f"{what}: {prefix}K keys must be numbered 1..{top} "
                          "without gaps")
    return [found[k] for k in range(1, top + 1)]


def load_config(path):
    """Parse an INI file into (family, analysis-options dict)."""
    parser = configparser.ConfigParser()
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh)
        sections = {name: dict(parser[name]) for name in parser.sections()}
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config {path!r} is not UTF-8 text: {exc}") from None
    except configparser.Error as exc:
        raise ConfigError(f"malformed config {path!r}: {exc}") from None
    if "family" not in sections:
        raise ConfigError("config needs a [family] section")
    extra = set(sections) - {"family", "analysis"}
    if extra:
        raise ConfigError(f"unknown config sections: {', '.join(sorted(extra))}")
    family = _build_family(sections["family"])
    analysis = _read_analysis(sections.get("analysis", {}))
    return family, analysis


def _read_analysis(section):
    unknown = set(section) - _ANALYSIS_KEYS
    if unknown:
        raise ConfigError(f"unknown [analysis] keys: {', '.join(sorted(unknown))}")
    opts = {}
    for key in ("tmax", "tol", "bisect_tol", "grid_n", "points", "t", "kmax"):
        if key in section:
            opts[key] = _parse_scalar(section[key], key, positive=True,
                                      integer=key in ("grid_n", "points", "kmax"))
            if key == "grid_n" and opts[key] < 16:
                raise ConfigError("grid_n: need at least 16 points")
    if "cones" in section:
        opts["cones"] = _parse_cones(section["cones"])
    for key in ("times", "s_grid"):
        if key in section:
            opts[key] = _parse_vector(section[key], key)
            if any(t < 0 for t in opts[key]):
                raise ConfigError(f"{key}: must be nonnegative")
    return opts


def _parse_cones(text):
    cones = text.split()
    valid = {"P", "CP", "coCP", "PPT", "EB"}
    for c in cones:
        if c not in valid:
            raise ConfigError(f"unknown cone {c!r} (choose from "
                              f"{', '.join(sorted(valid))})")
    if not cones:
        raise ConfigError("cones: empty list")
    return cones


def _build_family(section):
    import numpy as np

    kind = section.pop("kind", None)
    if kind is None:
        raise ConfigError("[family] needs a kind")
    if kind not in _FAMILY_SCHEMAS:
        raise ConfigError(f"unknown family kind {kind!r} (run list-families)")
    required, optional, prefixes = _FAMILY_SCHEMAS[kind]
    declared_d = None
    if "d" in section:
        declared_d = _parse_scalar(section.pop("d"), "d", positive=True,
                                   integer=True)
    keys = set(section)
    missing = required - keys
    if missing:
        raise ConfigError(f"{kind}: missing keys: {', '.join(sorted(missing))}")
    recognized = required | optional
    for key in keys - recognized:
        if not any(key.startswith(p) and key[len(p):].isdigit()
                   for p in prefixes):
            raise ConfigError(f"{kind}: unknown key {key!r}")

    builder = globals()[f"_family_{kind}"]
    try:
        family = builder(section)
    except EbdynError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{kind}: {exc}") from None
    if declared_d is not None and declared_d != family.d:
        raise ConfigError(f"{kind}: declared d={declared_d} but the matrices "
                          f"give d={family.d}")
    if not 2 <= family.d <= 8:
        raise ConfigError(f"dimension d={family.d} outside the supported "
                          "range 2..8")
    if not np.isfinite(family.generator_matrix(0.0)).all():
        raise ConfigError(f"{kind}: the generator overflows the float range")
    return family


def _family_gkls(section):
    import numpy as np

    from . import families

    lindblads = [_parse_matrix(v, "lindblad") for v in
                 _numbered(section, "lindblad", "gkls")]
    if "hamiltonian" in section:
        h = _parse_matrix(section["hamiltonian"], "hamiltonian")
    elif lindblads:
        h = np.zeros_like(lindblads[0])
    else:
        raise ConfigError("gkls: need a hamiltonian or at least one lindblad")
    # rates are folded into the operator normalization in config files
    return families.gkls(h, [(v, 1.0) for v in lindblads])


def _family_pauli(section):
    from . import families

    rates = tuple(_parse_scalar(section[f"gamma{k}"], f"gamma{k}")
                  for k in (1, 2, 3))
    return families.pauli_channel(rates)


def _family_eternal_nm(section):
    from . import families

    return families.eternal_nm(_parse_scalar(section["alpha"], "alpha",
                                             positive=True))


def _family_phase_covariant(section):
    from . import families

    return families.phase_covariant(
        _parse_scalar(section.get("omega_freq", "0"), "omega_freq"),
        _parse_scalar(section["gamma_plus"], "gamma_plus"),
        _parse_scalar(section["gamma_minus"], "gamma_minus"),
        _parse_scalar(section["gamma_z"], "gamma_z"),
    )


def _family_depolarizing(section):
    from . import families

    return families.depolarizing(
        _parse_scalar(section["gamma"], "gamma", positive=True),
        _parse_matrix(section["omega"], "omega"),
    )


def _family_detailed_balance(section):
    from . import families

    vs = [_parse_matrix(v, "jump") for v in
          _numbered(section, "jump", "detailed_balance")]
    ws = [_parse_scalar(v, "freq") for v in
          _numbered(section, "freq", "detailed_balance")]
    if not vs:
        raise ConfigError("detailed_balance: need at least one jump operator")
    if len(vs) != len(ws):
        raise ConfigError("detailed_balance: jumpK and freqK counts differ")
    return families.detailed_balance(
        _parse_matrix(section["hamiltonian"], "hamiltonian"),
        list(zip(vs, ws)),
        _parse_scalar(section["beta"], "beta"),
    )


def _family_floquet_product(section):
    import numpy as np

    from . import families, matcore

    period = _parse_scalar(section["period"], "period", positive=True)
    g = _parse_matrix(section["winding"], "winding")
    if not matcore.is_hermitian(g, tol=1e-10):
        raise ConfigError("floquet_product: winding matrix must be Hermitian")
    evals, u = np.linalg.eigh(g)
    k = np.round(evals)
    if float(np.abs(evals - k).max()) > 1e-9:
        raise ConfigError("floquet_product: winding matrix needs an integer "
                          "spectrum to close after one period")
    w0 = 2.0 * math.pi / period

    def p_of_t(t):
        return (u * np.exp(-1j * w0 * t * k)) @ u.conj().T

    def dp_of_t(t):
        return (u * (-1j * w0 * k * np.exp(-1j * w0 * t * k))) @ u.conj().T

    d = g.shape[0]
    lindblads = [_parse_matrix(v, "core_lindblad") for v in
                 _numbered(section, "core_lindblad", "floquet_product")]
    if "core_hamiltonian" in section:
        core_h = _parse_matrix(section["core_hamiltonian"], "core_hamiltonian")
    else:
        core_h = np.zeros((d, d), dtype=complex)
    core = families.gkls(core_h, [(v, 1.0) for v in lindblads])
    return families.floquet_product(p_of_t, period, core, dp_of_t=dp_of_t)


def _family_pure_decoherence(section):
    from . import families

    h = _parse_vector(section["h"], "h") if "h" in section else None
    cutoff = (_parse_scalar(section["cutoff"], "cutoff", positive=True)
              if "cutoff" in section else None)
    return families.pure_decoherence(h=h,
                                     a=_parse_matrix(section["a"], "a"),
                                     cutoff=cutoff)


def _family_diagonally_covariant(section):
    from . import families

    a = _parse_matrix(section["a"], "a")
    b = _parse_matrix(section["b"], "b")
    h = (_parse_vector(section["h"], "h") if "h" in section
         else [0.0] * a.shape[0])
    return families.diagonally_covariant(h, a, b)


# ---------------------------------------------------------------------------
# output

def _emit(text, out_path):
    if not text.endswith("\n"):
        text += "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _json_text(value):
    """``value`` as JSON text, indented by two spaces with sorted keys.

    The text is the one ``json.dumps`` writes with that indent and sorted
    keys for the plain-Python copy of ``value``, without building the copy:
    dict keys are written as ``str(key)``, tuples and numpy arrays as lists,
    numpy booleans, integers and floats as Python ones, and the non-finite
    floats as the strings "inf", "-inf" and "nan".  Strings go through json's
    ASCII escaper and floats through ``float.__repr__``, as in ``json``.
    """
    import numpy as np

    quote = json.encoder.encode_basestring_ascii

    def number(x):
        text = float.__repr__(float(x))
        return f'"{text}"' if text in ("inf", "-inf", "nan") else text

    def boolean(x):
        return "true" if x else "false"

    def plain(x):
        # numpy scalars and subclasses of the JSON scalar types, as plain ones
        if isinstance(x, (np.bool_, bool)):
            return bool(x)
        if isinstance(x, (np.integer, int)):
            return int(x)
        if isinstance(x, (np.floating, float)):
            return float(x)
        if isinstance(x, str):
            return str.__str__(x)
        raise TypeError(f"Object of type {type(x).__name__} is not JSON serializable")

    scalars = {
        str: quote, float: number, int: int.__repr__, bool: boolean,
        type(None): lambda _: "null", np.float64: number, np.bool_: boolean,
    }
    out = []
    write = out.append

    def put(v, pad):
        # pad is the newline and indentation of v's own line
        text = scalars.get(type(v))
        if text is not None:
            write(text(v))
        elif isinstance(v, dict):
            if not v:
                write("{}")
                return
            inner = pad + "  "
            sep = "{" + inner
            for key, x in sorted({str(k): x for k, x in v.items()}.items()):
                write(f"{sep}{quote(key)}: ")
                put(x, inner)
                sep = "," + inner
            write(pad + "}")
        elif isinstance(v, (list, tuple, np.ndarray)):
            items = v.tolist() if isinstance(v, np.ndarray) else v
            if not len(items):
                write("[]")
                return
            inner = pad + "  "
            sep = "[" + inner
            for x in items:
                write(sep)
                put(x, inner)
                sep = "," + inner
            write(pad + "]")
        else:
            v = plain(v)
            write(scalars[type(v)](v))

    put(value, "\n")
    return "".join(out)


def _emit_json(payload, out_path):
    _emit(_json_text(payload), out_path)


def _csv_cell(value):
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        value = float(value)  # strip numpy scalar types, their repr differs
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        return repr(value)
    return str(value)


def _emit_csv(header, rows, out_path):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_csv_cell(row[h]) for h in header))
    _emit("\n".join(lines), out_path)


# ---------------------------------------------------------------------------
# subcommands

def _make_search(handle, args, analysis):
    from . import asymptotics

    return asymptotics.default_search(
        handle,
        t_max=args.tmax if args.tmax is not None else analysis.get("tmax"),
        grid_n=analysis.get("grid_n", 2000),
        bisect_tol=analysis.get("bisect_tol"),
    )


def _resolved_tol(args, analysis):
    if args.tol is not None:
        return args.tol
    return analysis.get("tol")


def _cmd_classify(args):
    import numpy as np

    from . import classify, evolve

    family, analysis = load_config(args.config)
    handle = evolve.EvolutionHandle(family)
    search = _make_search(handle, args, analysis)
    if args.times is not None:
        times = _parse_vector(args.times, "--times")
        if any(t < 0 for t in times):
            raise ConfigError("--times: must be nonnegative")
    elif "times" in analysis:
        times = analysis["times"]
    else:
        points = int(analysis.get("points", 25))
        times = list(np.linspace(0.0, search.t_max, points))
    times = [float(t) for t in times]
    reports = classify.classify_stack(handle._solve_grid(times), family.d,
                                      tol=_resolved_tol(args, analysis))
    rows = [
        {"t": t, "min_eig_choi": r.min_eig_choi, "min_eig_choi_pt": r.min_eig_choi_pt,
         "is_cp": r.is_cp, "is_cocp": r.is_cocp, "is_ppt": r.is_ppt,
         "eb_status": r.eb_status}
        for t, r in zip(times, reports)
    ]
    if args.format == "csv":
        _emit_csv(["t", "min_eig_choi", "min_eig_choi_pt", "is_cp", "is_cocp",
                   "is_ppt", "eb_status"], rows, args.out)
    else:
        _emit_json({"command": "classify", "kind": family.kind, "d": family.d,
                    "rows": rows}, args.out)
    return EXIT_OK


def _cmd_arrival(args):
    from . import asymptotics, evolve

    family, analysis = load_config(args.config)
    handle = evolve.EvolutionHandle(family)
    search = _make_search(handle, args, analysis)
    cones = (_parse_cones(args.cones) if args.cones is not None
             else analysis.get("cones", ["CP", "coCP", "PPT", "EB"]))
    tol = _resolved_tol(args, analysis)
    rows = []
    for cone in cones:
        try:
            res = asymptotics.arrival_time(handle, cone, search=search, tol=tol)
        except NotReachedError as exc:
            rows.append({
                "cone": cone, "tau": None, "status": "not_reached",
                "certificate": None, "eb_lower_bound": None,
                "witness_at_horizon": exc.witness, "horizon": exc.t_max,
            })
            continue
        if res.tau is None:
            status = "transient"
        elif res.bracket is None:
            status = "inside_from_start"
        else:
            status = "arrived"
        rows.append({
            "cone": cone, "tau": res.tau, "status": status,
            "certificate": res.retention_certificate,
            "eb_lower_bound": res.eb_lower_bound,
            "witness_at_horizon": None, "horizon": search.t_max,
        })
    if args.format == "csv":
        _emit_csv(["cone", "tau", "status", "certificate", "eb_lower_bound"],
                  rows, args.out)
    else:
        _emit_json({"command": "arrival", "kind": family.kind, "d": family.d,
                    "t_max": search.t_max, "rows": rows}, args.out)
    return EXIT_OK


def _cmd_divisibility(args):
    from . import divisibility, evolve

    family, analysis = load_config(args.config)
    handle = evolve.EvolutionHandle(family)
    search = _make_search(handle, args, analysis)
    cones = (_parse_cones(args.cones) if args.cones is not None
             else analysis.get("cones", ["CP", "PPT", "EB"]))
    tol = _resolved_tol(args, analysis)
    reports = {}
    for cone in cones:
        reports[cone] = divisibility.scan_divisibility(
            handle, cone, s_grid=analysis.get("s_grid"), search=search, tol=tol,
        )
    chain = divisibility.check_implication_chain(reports)
    payload = {
        "command": "divisibility", "kind": family.kind, "d": family.d,
        "chain_consistent": chain.consistent,
        "chain_messages": list(chain.messages),
        "reports": {
            cone: {
                "verdict": rep.verdict,
                "shortcut_used": rep.shortcut_used,
                "s_grid": list(rep.s_grid),
                "delta": list(rep.delta),
                "certificates": list(rep.certificates),
            }
            for cone, rep in reports.items()
        },
    }
    if args.format == "csv":
        rows = []
        for cone, rep in reports.items():
            for s, delta, cert in zip(rep.s_grid, rep.delta, rep.certificates):
                rows.append({"cone": cone, "s": s, "delta": delta,
                             "certificate": cert, "verdict": rep.verdict,
                             "shortcut_used": rep.shortcut_used})
        _emit_csv(["cone", "s", "delta", "certificate", "verdict",
                   "shortcut_used"], rows, args.out)
    else:
        _emit_json(payload, args.out)
    if not chain.consistent:
        print("implication chain violated:", file=sys.stderr)
        for msg in chain.messages:
            print(f"  {msg}", file=sys.stderr)
        return EXIT_CONSISTENCY
    return EXIT_OK


def _cmd_ppt2(args):
    from . import asymptotics, evolve

    family, analysis = load_config(args.config)
    handle = evolve.EvolutionHandle(family)
    t = args.t if args.t is not None else analysis.get("t", 1.0)
    kmax = args.kmax if args.kmax is not None else int(analysis.get("kmax", 8))
    result = asymptotics.ppt_composition_experiment(handle.solve(t), kmax)
    rows = [
        {"k": k, "witness_choi": wc, "witness_pt": wp, "eb_status": st}
        for k, wc, wp, st in zip(result.ks, result.witness_choi,
                                 result.witness_pt, result.eb_statuses)
    ]
    if args.format == "csv":
        _emit_csv(["k", "witness_choi", "witness_pt", "eb_status"], rows,
                  args.out)
    else:
        _emit_json({"command": "ppt2", "kind": family.kind, "d": family.d,
                    "t": float(t), "first_ppt": result.first_ppt,
                    "first_eb": result.first_eb, "rows": rows}, args.out)
    return EXIT_OK


def _cmd_list_families(args):
    if args.format == "csv":
        rows = [{"kind": kind, "keys": " ".join(sorted(req | opt) +
                                                [p + "K" for p in prefixes]),
                 "note": _FAMILY_NOTES[kind]}
                for kind, (req, opt, prefixes) in sorted(_FAMILY_SCHEMAS.items())]
        _emit_csv(["kind", "keys", "note"], rows, args.out)
        return EXIT_OK
    if args.format == "json":
        payload = {
            kind: {
                "required": sorted(req),
                "optional": sorted(opt),
                "numbered": [p + "K" for p in prefixes],
                "note": _FAMILY_NOTES[kind],
            }
            for kind, (req, opt, prefixes) in _FAMILY_SCHEMAS.items()
        }
        _emit_json(payload, args.out)
        return EXIT_OK
    lines = []
    for kind in sorted(_FAMILY_SCHEMAS):
        req, opt, prefixes = _FAMILY_SCHEMAS[kind]
        keys = sorted(req) + [f"[{k}]" for k in sorted(opt)]
        keys += [f"{p}1.." for p in prefixes]
        lines.append(f"{kind}")
        lines.append(f"  keys: {', '.join(keys) if keys else '(none)'}")
        lines.append(f"  {_FAMILY_NOTES[kind]}")
    _emit("\n".join(lines), args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# reproduction suite

def _cmd_reproduce(args):
    checks = []

    def run(check_id, fn):
        try:
            detail = fn()
        except AssertionError as exc:
            checks.append((check_id, False, str(exc) or "assertion failed"))
        except EbdynError as exc:
            checks.append((check_id, False, f"{type(exc).__name__}: {exc}"))
        else:
            checks.append((check_id, True, detail or ""))

    for check_id, fn in _reproduction_checks():
        run(check_id, fn)

    ok = all(passed for _, passed, _ in checks)
    if args.format == "json":
        payload = {
            "command": "reproduce",
            "all_ok": ok,
            "checks": [{"id": cid, "ok": passed, "detail": detail}
                       for cid, passed, detail in checks],
        }
        _emit_json(payload, args.out)
    else:
        lines = []
        for cid, passed, detail in checks:
            mark = "ok  " if passed else "FAIL"
            lines.append(f"{mark} {cid}" + (f"  ({detail})" if detail and not
                                            passed else ""))
        lines.append(f"{'all checks passed' if ok else 'SOME CHECKS FAILED'}")
        _emit("\n".join(lines), args.out)
    return EXIT_OK if ok else EXIT_CONSISTENCY


def _reproduction_checks():
    """The fixed self-consistency suite: (check-id, callable) pairs.

    Each callable asserts a quantitative statement two independent code
    paths must agree on, and returns a short detail string.
    """
    import numpy as np

    from . import asymptotics, divisibility, evolve, families, superop

    def depolarizing_arrival():
        outs = []
        for d in (2, 3, 4):
            fam = families.depolarizing(1.0, np.eye(d) / d)
            search = asymptotics.Search(t_max=8.0, grid_n=600)
            res = asymptotics.arrival_time(fam, "PPT", search=search)
            want = math.log(1.0 + d)
            assert res.tau is not None, f"d={d}: no arrival"
            assert abs(res.tau - want) < 5e-6, (
                f"d={d}: bisected {res.tau:.8f} vs closed form {want:.8f}")
            assert abs(fam.closed_form.ppt_arrival_time - want) < 1e-12
            outs.append(f"d={d}: {res.tau:.6f}")
        return "; ".join(outs)

    def depolarizing_arrival_skewed():
        fam = families.depolarizing(1.0, np.diag([0.7, 0.3]))
        search = asymptotics.Search(t_max=10.0, grid_n=600)
        res = asymptotics.arrival_time(fam, "PPT", search=search)
        want = math.log(1.0 + 1.0 / math.sqrt(0.21))
        assert abs(res.tau - want) < 5e-6, f"{res.tau:.8f} vs {want:.8f}"
        return f"tau={res.tau:.6f}"

    def pauli_equal_rates():
        fam = families.pauli_channel((1.0, 1.0, 1.0))
        verdict = asymptotics.predict_eventually_eb(fam)
        assert verdict.classification == "eventually_EB", verdict.classification
        assert verdict.predictor_basis == "spectral_semigroup"
        search = asymptotics.Search(t_max=6.0, grid_n=600)
        res = asymptotics.arrival_time(fam, "EB", search=search)
        # equal rates make the map a depolarizing family at 4x the rate
        want = math.log(3.0) / 4.0
        assert res.tau is not None and abs(res.tau - want) < 5e-6, (
            f"{res.tau} vs {want:.8f}")
        return f"tau={res.tau:.6f}"

    def pauli_dephasing_boundary():
        fam = families.pauli_channel((0.0, 0.0, 1.0))
        search = asymptotics.Search(t_max=8.0, grid_n=400)
        try:
            asymptotics.arrival_time(fam, "PPT", search=search)
        except NotReachedError:
            pass
        else:
            raise AssertionError("dephasing reached PPT at finite time")
        verdict = asymptotics.predict_eventually_eb(fam)
        assert verdict.classification == "asymptotically_EB", (
            verdict.classification)
        return "boundary approach confirmed"

    def pauli_diverging():
        fam = families.pauli_channel((0.1, 0.1, -0.3))
        verdict = asymptotics.predict_eventually_eb(fam)
        assert verdict.classification == "not_asymptotically_EB", (
            verdict.classification)
        assert not families.pauli_p_divisible(fam, (0.0, 1.0, 2.0))
        return "unbounded trajectory refuted"

    def eternal_limit_spectrum():
        fam = families.eternal_nm(2.0)
        limit = asymptotics.asymptotic_map(fam)
        eigs = np.sort(np.linalg.eigvalsh(superop.to_choi(limit).matrix))
        want = np.array([0.25, 0.5, 0.5, 0.75])
        assert np.abs(eigs - want).max() < 1e-9, eigs
        verdict = asymptotics.predict_eventually_eb(fam)
        assert verdict.classification == "eventually_EB", verdict.classification
        return "limit Choi spectrum {1/4, 1/2, 1/2, 3/4}"

    def eternal_propagator_tail(alpha, s):
        fam = families.eternal_nm(alpha)
        handle = evolve.EvolutionHandle(fam)
        want = 0.5 - (1.0 + math.exp(-2.0 * s)) ** (-alpha)
        got = asymptotics.cone_witness(handle.propagator(s + 16.0, s), "PPT")
        assert abs(got - want) < 2e-3, f"{got:.6f} vs limit {want:.6f}"
        rep = divisibility.scan_divisibility(
            handle, "PPT", s_grid=[0.5, 1.0, 2.0],
            search=asymptotics.Search(t_max=10.0, grid_n=400),
        )
        assert rep.verdict == "refuted", rep.verdict
        return f"alpha={alpha:g}, s={s:g}: witness limit {want:.6f}"

    def phase_covariant_slope():
        fam = families.phase_covariant(0.8, 1.0, 0.5, -0.1)
        handle = evolve.EvolutionHandle(fam)
        t = 1e-5
        w = float(np.linalg.eigvalsh(
            superop.to_choi(handle.solve(t)).matrix)[0])
        slope = w / t
        # smallest Choi eigenvalue leaves zero at rate 2 gamma_z
        assert abs(slope - 2.0 * (-0.1)) < 5e-4, f"slope {slope:.6f}"
        return f"initial slope {slope:.6f}"

    def phase_covariant_dephasing():
        fam = families.phase_covariant(0.0, 0.0, 0.0, 0.3)
        handle = evolve.EvolutionHandle(fam)
        got = handle.solve(1.5).matrix[1, 1]
        want = math.exp(-0.6 * 1.5)
        assert abs(got - want) < 1e-12, f"{got} vs {want}"
        return "coherence decay exp(-2 gamma_z t)"

    def floquet_limit_cycle():
        core = families.depolarizing(1.0, np.diag([0.6, 0.4]))
        w0 = math.pi

        def p_of_t(t):
            return np.diag([np.exp(-1j * w0 * t), np.exp(1j * w0 * t)])

        fam = families.floquet_product(p_of_t, 2.0, core)
        limit = asymptotics.asymptotic_map(fam)
        assert isinstance(limit, asymptotics.PeriodicMap)
        w = min(asymptotics.cone_witness(phi, "PPT")
                for phi in limit.sample())
        assert w > 1e-6, f"cycle witness {w:.3e}"
        verdict = asymptotics.predict_eventually_eb(fam)
        assert verdict.classification == "eventually_EB", verdict.classification
        assert verdict.predictor_basis == "limit_cycle_interior"
        handle = evolve.EvolutionHandle(fam)
        reports = {}
        for cone in ("CP", "PPT", "EB"):
            reports[cone] = divisibility.scan_divisibility(
                handle, cone, s_grid=[0.0, 0.7, 1.9],
                search=asymptotics.Search(t_max=8.0, grid_n=400),
            )
            assert reports[cone].verdict == "certified", (
                cone, reports[cone].verdict)
        chain = divisibility.check_implication_chain(reports)
        assert chain.consistent, chain.messages
        return "limit cycle interior; EB-divisibility certified"

    def detailed_balance_gibbs():
        h = np.diag([0.0, 1.0, 2.5])
        lower01 = np.zeros((3, 3), dtype=complex)
        lower01[0, 1] = 1.0
        lower12 = np.zeros((3, 3), dtype=complex)
        lower12[1, 2] = 1.0
        fam = families.detailed_balance(h, [(lower01, 1.0), (lower12, 1.5)],
                                        beta=0.7)
        handle = evolve.EvolutionHandle(fam)
        spec = superop.map_spectrum(handle.solve(3.0))
        omega, residual = superop.tp_fixed_point(spec)
        assert residual < 1e-8, residual
        dev = float(np.abs(omega - fam.stationary_state).max())
        assert dev < 1e-8, f"fixed point off by {dev:.2e}"
        rep = divisibility.scan_divisibility(
            handle, "EB", s_grid=[0.0, 0.5, 1.0],
            search=asymptotics.Search(t_max=12.0, grid_n=500),
        )
        assert rep.shortcut_used == "semigroup", rep.shortcut_used
        assert rep.verdict == "certified", rep.verdict
        tau = rep.details["lambda_tau"]
        assert all(abs(dlt - (s + tau)) < 1e-12
                   for s, dlt in zip(rep.s_grid, rep.delta))
        return f"Gibbs fixed point; EB arrival {tau:.4f}"

    def chain_depolarizing_d3():
        fam = families.depolarizing(1.0, np.eye(3) / 3.0)
        handle = evolve.EvolutionHandle(fam)
        search = asymptotics.Search(t_max=8.0, grid_n=600)
        cp = asymptotics.arrival_time(handle, "CP", search=search)
        ppt = asymptotics.arrival_time(handle, "PPT", search=search)
        assert cp.tau == 0.0 and cp.bracket is None
        assert abs(ppt.tau - math.log(4.0)) < 5e-6, ppt.tau
        eb = asymptotics.arrival_time(handle, "EB", search=search)
        assert eb.eb_lower_bound, "EB at d=3 must be flagged as a lower bound"
        reports = {
            cone: divisibility.scan_divisibility(
                handle, cone, s_grid=[0.0, 0.4, 1.2], search=search)
            for cone in ("CP", "PPT")
        }
        chain = divisibility.check_implication_chain(reports)
        assert chain.consistent, chain.messages
        return f"tau_CP=0 <= tau_PPT={ppt.tau:.6f}"

    return [
        ("depolarizing-ppt-arrival-uniform", depolarizing_arrival),
        ("depolarizing-ppt-arrival-skewed", depolarizing_arrival_skewed),
        ("pauli-equal-rates-match-depolarizing", pauli_equal_rates),
        ("pauli-dephasing-boundary", pauli_dephasing_boundary),
        ("pauli-diverging-refuted", pauli_diverging),
        ("eternal-a2-limit-spectrum", eternal_limit_spectrum),
        ("eternal-a2-propagator-tail",
         lambda: eternal_propagator_tail(2.0, 2.0)),
        ("eternal-a1-propagator-tail",
         lambda: eternal_propagator_tail(1.0, 1.0)),
        ("phase-covariant-cp-slope", phase_covariant_slope),
        ("phase-covariant-dephasing-coherence", phase_covariant_dephasing),
        ("floquet-limit-cycle-interior", floquet_limit_cycle),
        ("detailed-balance-gibbs-fixed-point", detailed_balance_gibbs),
        ("chain-depolarizing-d3", chain_depolarizing_d3),
    ]


# ---------------------------------------------------------------------------
# argument parsing and dispatch

@functools.cache
def _build_parser():
    """The argument parser, built once per process (parsing leaves it unchanged)."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", default=None, metavar="FILE",
                        help="write output to FILE instead of stdout")
    common.add_argument("--threads", type=int, default=None, metavar="N",
                        help="pin BLAS/OpenMP thread count")
    common.add_argument("--tmax", type=float, default=None,
                        help="scan horizon override")
    common.add_argument("--tol", type=float, default=None,
                        help="positivity tolerance override")

    needs_config = argparse.ArgumentParser(add_help=False)
    needs_config.add_argument("--config", required=True, metavar="INI",
                              help="family description file")

    parser = argparse.ArgumentParser(
        prog="ebdyn",
        description="cone classification, arrival times and eventual "
                    "divisibility for time-local quantum dynamics",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", parents=[common, needs_config],
                       help="witness trajectory on a time grid")
    p.add_argument("--times", default=None,
                   help="explicit times, whitespace separated")
    p.set_defaults(handler=_cmd_classify)

    p = sub.add_parser("arrival", parents=[common, needs_config],
                       help="cone arrival times for the evolved map")
    p.add_argument("--cones", default=None,
                   help="cones to scan, e.g. 'CP PPT EB'")
    p.set_defaults(handler=_cmd_arrival)

    p = sub.add_parser("divisibility", parents=[common, needs_config],
                       help="eventual divisibility scan over start times")
    p.add_argument("--cones", default=None,
                   help="cones to scan, e.g. 'CP PPT EB'")
    p.set_defaults(handler=_cmd_divisibility)

    p = sub.add_parser("ppt2", parents=[common, needs_config],
                       help="classify iterated self-compositions of the map "
                            "at one time")
    p.add_argument("--t", type=float, default=None,
                   help="evaluation time of the base map (default 1.0)")
    p.add_argument("--kmax", type=int, default=None,
                   help="highest composition power (default 8)")
    p.set_defaults(handler=_cmd_ppt2)

    p = sub.add_parser("reproduce", parents=[common],
                       help="run the built-in cross-validation suite")
    p.set_defaults(handler=_cmd_reproduce)

    p = sub.add_parser("list-families", parents=[common],
                       help="list supported family kinds and their keys")
    p.set_defaults(handler=_cmd_list_families)

    # --format per subcommand: actions shared through a parent share defaults
    for name, p in sub.choices.items():
        fmt = "text" if name in ("reproduce", "list-families") else "json"
        p.add_argument("--format", choices=("json", "csv", "text"), default=fmt,
                       help=f"output format (default {fmt})")

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.threads is not None:
        if args.threads < 1:
            print("error: --threads must be at least 1", file=sys.stderr)
            return EXIT_CONFIG
        for var in _THREAD_VARS:
            os.environ[var] = str(args.threads)
    for flag, value in (("--tol", args.tol), ("--tmax", args.tmax)):
        if value is not None and not 0 < value < math.inf:
            print(f"error: {flag} must be positive and finite", file=sys.stderr)
            return EXIT_CONFIG
    if not math.isfinite(getattr(args, "t", None) or 0.0):
        print("error: --t must be finite", file=sys.stderr)
        return EXIT_CONFIG
    if getattr(args, "kmax", None) is not None and args.kmax < 1:
        print("error: --kmax must be at least 1", file=sys.stderr)
        return EXIT_CONFIG
    try:
        return args.handler(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (IntegrationFailureError, NoConvergenceError, SingularMapError,
            ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICS
    except MemoryError as exc:  # a huge --kmax, points or grid_n
        detail = f" ({exc})" if str(exc) else ""
        print(f"numerical failure: out of memory{detail}", file=sys.stderr)
        return EXIT_NUMERICS
    except EbdynError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
