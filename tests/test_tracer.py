"""perfbench/tracer.py still finds every name it wraps in the package.

The tracer replaces module functions, ``EvolutionHandle`` methods and the
callables stored on families from outside ``src/ebdyn``; a renamed or removed
name would only show when the benchmark is traced.  Here it is installed,
one family per wrapped constructor is built and evolved, and it is removed.
"""

import importlib.util
import math
import os

import numpy as np

from ebdyn import evolve, families

from helpers import ginibre, random_hermitian

REPO = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
spec = importlib.util.spec_from_file_location(
    "tracer", os.path.join(REPO, "perfbench", "tracer.py"))
tracer = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracer)


def one_family_per_constructor(rng):
    core = families.depolarizing(1.0, np.diag([0.6, 0.4]))
    return {
        "gkls": families.gkls(random_hermitian(rng, 2), [(ginibre(rng, 2), 0.7)]),
        "pauli_channel": families.pauli_channel(
            (0.3, lambda t: 0.5 + 0.2 * math.sin(t), 0.4)),
        "eternal_nm": families.eternal_nm(1.5),
        "phase_covariant": families.phase_covariant(0.8, 1.0, 0.5, -0.1),
        "depolarizing": families.depolarizing(1.0, np.diag([0.5, 0.3, 0.2])),
        "detailed_balance": families.detailed_balance(
            np.diag([0.0, 1.0]), [(np.array([[0, 1], [0, 0]]), 1.0)], 0.5),
        "floquet_product": families.floquet_product(
            lambda t: np.diag([np.exp(-1j * np.pi * t), 1.0]), 2.0, core),
        "pure_decoherence": families.pure_decoherence(
            h=[0.0, 1.0], a=np.array([[1.0, 0.3], [0.3, 0.8]]), cutoff=2.0),
        "diagonally_covariant": families.diagonally_covariant(
            [0.0, 1.0], np.array([[1.0, 0.2], [0.2, 0.6]]), np.array([[0.0, 0.3], [0.4, 0.0]])),
    }


def test_every_wrapped_name_exists_and_is_restored():
    originals = {name: getattr(evolve.EvolutionHandle, name) for name in tracer.HANDLE_METHODS}
    constructors = {name: getattr(families, name) for name in tracer.FAMILY_CONSTRUCTORS}
    tr = tracer.Tracer(max_spans=10_000)
    tr.install()
    try:
        tr.active = True
        built = one_family_per_constructor(np.random.default_rng(0))
        assert sorted(built) == sorted(tracer.FAMILY_CONSTRUCTORS)
        closed = 0
        for fam in built.values():
            handle = evolve.EvolutionHandle(fam)
            if fam.closed_form is not None:
                fam.closed_form.map_at(0.5)
                closed += 1
            handle.solve(0.5)
            handle._solve_grid([0.0, 0.5, 1.0])
        assert tr.stat("families.map_at")[0] >= closed
        assert tr.stat("evolve.solve")[0] >= len(built)
        assert tr.stat("families.generator_matrix")[0] > 0
    finally:
        tr.active = False
        tr.uninstall()
    for name, fn in originals.items():
        assert getattr(evolve.EvolutionHandle, name) is fn
    for name, fn in constructors.items():
        assert getattr(families, name) is fn
