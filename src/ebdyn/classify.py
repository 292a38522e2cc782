"""Cone membership of maps and stacks of maps: CP, coCP, PPT and entanglement breaking.

Membership is decided from the Choi matrix.  Complete positivity is
positivity of the Choi matrix, co-complete-positivity is positivity of its
partial transpose, PPT is both.  Entanglement breaking is separability of
the Choi matrix: for d = 2 this is equivalent to PPT, for d > 2 PPT is only
necessary, so EB can be certified there solely through an interior
certificate and is otherwise reported unknown.

The interior certificate is a ball argument around the rank-one map
X -> tr(X) omega, whose Choi matrix is I (x) omega: if the Choi matrix lies
within Frobenius distance min_eig(omega)/2 of I (x) omega with omega strictly
positive, the map is entanglement breaking (with margin).  That radius is
deliberately conservative; filtering by omega^{-1/2} on the second factor
maps the ball onto a neighbourhood of the maximally mixed state that lies
well inside the known separable ball around it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.sparse.csgraph

from . import matcore, superop, tolerances
from .errors import TraceNotOneError, InvalidStateError

__all__ = [
    "EB_CERTIFIED",
    "EB_REFUTED",
    "EB_UNKNOWN",
    "ClassificationReport",
    "InteriorCertificate",
    "choi_floors",
    "classify_map",
    "classify_stack",
    "eb_certify_interior",
    "interior_certificate",
    "interior_certificates",
    "projector_onto_state",
    "positivity_witness",
]

EB_CERTIFIED = "EB_certified"
EB_REFUTED = "EB_refuted"
EB_UNKNOWN = "EB_unknown"


@dataclass(frozen=True)
class ClassificationReport:
    """Cone verdicts for one map at one instant."""

    d: int
    is_cp: bool
    is_cocp: bool
    is_ppt: bool
    eb_status: str
    min_eig_choi: float
    min_eig_choi_pt: float
    tolerance_used: float


@dataclass(frozen=True)
class InteriorCertificate:
    """Outcome of the entanglement-breaking interior test.

    ``path`` names the argument that fired: ``strict_ppt_qubit`` (d = 2,
    both Choi eigenvalue floors strictly positive) or ``state_projector_ball``
    (Frobenius ball around I (x) omega).  ``boundary`` flags maps that are in
    the cone within tolerance but sit on its boundary, so no interior
    certificate is possible.
    """

    certified: bool
    path: str | None
    boundary: bool
    distance: float | None
    radius: float | None


def choi_floors(stack, d, cp=True, cocp=True):
    """Choi matrices of a stack ``(N, d^2, d^2)`` of map matrices and their floors.

    Returns ``(choi, min_c, min_pt)``: the Choi stack (one permutation) and
    the ``(N,)`` smallest eigenvalues of each Choi matrix (if ``cp``) and of
    its partial transpose (if ``cocp``; else None).  Each floor is that of
    its map alone, bitwise, whatever else the stack holds.

    Each map takes the block layout of its own exact-zero pattern
    (:func:`_layout`): the connected components of the pattern of C and of
    C^Gamma, whose spectra are the union of their blocks' spectra.  1 x 1
    blocks are their entries, 2 x 2 blocks have a closed form, and each
    larger block size takes one batched eigensolve over the whole stack.
    The stack is split into groups of maps, their gathered block entries
    and their layout: one group per pattern (off the diagonal, as a
    diagonal entry joins no two indices), so a stack whose maps share one
    pattern, the common case, reads one layout.  Then each map of a dense
    layout (C and C^Gamma each one block) goes to the one dense part, whose
    whole Choi matrices take the dense eigensolve; so a stack of generic
    maps costs one dense solve per floor.  A partial transpose deviates
    from Hermiticity exactly as its Choi matrix does, so a stack raises the
    error of its first bad map, before any eigensolve: NotHermitianError,
    or NoConvergenceError for a NaN or infinite entry (the message of
    ``matcore._checked_hermitian``, alone and in a stack alike).

    A :class:`~ebdyn.superop.SpectralStack` (a spectral closed form's maps,
    held as coefficient rows) gives None for the Choi stack.  It is one
    group, on the layout of its components' joint pattern, whose entries
    are formed from the rows alone (:func:`_spectral_entries`); only the
    maps of the dense part are built.
    """
    if isinstance(stack, superop.SpectralStack):
        choi = None
        layout, values = _spectral_entries(stack, d)
        groups = [(slice(None), values, layout)]

        def choi_of(maps):
            return superop._choi_shuffle(stack.maps(maps), d)
    else:
        choi = superop._choi_shuffle(np.asarray(stack, dtype=complex), d)
        choi_of = choi.__getitem__
        flat = choi.reshape(len(choi), d ** 4)
        nonzero = flat != 0
        # a diagonal entry joins no two indices: its block is that of its index
        nonzero[:, ::d * d + 1] = True
        if len(flat) and (nonzero == nonzero[0]).all():
            # one pattern for the whole stack, the common case: one comparison
            patterns = {np.packbits(nonzero[0]).tobytes(): slice(None)}
        else:
            keys = np.packbits(nonzero, axis=1)
            width, keys = keys.shape[1], keys.tobytes()
            patterns = {}
            for k in range(len(flat)):
                patterns.setdefault(keys[k * width:(k + 1) * width], []).append(k)
        groups = []
        for key, maps in patterns.items():
            layout = _layout(d, key)
            # a dense layout gathers nothing: its maps go to the dense part
            groups.append((maps, None if layout.dense else flat[maps][:, layout.positions],
                           layout))
    parts = [group for group in groups if not group[2].dense]
    dense = [maps for maps, _, layout in groups if layout.dense]
    if dense:
        maps = dense[0]
        if len(dense) > 1 or not isinstance(maps, slice):
            maps = np.sort(np.concatenate(dense))
            if maps[-1] - maps[0] + 1 == len(maps):  # a run of maps is a view, not a copy
                maps = slice(maps[0], maps[-1] + 1)
        parts.append((maps, choi_of(maps), None))
    return (choi,) + _layout_floors(parts, len(stack), d, cp, cocp, choi_of)


def _spectral_entries(stack, d):
    """``(layout, values)``: the layout of a SpectralStack and the entries
    ``(N, len(layout.positions))`` of its maps' Choi matrices there, summed
    layer by layer as :func:`~ebdyn.superop.spectral_sum` sums them, so
    each is bitwise the entry of that map's Choi matrix."""
    layout, source, eye, unreached = _spectral_layout(stack.components, d)
    layers = superop._layer_sum(stack.rows, stack.components, d)
    if unreached:
        layers = np.concatenate([layers, np.zeros((len(stack), 1))], axis=1)
    values = layers[:, source]
    values[stack.identity] = eye
    return layout, values


class _Layout(NamedTuple):
    """The block layout of a Choi pattern (:func:`_layout`), as indices into
    the gathered entries: ``positions``, the flat Choi entries gathered,
    ascending; ``take``, the entries read outside the eigensolves, in one
    gather: for the Hermiticity check, the ``herm`` entries of C's blocks,
    then their transposes; then the rows p, q, z of the 1 x 1 and 2 x 2
    blocks [[p, .], [z, q]] of C, then of C^Gamma (the first ``split``),
    with ``pair`` 1.0 for a 2 x 2 block and 0.0 for a 1 x 1 block, whose
    p = q is its entry; ``blocks``, for C and for C^Gamma, one ``(k, (G,
    k, k) indices)`` per larger size k, ascending (a single component is
    the one block of size d^2); and whether C and C^Gamma are each one
    block (``dense``), so that nothing is gathered."""

    positions: np.ndarray
    take: np.ndarray
    herm: int
    pair: np.ndarray
    split: int
    blocks: tuple
    dense: bool


@functools.lru_cache(maxsize=64)
def _layout(d, key):
    """The read-only :class:`_Layout` of the pattern ``key``: the packed bits
    of the ``(d^2, d^2)`` mask of the Choi entries that may be nonzero.

    Permuted to its connected components, a Hermitian matrix is block
    diagonal, and its spectrum is the union of its blocks' spectra; so is
    its partial transpose, whose entries are C's, permuted.  Every nonzero
    entry lies in a block of C and in one of C^Gamma.
    """
    n = d * d
    mask = np.unpackbits(np.frombuffer(key, dtype=np.uint8), count=n * n).astype(bool)
    # the flat position in C of each flat entry of C^Gamma, the permutation
    # of matcore.partial_transpose_second
    pt = np.arange(n * n).reshape(d, d, d, d).transpose(0, 3, 2, 1).ravel()
    (c_small, c_pair, c_blocks, herm), (g_small, g_pair, g_blocks, g_entries) = (
        _components(mask.reshape(n, n), np.arange(n * n).reshape(n, n)),
        _components(mask[pt].reshape(n, n), pt.reshape(n, n)))
    positions = np.union1d(herm, g_entries)

    def at(where):
        where = np.searchsorted(positions, where)
        where.flags.writeable = False
        return where

    pair = np.concatenate([c_pair, g_pair])
    blocks = tuple(tuple((k, at(idx)) for k, idx in side) for side in (c_blocks, g_blocks))
    for arr in (positions, pair):
        arr.flags.writeable = False
    take = np.concatenate([herm, (herm % n) * n + herm // n,
                           np.concatenate([c_small, g_small], axis=1).ravel()])
    return _Layout(positions, at(take), len(herm), pair, len(c_pair), blocks,
                   all(side and side[0][0] == n for side in blocks))


def _components(mask, flat):
    """``(small, pair, blocks, entries)`` of the pattern ``mask`` (see
    :class:`_Layout`), as the entries of ``flat`` (the flat Choi position of
    each entry of the matrix); ``entries`` are all the entries of all its
    blocks."""
    _, labels = scipy.sparse.csgraph.connected_components(mask | mask.T, directed=False)
    comps = {}
    for index, label in enumerate(labels.tolist()):
        comps.setdefault(label, []).append(index)  # ascending
    by_size = {}
    for comp in comps.values():
        by_size.setdefault(len(comp), []).append(comp)
    blocks = {k: flat[np.array(group)[:, :, None], np.array(group)[:, None, :]]
              for k, group in by_size.items()}
    ones = blocks.pop(1, np.zeros((0, 1, 1), dtype=np.intp)).reshape(-1)
    pairs = blocks.pop(2, np.zeros((0, 2, 2), dtype=np.intp))
    small = np.concatenate([np.stack([ones] * 3), pairs[:, [0, 1, 1], [0, 1, 0]].T], axis=1)
    pair = np.repeat([0.0, 1.0], [len(ones), len(pairs)])
    entries = np.concatenate([ones, pairs.ravel()] + [idx.ravel() for idx in blocks.values()])
    return small, pair, tuple(sorted(blocks.items())), np.unique(entries)


def _spectral_layout(components, d):
    """``(layout, source, eye, unreached)`` of spectral components, kept on
    them: the :func:`_layout` of their joint pattern and of the identity's;
    for each gathered entry, its column of ``superop._layer_sum`` (one past
    its last, a zero column, where no Q_k reaches it); the identity's
    entries; and whether any gathered entry is unreached."""
    if components.choi_layout is None:
        n = d * d
        domain = np.arange(n * n) if components.support is None else components.support
        reached = np.zeros(n * n, dtype=bool)
        if components.layers:
            reached[domain] = components.layers[0][1] != 0
        to_map = superop._choi_shuffle(np.arange(n * n).reshape(n, n), d).ravel()
        eye = superop._choi_shuffle(np.eye(n, dtype=complex), d).ravel()
        layout = _layout(d, np.packbits(reached[to_map] | (eye != 0)).tobytes())
        column = np.full(n * n, len(domain))
        column[domain] = np.arange(len(domain))
        source = column[to_map[layout.positions]]
        components.choi_layout = (layout, source, eye[layout.positions],
                                  bool((source == len(domain)).any()))
    return components.choi_layout


def _layout_floors(parts, n_maps, d, cp, cocp, choi_of):
    """(min_c, min_pt) of ``n_maps`` maps from ``parts``, one ``(maps,
    values, layout)`` per layout: the indices of its maps, their gathered
    entries and the layout, or, with the layout None, their whole Choi
    matrices, one block each.

    Hermiticity is judged on the entries of C's blocks, which hold every
    nonzero entry, so with the whole matrix's deviation and tolerance; a
    partial transpose deviates exactly as C does.  A NaN or infinite entry
    is nonzero, so it is among them, and its deviation is NaN or infinite.
    If any map fails, the Choi stack (``choi_of(slice(None))``) is checked
    in order, so the error is that of the first bad map.  A 1 x 1 block's
    eigenvalue is its entry; a 2 x 2 block's smaller one is
    min(p, q) - |z|^2 / (h + hypot(h, |z|)) with h = |p - q| / 2, which has
    no cancellation and is min(p, q) exactly when z = 0.  Each larger block
    size takes one batched eigensolve per floor over all parts.
    """
    sides = [side for side, wanted in enumerate((cp, cocp)) if wanted]
    floors = [None, None]

    def lower(side, maps, floor):
        if floors[side] is None and isinstance(maps, slice) and maps == slice(None):
            floors[side] = floor
        else:
            if floors[side] is None:
                floors[side] = np.full(n_maps, np.inf)
            floors[side][maps] = np.minimum(floors[side][maps], floor)

    solves = {}
    for maps, values, layout in parts:
        m = len(values)
        if not sides:
            continue
        if layout is None:
            block, mirror, axes = values, values.swapaxes(1, 2), (1, 2)
        else:
            read, h = values[:, layout.take], layout.herm
            block, mirror, axes = read[:, :h], read[:, h:2 * h], 1
        with np.errstate(invalid="ignore"):  # inf - inf at a non-finite entry is NaN
            devs = np.abs(block - mirror.conj())
        top = devs.max(initial=0.0)
        # no tolerance is below HERM_TOL_SCALE, so most stacks stop at the
        # first test, which a NaN deviation fails
        if not top <= tolerances.HERM_TOL_SCALE and (not np.isfinite(top) or (
                devs.max(axis=axes) > tolerances.HERM_TOL_SCALE * np.maximum(
                    1.0, np.abs(block).max(axis=axes))).any()):
            matcore._checked_hermitian(choi_of(slice(None)), None)
        if layout is None:
            for side in sides:
                whole = matcore.partial_transpose_second(values, d, d) if side else values
                solves.setdefault((side, d * d), []).append((maps, m, whole))
            continue
        if layout.pair.size:
            small = read[:, 2 * h:].reshape(m, 3, -1)
            p, q, r = small[:, 0].real, small[:, 1].real, np.abs(small[:, 2]) * layout.pair
            half = np.abs(p - q) / 2.0
            # where r == 0 the denominator may be 0; adding 1 there keeps the shift 0
            low = np.minimum(p, q) - r / (half + np.hypot(half, r) + (r == 0)) * r
            for side in sides:
                part = low[:, layout.split:] if side else low[:, :layout.split]
                if part.size:
                    lower(side, maps, part.min(axis=1))
        for side in sides:
            for k, idx in layout.blocks[side]:
                solves.setdefault((side, k), []).append(
                    (maps, m, values[:, idx].reshape(-1, k, k)))
    for (side, k), items in sorted(solves.items()):
        stack = items[0][2] if len(items) == 1 else np.concatenate([b for *_, b in items])
        # Hermiticity was judged above, against the whole matrix's tolerance
        w = matcore.min_herm_eig(stack, tol=np.inf)
        start = 0
        for maps, m, b in items:
            if m:
                lower(side, maps, w[start:start + len(b)].reshape(m, -1).min(axis=1))
            start += len(b)
    for side in sides:
        if floors[side] is None:  # no map
            floors[side] = np.full(n_maps, np.inf)
    return tuple(floors)


def classify_stack(stack, d, tol=None) -> list:
    """:class:`ClassificationReport` of each map of a stack ``(N, d^2, d^2)``.

    The maps must be Hermiticity preserving (Hermitian Choi matrices);
    otherwise the eigensolver's error propagates.  For d > 2 the ball
    certificate runs once over the PPT maps of the stack.
    """
    if tol is None:
        tol = tolerances.PSD_TOL
    choi, min_c, min_pt = choi_floors(stack, d)
    is_cp, is_cocp = min_c >= -tol, min_pt >= -tol
    is_ppt = is_cp & is_cocp
    certs = (interior_certificates(choi, min_c, min_pt, d, tol=tol, which=is_ppt)
             if d > 2 else [None] * len(choi))
    return [
        ClassificationReport(
            d=d, is_cp=bool(is_cp[k]), is_cocp=bool(is_cocp[k]), is_ppt=bool(is_ppt[k]),
            eb_status=(EB_REFUTED if not is_ppt[k] else
                       EB_CERTIFIED if d == 2 or cert.certified else EB_UNKNOWN),
            min_eig_choi=float(min_c[k]), min_eig_choi_pt=float(min_pt[k]),
            tolerance_used=float(tol),
        )
        for k, cert in enumerate(certs)
    ]


def classify_map(phi: superop.Superoperator, tol=None) -> ClassificationReport:
    """Classify one map: :func:`classify_stack` of a stack of one."""
    return classify_stack(phi.matrix[None], phi.d, tol=tol)[0]


def interior_certificate(phi: superop.Superoperator, tol=None) -> InteriorCertificate:
    """Try to certify that ``phi`` lies in the interior of the EB cone."""
    return interior_certificates(*choi_floors(phi.matrix[None], phi.d), phi.d, tol=tol)[0]


def interior_certificates(choi, min_c, min_pt, d, tol=None, which=None) -> list:
    """:class:`InteriorCertificate` of each map, from :func:`choi_floors`.

    Only the maps where the boolean array ``which`` is set (all by default)
    are tested; the others get None.  The marginals, traces and eigenvalue
    floors of the ball test run once over the tested maps.
    """
    if tol is None:
        tol = tolerances.PSD_TOL
    which = np.ones(len(choi), dtype=bool) if which is None else np.asarray(which, dtype=bool)
    floor = np.where(min_pt < min_c, min_pt, min_c)  # min(min_c, min_pt) per map
    strict = which & (floor > tol) & (d == 2)
    ball = np.flatnonzero(which & ~strict)
    # ball around the rank-one map X -> tr(X) omega, with the Choi marginal as
    # omega, for roughly trace preserving maps (tr > 0.5) with omega > 0
    omega = choi[ball].reshape(-1, d, d, d, d).trace(axis1=1, axis2=3) / d
    omega = (omega + omega.conj().swapaxes(1, 2)) / 2.0
    tr = np.trace(omega, axis1=1, axis2=2).real
    omega, ball = omega[tr > 0.5] / tr[tr > 0.5, None, None], ball[tr > 0.5]
    lam = matcore.min_herm_eig(omega)
    ball, omega, lam = ball[lam > tol], omega[lam > tol], lam[lam > tol]
    # each Choi matrix minus I (x) omega: omega comes off the d diagonal
    # blocks; the other entries of I (x) omega are zeros, which change at
    # most the sign of a zero entry and so not the norm
    diff = choi[ball].reshape(-1, d, d, d, d)
    for i in range(d):
        diff[:, i, :, i, :] -= omega
    found = {k: (float(np.linalg.norm(x, "fro")), float(lam_k) / 2.0)
             for k, x, lam_k in zip(ball.tolist(), diff.reshape(-1, d * d, d * d), lam)}
    tested = np.flatnonzero(which)
    edge = (-tol <= floor) & (floor <= tol)
    certs = [None] * len(choi)
    for k, qubit, near in zip(tested.tolist(), strict[tested].tolist(), edge[tested].tolist()):
        distance, radius = found.get(k, (None, None))
        certified = qubit or (distance is not None and distance <= radius)
        certs[k] = InteriorCertificate(
            certified=certified,
            path=("strict_ppt_qubit" if qubit else
                  "state_projector_ball" if certified else None),
            boundary=not certified and near,
            distance=distance,
            radius=radius,
        )
    return certs


def eb_certify_interior(phi: superop.Superoperator, tol=None) -> bool:
    """Whether ``phi`` is certified to lie strictly inside the EB cone."""
    return interior_certificate(phi, tol=tol).certified


def projector_onto_state(omega) -> superop.Superoperator:
    """The rank-one idempotent map X -> tr(X) omega.

    ``omega`` must be a Hermitian matrix with unit trace (a state when it is
    also positive).  The Choi matrix of the result is I (x) omega.
    """
    w = matcore.as_matrix(omega, square=True)
    if not matcore.is_hermitian(w, tol=1e-10):
        raise InvalidStateError("omega must be Hermitian")
    if abs(np.trace(w) - 1.0) > 1e-10:
        raise TraceNotOneError(f"tr(omega) = {np.trace(w):.12g}, expected 1")
    d = w.shape[0]
    s = np.outer(matcore.vec(w), matcore.vec(np.eye(d, dtype=complex)).conj())
    return superop.Superoperator(s, d)


def positivity_witness(phi: superop.Superoperator, restarts=12, iters=80, seed=0) -> float:
    """Search for the smallest value of <a (x) b| C_phi |a (x) b>.

    Block positivity of the Choi matrix over product vectors is equivalent to
    positivity of the map.  The minimum is located by alternating exact
    eigensolves in each factor (a see-saw) from several deterministic random
    starts.  A negative return value refutes positivity; a nonnegative one
    means no violation was found, which for this nonconvex search is strong
    evidence, not proof.
    """
    d = phi.d
    c = superop.to_choi(phi).matrix
    c = (c + c.conj().T) / 2.0
    c4 = c.reshape(d, d, d, d)
    rng = np.random.default_rng(seed)
    best = np.inf
    for _ in range(restarts):
        a = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        a = a / np.linalg.norm(a)
        value = np.inf
        for _ in range(iters):
            mb = np.einsum("i,j,ikjl->kl", a.conj(), a, c4)
            wb, vb = np.linalg.eigh((mb + mb.conj().T) / 2.0)
            b = vb[:, 0]
            ma = np.einsum("k,l,ikjl->ij", b.conj(), b, c4)
            wa, va = np.linalg.eigh((ma + ma.conj().T) / 2.0)
            a = va[:, 0]
            if abs(wa[0] - value) < 1e-14:
                value = wa[0]
                break
            value = wa[0]
        best = min(best, value)
    return float(best)
