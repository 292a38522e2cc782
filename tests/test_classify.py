"""Cone membership verdicts, interior certificates, positivity witnesses."""

import numpy as np
import pytest

from ebdyn import asymptotics, classify, families, matcore, superop
from ebdyn.errors import TraceNotOneError

from helpers import (
    choi_min_eig,
    choi_pt_min_eig,
    random_cptp,
    random_density,
    random_eb_map,
    random_hp_map,
    random_unitary,
)


class TestClassifyMap:
    def test_transpose_map(self):
        rep = classify.classify_map(superop.transpose_map(2))
        assert not rep.is_cp
        assert rep.is_cocp
        assert not rep.is_ppt
        assert rep.eb_status == classify.EB_REFUTED
        assert rep.min_eig_choi == pytest.approx(-1.0, abs=1e-12)

    def test_identity_is_cp_but_not_ppt(self):
        fam = families.pauli_channel((1.0, 1.0, 1.0))
        rep = classify.classify_map(fam.closed_form.map_at(0.0))
        assert rep.is_cp
        assert not rep.is_ppt
        assert rep.eb_status == classify.EB_REFUTED

    def test_amplitude_damping_pt_witness(self):
        """With only the lowering rate on, the PT witness decays as -e^{-g t}."""
        g = 0.8
        fam = families.phase_covariant(0.0, 0.0, g, 0.0)
        for t in (0.2, 1.0, 3.5):
            rep = classify.classify_map(fam.closed_form.map_at(t))
            assert rep.is_cp
            assert rep.min_eig_choi_pt == pytest.approx(-np.exp(-g * t), abs=1e-12)
            assert rep.eb_status == classify.EB_REFUTED

    def test_ppt_is_conjunction(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            phi = random_hp_map(rng, 2, shift=rng.uniform(0.0, 2.5))
            rep = classify.classify_map(phi)
            assert rep.is_ppt == (rep.is_cp and rep.is_cocp)

    def test_qubit_never_unknown(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            rep = classify.classify_map(random_hp_map(rng, 2, shift=rng.uniform(0.0, 3.0)))
            assert rep.eb_status in (classify.EB_CERTIFIED, classify.EB_REFUTED)
            assert (rep.eb_status == classify.EB_CERTIFIED) == rep.is_ppt

    def test_raw_eigenvalues_exposed(self):
        rng = np.random.default_rng(9)
        phi = random_hp_map(rng, 3)
        rep = classify.classify_map(phi)
        assert rep.min_eig_choi == pytest.approx(choi_min_eig(phi), abs=1e-14)
        assert rep.min_eig_choi_pt == pytest.approx(choi_pt_min_eig(phi), abs=1e-14)
        assert rep.d == 3
        assert rep.tolerance_used > 0

    def test_qutrit_boundary_reports_unknown(self):
        omega = np.diag([0.5, 0.5, 0.0])
        rep = classify.classify_map(classify.projector_onto_state(omega))
        assert rep.is_ppt
        assert rep.eb_status == classify.EB_UNKNOWN

    def test_qutrit_interior_reports_certified(self):
        rep = classify.classify_map(classify.projector_onto_state(np.eye(3) / 3))
        assert rep.eb_status == classify.EB_CERTIFIED

    def test_unitary_covariance(self):
        rng = np.random.default_rng(10)
        phi = random_eb_map(rng, 2)
        u = superop.unitary_conjugation(random_unitary(rng, 2))
        v = superop.unitary_conjugation(random_unitary(rng, 2))
        a = classify.classify_map(phi)
        b = classify.classify_map(u @ phi @ v)
        assert (a.is_cp, a.is_cocp, a.is_ppt, a.eb_status) == (
            b.is_cp,
            b.is_cocp,
            b.is_ppt,
            b.eb_status,
        )


class TestInteriorCertificate:
    def test_maximally_mixed_projector_qubit(self):
        cert = classify.interior_certificate(classify.projector_onto_state(np.eye(2) / 2))
        assert cert.certified
        assert cert.path == "strict_ppt_qubit"
        assert not cert.boundary

    def test_pure_state_projector_is_boundary(self):
        cert = classify.interior_certificate(
            classify.projector_onto_state(np.diag([1.0, 0.0]))
        )
        assert not cert.certified
        assert cert.boundary

    def test_eternal_limit_is_interior(self):
        fam = families.eternal_nm(2.0)
        lam_inf = asymptotics.asymptotic_map(fam)
        cert = classify.interior_certificate(lam_inf)
        assert cert.certified
        # both spectra sit strictly inside: {1/4, 1/2, 1/2, 3/4}
        assert choi_min_eig(lam_inf) == pytest.approx(0.25, abs=1e-9)
        assert choi_pt_min_eig(lam_inf) == pytest.approx(0.25, abs=1e-9)

    def test_qutrit_ball_path(self):
        cert = classify.interior_certificate(classify.projector_onto_state(np.eye(3) / 3))
        assert cert.certified
        assert cert.path == "state_projector_ball"
        assert cert.radius > 0
        assert cert.distance < cert.radius

    def test_eb_certify_interior_wrapper(self):
        assert classify.eb_certify_interior(classify.projector_onto_state(np.eye(2) / 2))
        assert not classify.eb_certify_interior(superop.transpose_map(2))

    def test_perturbations_inside_ball_stay_certified(self):
        rng = np.random.default_rng(20)
        omega = np.diag([0.6, 0.4])
        p = classify.projector_onto_state(omega)
        cert = classify.interior_certificate(p)
        assert cert.certified
        for _ in range(25):
            delta = random_hp_map(rng, 2).matrix
            delta *= 0.01 / np.linalg.norm(delta, 2)
            rep = classify.classify_map(superop.Superoperator(p.matrix + delta, 2))
            assert rep.eb_status == classify.EB_CERTIFIED


class TestSharedWitnessPath:
    """classify_map, witness_pair and interior_certificate agree exactly."""

    @staticmethod
    def _maps(rng, d):
        # indefinite and shifted random maps, then PPT maps near I (x) omega
        # on both sides of the ball radius min_eig(omega) / 2
        maps = [random_hp_map(rng, d, shift=shift) for shift in (0.0, 2.0, 6.0)]
        for scale in (0.05, 0.2, 0.4, 0.6, 0.8, 0.95):
            omega = random_density(rng, d)
            lam = np.linalg.eigvalsh(omega)[0]
            h = random_hp_map(rng, d).matrix
            h *= scale * lam / np.linalg.norm(h, 2)
            p = classify.projector_onto_state(omega)
            maps.append(superop.Superoperator(p.matrix + h, d))
        return maps

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_floors_match_witness_pair(self, d):
        rng = np.random.default_rng(30 + d)
        for phi in self._maps(rng, d):
            rep = classify.classify_map(phi)
            assert (rep.min_eig_choi, rep.min_eig_choi_pt) == asymptotics.witness_pair(phi)

    @pytest.mark.parametrize("d", [3, 4])
    def test_ppt_verdict_is_interior_certificate(self, d):
        rng = np.random.default_rng(40 + d)
        seen = set()
        for _ in range(4):
            for phi in self._maps(rng, d):
                rep = classify.classify_map(phi)
                if not rep.is_ppt:
                    continue
                certified = classify.interior_certificate(phi).certified
                assert (rep.eb_status == classify.EB_CERTIFIED) == certified
                seen.add(certified)
        assert seen == {True, False}


class TestStateProjector:
    def test_trace_validation(self):
        with pytest.raises(TraceNotOneError):
            classify.projector_onto_state(np.diag([1.0, 1.0]))

    def test_idempotent(self):
        p = classify.projector_onto_state(random_density(np.random.default_rng(21), 3))
        np.testing.assert_allclose((p @ p).matrix, p.matrix, atol=1e-13)

    def test_choi_is_tensor_with_state(self):
        omega = np.diag([0.7, 0.3])
        c = superop.to_choi(classify.projector_onto_state(omega))
        np.testing.assert_allclose(c.matrix, matcore.kron(np.eye(2), omega), atol=1e-14)


class TestPositivityWitness:
    def test_transpose_map_is_positive(self):
        assert classify.positivity_witness(superop.transpose_map(2)) >= -1e-9

    def test_cp_map_is_positive(self):
        rng = np.random.default_rng(30)
        assert classify.positivity_witness(random_cptp(rng, 2)) >= -1e-9

    def test_shifted_swap_detected(self):
        swap = superop.to_choi(superop.transpose_map(2)).matrix
        phi = superop.from_choi(superop.ChoiMatrix(swap - 0.5 * np.eye(4), 2))
        w = classify.positivity_witness(phi)
        assert w == pytest.approx(-0.5, abs=1e-6)

    def test_deterministic_across_calls(self):
        phi = superop.transpose_map(3)
        assert classify.positivity_witness(phi) == classify.positivity_witness(phi)


def test_mapping_cone_composition_small():
    # sandwiching an EB map between CP maps must not leave the EB cone
    rng = np.random.default_rng(40)
    for _ in range(30):
        eb = random_eb_map(rng, 2)
        pre, post = random_cptp(rng, 2), random_cptp(rng, 2)
        rep = classify.classify_map(post @ eb @ pre)
        assert rep.eb_status == classify.EB_CERTIFIED
