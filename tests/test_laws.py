import json

import numpy as np
import pytest

from aqradius import (
    Budget,
    LinComboParams,
    SuiteConfig,
    Weight,
    a_opnorm,
    canonical_2x2,
    law_app1,
    law_cor1,
    law_note,
    law_t1_1,
    law_t1_23,
    law_t1_45,
    law_t1_78,
    law_t2,
    law_t3,
    law_t4_1,
    law_t5_1,
    law_t5_3,
    q_radius_2x2,
    reports_csv_summary,
    reports_to_jsonl,
    run_suite,
    summarize_reports,
)
from aqradius.laws import _random_instance
from conftest import crandn, random_pd_weight, random_q

EX1 = np.array([[0.0, 1.0 / 70.0], [0.0, 0.0]], dtype=complex)
I2 = Weight.identity(2)
FAST = Budget(restarts=16, iterations=150)


class TestT1_1:
    def test_example1_values(self):
        rep = law_t1_1(I2, EX1, 0.5)
        assert rep.passed
        assert rep.lhs == pytest.approx((1 + np.sqrt(0.75)) / 140, abs=1e-6)
        assert rep.rhs == pytest.approx(1 / 70, abs=1e-15)

    def test_zero_matrix(self):
        rep = law_t1_1(I2, np.zeros((2, 2)), 0.7)
        assert rep.passed and rep.lhs == 0.0 and rep.rhs == 0.0

    def test_random_weighted_complex_q(self, rng):
        w = random_pd_weight(rng, 4)
        rep = law_t1_1(w, crandn(rng, 4, 4), 0.3 + 0.2j, budget=FAST)
        assert rep.passed

    def test_slack_definition(self):
        rep = law_t1_1(I2, EX1, 0.5)
        assert rep.slack == rep.rhs - rep.lhs


class TestT1_23:
    def test_alpha_one_identity(self, rng):
        w = random_pd_weight(rng, 2)
        t = crandn(rng, 2, 2)
        for rep in law_t1_23(w, t, 0.6, 1.0, budget=FAST):
            assert rep.passed
            assert rep.kind == "eq"

    def test_alpha_i_on_example1(self):
        for rep in law_t1_23(I2, EX1, 0.5, 1j, budget=FAST):
            assert rep.passed

    def test_random_phase(self, rng):
        w = random_pd_weight(rng, 3)
        alpha = np.exp(1j * np.pi / 3)
        for rep in law_t1_23(w, crandn(rng, 3, 3), random_q(rng), alpha, budget=FAST):
            assert rep.passed

    def test_rejects_non_unimodular(self):
        with pytest.raises(ValueError, match="unimodular"):
            law_t1_23(I2, EX1, 0.5, 2.0)


class TestT1_45:
    def test_mu_zero_reduces_to_radius_comparison(self, rng):
        w = random_pd_weight(rng, 2)
        t = crandn(rng, 2, 2)
        params = LinComboParams.for_q(1.0, 0.0, 0.5)
        assert params.gamma == pytest.approx(1.0)
        rep4, rep5 = law_t1_45(w, t, 0.5, params, budget=FAST)
        assert rep4.passed and rep5.passed

    def test_equal_coefficients_at_q_one(self, rng):
        w = random_pd_weight(rng, 2)
        t = crandn(rng, 2, 2)
        params = LinComboParams.for_q(1.0, 1.0, 1.0)
        assert params.gamma == pytest.approx(2.0)
        rep4, rep5 = law_t1_45(w, t, 1.0, params, budget=FAST)
        assert rep4.passed and rep5.passed

    def test_random_combo_on_example1(self, rng):
        lam = complex(*rng.standard_normal(2))
        mu = complex(*rng.standard_normal(2))
        try:
            params = LinComboParams.for_q(lam, mu, 0.5)
        except ValueError:
            return
        for rep in law_t1_45(I2, EX1, 0.5, params, budget=FAST):
            assert rep.passed or rep.skipped

    def test_out_of_domain_composite_is_skipped(self):
        # lambda = mu = 1 at q = -1 gives gamma -> 0 upfront
        with pytest.raises(ValueError, match="gamma"):
            LinComboParams.for_q(1.0, 1.0, -1.0)
        # lambda = -mu conj(q) makes the composite parameter vanish
        params = LinComboParams.for_q(-0.5, 1.0, 0.5)
        rep4, rep5 = law_t1_45(I2, EX1, 0.5, params, budget=FAST)
        assert rep4.skipped and rep5.skipped
        assert "composite" in rep4.skip_reason

    def test_ordinary_adjoint_is_provably_wrong_on_skewed_weights(self):
        # frozen counterexample: the conjugate-transpose variant fails badly,
        # the weighted-adjoint variant is tight
        w = Weight.diagonal([0.13068786, 5.87507209])
        t = np.array(
            [
                [0.73303637 - 1.18155947j, -0.93334894 - 0.07051679j],
                [-2.36433882 + 1.37903417j, 0.17396438 + 0.08697082j],
            ]
        )
        q = 0.021787300301263524
        params = LinComboParams.for_q(0.0, 1.0, q)
        bad, _ = law_t1_45(w, t, q, params, budget=Budget(32, 300), adjoint="ordinary")
        good4, good5 = law_t1_45(w, t, q, params, budget=Budget(32, 300), adjoint="weighted")
        assert not bad.passed and bad.slack < -1.0
        assert good4.passed and good5.passed

    def test_proof_form_composite_switch(self, rng):
        w = random_pd_weight(rng, 2)
        t = crandn(rng, 2, 2)
        q = 0.4 + 0.3j
        params = LinComboParams.for_q(1.0 + 0.5j, 0.7, q)
        for rep in law_t1_45(w, t, q, params, budget=FAST, composite="proof"):
            assert rep.passed or rep.skipped

    @pytest.mark.parametrize("switch", [{"adjoint": "weightd"}, {"composite": "prof"}])
    def test_rejects_unknown_switch_value(self, switch):
        params = LinComboParams.for_q(1.0, 0.5, 0.5)
        with pytest.raises(ValueError, match="unknown adjoint"):
            law_t1_45(I2, EX1, 0.5, params, **switch)


class TestT1_78:
    def test_closed_forms_on_example1(self):
        rep7, rep8 = law_t1_78(I2, EX1, 0.5, budget=FAST)
        assert rep7.passed and rep8.passed
        assert rep7.lhs == pytest.approx(1 / 140, abs=1e-7)

    def test_near_degenerate_q(self):
        rep7, rep8 = law_t1_78(I2, EX1, 0.99, budget=FAST)
        assert rep7.passed and rep8.passed

    def test_zero_matrix(self):
        for rep in law_t1_78(I2, np.zeros((2, 2)), 0.5):
            assert rep.passed

    def test_q_one_skips(self):
        rep7, rep8 = law_t1_78(I2, EX1, 1.0)
        assert rep7.skipped and rep8.skipped


class TestNote:
    def test_boundary_req_one(self, rng):
        w = random_pd_weight(rng, 2)
        rep = law_note(w, crandn(rng, 2, 2), 1.0, budget=FAST)
        assert rep.passed

    def test_vacuous_when_req_half(self, rng):
        rep = law_note(I2, crandn(rng, 2, 2), 0.5, budget=FAST)
        assert rep.passed
        assert rep.lhs <= 0

    def test_example1_tight_q(self):
        rep = law_note(I2, EX1, 0.9, budget=FAST)
        assert rep.passed
        expected_lhs = (1 - np.sqrt(2 * 0.1)) / 140
        assert rep.lhs == pytest.approx(expected_lhs, abs=1e-7)


class TestT2:
    def test_example1_chain_on_real_grid(self):
        for q in np.linspace(0.05, 1.0, 8):
            lower, upper = law_t2(I2, EX1, q, budget=FAST)
            assert lower.passed and upper.passed

    def test_equality_at_q_one(self, rng):
        w = random_pd_weight(rng, 2)
        t = crandn(rng, 2, 2)
        lower, upper = law_t2(w, t, 1.0, budget=FAST)
        assert lower.passed and upper.passed
        assert lower.lhs == pytest.approx(lower.rhs, abs=5e-3)

    def test_complex_q_random(self, rng):
        w = random_pd_weight(rng, 3)
        lower, upper = law_t2(w, crandn(rng, 3, 3), 0.5 + 0.5j, budget=FAST)
        assert lower.passed and upper.passed


class TestT3AndCor1:
    def test_identity_factors_make_chain_tight(self):
        reports = law_t3(I2, np.eye(2), 0.6, I2, np.eye(2), 0.5, budget=FAST)
        for rep in reports:
            assert rep.passed
            assert rep.lhs == pytest.approx(rep.rhs, abs=1e-6)

    def test_nilpotent_pair(self):
        n = np.array([[0, 1], [0, 0]], dtype=complex)
        for rep in law_t3(I2, n, 0.8, I2, n, 0.8, budget=FAST):
            assert rep.passed

    def test_weighted_diagonal_factors(self, rng):
        w1 = Weight.diagonal([1.0, 2.0])
        w2 = Weight.diagonal([1.0, 3.0])
        reports = law_t3(w1, crandn(rng, 2, 2), 0.7, w2, crandn(rng, 2, 2), 0.9, budget=FAST)
        for rep in reports:
            assert rep.passed

    def test_cor1_scalar_factors_are_tight(self):
        reports = law_cor1(I2, 2.0 * np.eye(2), 0.8, I2, 3.0 * np.eye(2), 0.5, budget=FAST)
        assert len(reports) == 4
        for rep in reports:
            assert rep.passed and not rep.skipped
            assert rep.lhs == pytest.approx(rep.rhs, abs=1e-5)

    def test_cor1_skips_vanishing_crawford(self):
        n = np.array([[0, 1], [0, 0]], dtype=complex)
        reports = law_cor1(I2, n, 0.5, I2, np.eye(2), 0.5, budget=FAST)
        # c of the nilpotent factor is 0: the two laws dividing by it are skipped
        assert reports[0].skipped
        assert any(not rep.skipped and rep.passed for rep in reports)

    def test_cor1_positive_crawford_factor(self, rng):
        reports = law_cor1(I2, 2.0 * np.eye(2), 0.9, I2, crandn(rng, 2, 2), 0.6, budget=FAST)
        for rep in reports:
            assert rep.passed or rep.skipped


class TestT4T5:
    def test_example2_curve_values(self):
        t = np.array([[0, 1 / 24], [0, 0]], dtype=complex)
        q = 0.6
        rep = law_t4_1(I2, t, q, budget=FAST)
        assert rep.passed
        assert rep.lhs == pytest.approx(np.sqrt(1 - q * q) / 48, abs=1e-6)
        assert rep.rhs == pytest.approx(np.sqrt(2 * (1 - q)) / 24, abs=1e-12)

    def test_example3_scalar_curve(self):
        t = np.eye(2) / 20
        q = 0.3
        rep = law_t4_1(I2, t, q, budget=FAST)
        assert rep.passed
        assert rep.lhs == pytest.approx((1 - q) / 20, abs=1e-9)

    def test_example4_jordan_curve(self):
        t = np.diag([1.0, 1.0], k=1).astype(complex)
        rep = law_t4_1(Weight.identity(3), t, 0.75, budget=FAST)
        assert rep.passed
        assert rep.rhs == pytest.approx(np.sqrt(0.5), abs=1e-12)

    def test_t5_1_scalar_family(self):
        t = np.eye(2) / 20
        rep = law_t5_1(I2, t, 0.4, budget=FAST)
        assert rep.passed
        assert rep.lhs == pytest.approx((1 - 0.4) / 20, abs=1e-9)

    def test_t5_3_identical_operators(self, rng):
        t = crandn(rng, 2, 2)
        rep = law_t5_3(I2, t, t, 0.7, budget=FAST)
        assert rep.passed
        assert rep.lhs == pytest.approx(0.0, abs=1e-9)
        assert rep.rhs == pytest.approx(0.0, abs=1e-9)

    def test_t5_3_small_shift(self, rng):
        t = crandn(rng, 3, 3)
        rep = law_t5_3(Weight.identity(3), t, t + 0.05 * np.eye(3), 0.6, budget=FAST)
        assert rep.passed


class TestApp1:
    def test_equal_blocks(self, rng):
        t = crandn(rng, 2, 2)
        rep_omega, rep_crawford = law_app1(I2, t, I2, t, 0.5, budget=FAST)
        assert rep_omega.passed and rep_crawford.passed
        assert rep_omega.lhs == pytest.approx(rep_omega.rhs, abs=5e-3)

    def test_identity_and_nilpotent_blocks(self):
        n = np.array([[0, 1], [0, 0]], dtype=complex)
        rep_omega, rep_crawford = law_app1(I2, np.eye(2), I2, n, 0.5, budget=FAST)
        assert rep_omega.passed and rep_crawford.passed

    def test_weighted_blocks(self, rng):
        w1 = random_pd_weight(rng, 2)
        w2 = random_pd_weight(rng, 2)
        rep_omega, rep_crawford = law_app1(
            w1, crandn(rng, 2, 2), w2, crandn(rng, 2, 2), random_q(rng), budget=FAST
        )
        assert rep_omega.passed and rep_crawford.passed


class TestClosedFormSlacks:
    def test_no_law_violated_on_closed_forms(self):
        # both sides from the ellipse closed forms: slack must be >= -1e-10
        form = canonical_2x2(EX1)
        opnorm = a_opnorm(I2, EX1)
        omega = q_radius_2x2(form, 1.0)
        for q in np.linspace(0.01, 1.0, 25):
            omega_q = q_radius_2x2(form, q)
            # t1_1
            assert opnorm - omega_q >= -1e-10
            # t2 chain
            assert 2 * q * omega - 2 * omega_q <= 1e-10
            assert 2 * omega_q - (2 * omega + 2 * np.sqrt(2 * (1 - q)) * opnorm) <= 1e-10
            # t4_1
            assert abs(omega_q - omega) - np.sqrt(2 * (1 - q)) * opnorm <= 1e-10
            # note
            assert (1 - np.sqrt(2 * (1 - q))) * omega - omega_q <= 1e-10


class TestRunSuite:
    def test_empty_config(self):
        assert run_suite(SuiteConfig(n_instances=0)) == []

    def test_small_suite_is_clean_and_deterministic(self):
        config = SuiteConfig(n_instances=2, seed=7)
        first = run_suite(config)
        second = run_suite(config)
        assert [r.to_dict() for r in first] == [r.to_dict() for r in second]
        assert all(r.passed for r in first)
        assert any(r.skipped for r in first) or len(first) > 20

    def test_reports_are_sorted(self):
        reports = run_suite(SuiteConfig(n_instances=2, seed=3))
        keys = [(r.instance_digest, r.law_id) for r in reports]
        assert keys == sorted(keys)

    def test_summary_and_serialization(self, tmp_path):
        reports = run_suite(SuiteConfig(n_instances=1, seed=1))
        rows = summarize_reports(reports)
        assert all(row["pass_rate"] == 1.0 for row in rows)
        csv_path = tmp_path / "summary.csv"
        jsonl_path = tmp_path / "reports.jsonl"
        reports_csv_summary(reports, csv_path)
        reports_to_jsonl(reports, jsonl_path)
        header = csv_path.read_text().splitlines()[0]
        assert header == "law_id,pass_rate,min_slack"
        lines = jsonl_path.read_text().splitlines()
        assert len(lines) == len(reports)
        parsed = json.loads(lines[0])
        assert {"law_id", "lhs", "rhs", "slack", "pass", "instance_digest"} <= parsed.keys()


LAW_IDS = {
    "t1_1", "t1_2", "t1_3", "t1_4", "t1_5", "t1_7", "t1_8", "note", "t2_lower", "t2_upper",
    "t4_1", "t5_1", "t5_3", "t3_link1", "t3_link2", "t3_link3",
    "cor1_1", "cor1_2", "cor1_3", "cor1_4", "app1_omega", "app1_crawford",
}  # fmt: skip

# each public law called positionally on the ingredients of a suite instance
PUBLIC_LAWS = {
    "t1_1": lambda i, b: law_t1_1(i.ev.w, i.ev.t, i.q, b, i.seed),
    "t1_23": lambda i, b: law_t1_23(i.ev.w, i.ev.t, i.q, i.alpha, b, i.seed),
    "t1_45": lambda i, b: law_t1_45(i.ev.w, i.ev.t, i.q, i.params, b, i.seed),
    "t1_78": lambda i, b: law_t1_78(i.ev.w, i.ev.t, i.q, b, i.seed),
    "note": lambda i, b: law_note(i.ev.w, i.ev.t, i.q, b, i.seed),
    "t2": lambda i, b: law_t2(i.ev.w, i.ev.t, i.q, b, i.seed),
    "t4_1": lambda i, b: law_t4_1(i.ev.w, i.ev.t, i.q, b, i.seed),
    "t5_1": lambda i, b: law_t5_1(i.ev.w, i.ev.t, i.q, b, i.seed),
    "t5_3": lambda i, b: law_t5_3(i.ev.w, i.ev.t, i.s, i.q, b, i.seed),
    "t3": lambda i, b: law_t3(i.ev.w, i.ev.t, i.q, i.partner.w, i.partner.t, i.q2, b, i.seed),
    "cor1": lambda i, b: law_cor1(i.ev.w, i.ev.t, i.q, i.partner.w, i.partner.t, i.q2, b, i.seed),
    "app1": lambda i, b: law_app1(i.ev.w, i.ev.t, i.partner.w, i.partner.t, i.q2, b, i.seed),
}


@pytest.fixture(scope="module")
def suite_instance():
    """Instance 0 of suite seed 1, whose (lambda, mu) is valid, and its suite reports at FAST."""
    config = SuiteConfig(n_instances=1, seed=1, budget=FAST)
    inst = _random_instance(config.seed, 0, config.dims)
    assert inst.params is not None
    return inst, run_suite(config)


class TestLawTable:
    def test_one_instance_emits_every_law_id_once(self, suite_instance):
        _, reports = suite_instance
        assert sorted(r.law_id for r in reports) == sorted(LAW_IDS)

    @pytest.mark.parametrize("name", sorted(PUBLIC_LAWS))
    def test_public_law_matches_suite_report(self, suite_instance, name):
        inst, suite_reports = suite_instance
        by_id = {r.law_id: r for r in suite_reports}
        reports = PUBLIC_LAWS[name](inst, FAST)
        reports = reports if isinstance(reports, tuple) else (reports,)
        for rep in reports:
            suite_rep = by_id[rep.law_id]
            # no near-violation re-run in the suite, so both sides used FAST
            assert suite_rep.estimator_budget == FAST
            assert (rep.lhs, rep.rhs, rep.passed, rep.skipped) == (
                suite_rep.lhs,
                suite_rep.rhs,
                suite_rep.passed,
                suite_rep.skipped,
            )
