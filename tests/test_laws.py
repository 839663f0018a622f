import json
from dataclasses import replace

import numpy as np
import pytest

from aqradius import (
    Budget,
    SuiteConfig,
    Weight,
    a_opnorm,
    aq_radius,
    canonical_2x2,
    check_law,
    q_radius_2x2,
    reports_csv_summary,
    reports_to_jsonl,
    run_suite,
    summarize_reports,
)
from aqradius.laws import _LAWS, ESTIMATED, _random_instance
from conftest import crandn, random_pd_weight, random_q

EX1 = np.array([[0.0, 1.0 / 70.0], [0.0, 0.0]], dtype=complex)
I2 = Weight.identity(2)
FAST = Budget(restarts=16, iterations=150)


class TestT1_1:
    def test_example1_values(self):
        (rep,) = check_law("t1_1", I2, EX1, 0.5)
        assert rep.passed
        assert rep.lhs == pytest.approx((1 + np.sqrt(0.75)) / 140, abs=1e-6)
        assert rep.rhs == pytest.approx(1 / 70, abs=1e-15)

    def test_zero_matrix(self):
        (rep,) = check_law("t1_1", I2, np.zeros((2, 2)), 0.7)
        assert rep.passed and rep.lhs == 0.0 and rep.rhs == 0.0

    def test_random_weighted_complex_q(self, rng):
        w = random_pd_weight(rng, 4)
        (rep,) = check_law("t1_1", w, crandn(rng, 4, 4), 0.3 + 0.2j, budget=FAST)
        assert rep.passed

    def test_slack_definition(self):
        (rep,) = check_law("t1_1", I2, EX1, 0.5)
        assert rep.slack == rep.rhs - rep.lhs


class TestT1_23:
    def test_alpha_one_identity(self, rng):
        w = random_pd_weight(rng, 2)
        t = crandn(rng, 2, 2)
        for rep in check_law("t1_23", w, t, 0.6, alpha=1.0, budget=FAST):
            assert rep.passed
            assert rep.kind == "eq"

    def test_alpha_i_on_example1(self):
        for rep in check_law("t1_23", I2, EX1, 0.5, alpha=1j, budget=FAST):
            assert rep.passed

    def test_random_phase(self, rng):
        w = random_pd_weight(rng, 3)
        alpha = np.exp(1j * np.pi / 3)
        for rep in check_law("t1_23", w, crandn(rng, 3, 3), random_q(rng), alpha=alpha, budget=FAST):
            assert rep.passed

    def test_rejects_non_unimodular(self):
        with pytest.raises(ValueError, match="unimodular"):
            check_law("t1_23", I2, EX1, 0.5, alpha=2.0)


class TestT1_45:
    def test_mu_zero_reduces_to_radius_comparison(self, rng):
        # gamma = 1 and the composite parameter is 1: both sides of t1_4 are omega_A(T)
        w = random_pd_weight(rng, 2)
        t = crandn(rng, 2, 2)
        rep4, rep5 = check_law("t1_45", w, t, 0.5, coefficients=(1.0, 0.0), budget=FAST)
        assert rep4.passed and rep5.passed
        assert rep4.lhs == rep4.rhs

    def test_equal_coefficients_at_q_one(self, rng):
        # gamma = 2 and the composite parameter is 1
        w = random_pd_weight(rng, 2)
        t = crandn(rng, 2, 2)
        rep4, rep5 = check_law("t1_45", w, t, 1.0, coefficients=(1.0, 1.0), budget=FAST)
        assert rep4.passed and rep5.passed
        assert rep4.lhs == pytest.approx(2.0 * aq_radius(w, t, 1.0, FAST).value, rel=1e-14)

    def test_random_combo_on_example1(self, rng):
        lam = complex(*rng.standard_normal(2))
        mu = complex(*rng.standard_normal(2))
        for rep in check_law("t1_45", I2, EX1, 0.5, coefficients=(lam, mu), budget=FAST):
            assert rep.passed or rep.skipped

    def test_out_of_domain_composite_is_skipped(self):
        # lambda = -mu conj(q) makes the composite parameter vanish
        rep4, rep5 = check_law("t1_45", I2, EX1, 0.5, coefficients=(-0.5, 1.0), budget=FAST)
        assert rep4.skipped and rep5.skipped
        assert rep4.skip_reason == rep5.skip_reason == "composite parameter |0.0000| outside (0, 1]"

    def test_vanishing_gamma_is_skipped(self):
        # lambda = mu = 1 at q = -1 gives gamma = 0
        reports = check_law("t1_45", I2, EX1, -1.0, coefficients=(1.0, 1.0), budget=FAST)
        assert [(r.law_id, r.skipped, r.skip_reason) for r in reports] == [
            (law_id, True, "degenerate combination: gamma vanishes") for law_id in ("t1_4", "t1_5")
        ]

    @pytest.mark.parametrize("c", [1e-13, 1e-100, 1e100])
    def test_degeneracy_is_relative(self, c):
        # gamma is homogeneous in (lambda, mu), so small coefficients are no degeneracy:
        # an absolute 1e-24 floor on gamma^2 rejected (1e-13, 1e-13) at q = 1/2.  Both
        # sides scale with c, and the verdicts do not move.
        lam, mu = 0.3 - 0.7j, -1.2 + 0.4j
        unit = check_law("t1_45", I2, EX1, 0.5, coefficients=(lam, mu), budget=FAST)
        scaled = check_law("t1_45", I2, EX1, 0.5, coefficients=(c * lam, c * mu), budget=FAST)
        for rep, big in zip(unit, scaled):
            assert not big.skipped and big.passed == rep.passed
            assert big.lhs == pytest.approx(c * rep.lhs, rel=1e-12)
            assert big.rhs == pytest.approx(c * rep.rhs, rel=1e-12)
        for rep in check_law("t1_45", I2, EX1, 1.0, coefficients=(c, -c), budget=FAST):
            assert rep.skipped and rep.skip_reason == "degenerate combination: gamma vanishes"

    @pytest.mark.parametrize("c", [1e-310, 1e-300, 5e307])
    def test_reports_do_not_move_under_a_scaled_weight(self, c):
        # the weighted adjoint is formed at unit size: at 1e-310, 1/lambda overflowed
        # and the partner operator A^+ T^H A was not finite
        t, coefficients = np.array([[0.2 + 0.1j, 1.0], [-0.4j, 0.5]]), (0.8, 0.5j)
        unit = check_law("t1_45", Weight.diagonal([1.0, 3.0]), t, 0.6, coefficients=coefficients, budget=FAST)
        scaled = check_law("t1_45", Weight.diagonal([c, 3.0 * c]), t, 0.6, coefficients=coefficients, budget=FAST)
        for rep, other in zip(unit, scaled):
            assert other.passed == rep.passed
            assert other.lhs == pytest.approx(rep.lhs, rel=1e-12)
            assert other.rhs == pytest.approx(rep.rhs, rel=1e-12)

    def test_ordinary_adjoint_is_provably_wrong_on_skewed_weights(self):
        # frozen counterexample: the weighted-adjoint law is tight, while T^H in
        # place of A^+ T^H A would break t1_4, omega_q(T) <= omega_q(T^H), by > 1
        w = Weight.diagonal([0.13068786, 5.87507209])
        t = np.array(
            [
                [0.73303637 - 1.18155947j, -0.93334894 - 0.07051679j],
                [-2.36433882 + 1.37903417j, 0.17396438 + 0.08697082j],
            ]
        )
        q = 0.021787300301263524
        budget = Budget(32, 300)
        good4, good5 = check_law("t1_45", w, t, q, coefficients=(0.0, 1.0), budget=budget)
        assert good4.passed and good5.passed
        assert aq_radius(w, t.conj().T, q, budget).value < aq_radius(w, t, q, budget).value - 1.0


class TestT1_78:
    def test_closed_forms_on_example1(self):
        rep7, rep8 = check_law("t1_78", I2, EX1, 0.5, budget=FAST)
        assert rep7.passed and rep8.passed
        assert rep7.lhs == pytest.approx(1 / 140, abs=1e-7)

    def test_near_degenerate_q(self):
        rep7, rep8 = check_law("t1_78", I2, EX1, 0.99, budget=FAST)
        assert rep7.passed and rep8.passed

    def test_zero_matrix(self):
        for rep in check_law("t1_78", I2, np.zeros((2, 2)), 0.5):
            assert rep.passed

    def test_q_one_skips(self):
        rep7, rep8 = check_law("t1_78", I2, EX1, 1.0)
        assert rep7.skipped and rep8.skipped


class TestNote:
    def test_boundary_req_one(self, rng):
        w = random_pd_weight(rng, 2)
        (rep,) = check_law("note", w, crandn(rng, 2, 2), 1.0, budget=FAST)
        assert rep.passed

    def test_vacuous_when_req_half(self, rng):
        (rep,) = check_law("note", I2, crandn(rng, 2, 2), 0.5, budget=FAST)
        assert rep.passed
        assert rep.lhs <= 0

    def test_example1_tight_q(self):
        (rep,) = check_law("note", I2, EX1, 0.9, budget=FAST)
        assert rep.passed
        expected_lhs = (1 - np.sqrt(2 * 0.1)) / 140
        assert rep.lhs == pytest.approx(expected_lhs, abs=1e-7)


class TestT2:
    def test_example1_chain_on_real_grid(self):
        for q in np.linspace(0.05, 1.0, 8):
            lower, upper = check_law("t2", I2, EX1, q, budget=FAST)
            assert lower.passed and upper.passed

    def test_equality_at_q_one(self, rng):
        w = random_pd_weight(rng, 2)
        t = crandn(rng, 2, 2)
        lower, upper = check_law("t2", w, t, 1.0, budget=FAST)
        assert lower.passed and upper.passed
        assert lower.lhs == pytest.approx(lower.rhs, abs=5e-3)

    def test_complex_q_random(self, rng):
        w = random_pd_weight(rng, 3)
        lower, upper = check_law("t2", w, crandn(rng, 3, 3), 0.5 + 0.5j, budget=FAST)
        assert lower.passed and upper.passed


class TestT3AndCor1:
    def test_identity_factors_make_chain_tight(self):
        reports = check_law("t3", I2, np.eye(2), 0.6, partner=(I2, np.eye(2), 0.5), budget=FAST)
        for rep in reports:
            assert rep.passed
            assert rep.lhs == pytest.approx(rep.rhs, abs=1e-6)

    def test_nilpotent_pair(self):
        n = np.array([[0, 1], [0, 0]], dtype=complex)
        for rep in check_law("t3", I2, n, 0.8, partner=(I2, n, 0.8), budget=FAST):
            assert rep.passed

    def test_weighted_diagonal_factors(self, rng):
        w1 = Weight.diagonal([1.0, 2.0])
        w2 = Weight.diagonal([1.0, 3.0])
        reports = check_law("t3", w1, crandn(rng, 2, 2), 0.7, partner=(w2, crandn(rng, 2, 2), 0.9), budget=FAST)
        for rep in reports:
            assert rep.passed

    def test_cor1_scalar_factors_are_tight(self):
        reports = check_law("cor1", I2, 2.0 * np.eye(2), 0.8, partner=(I2, 3.0 * np.eye(2), 0.5), budget=FAST)
        assert len(reports) == 4
        for rep in reports:
            assert rep.passed and not rep.skipped
            assert rep.lhs == pytest.approx(rep.rhs, abs=1e-5)

    def test_cor1_skips_vanishing_crawford(self):
        n = np.array([[0, 1], [0, 0]], dtype=complex)
        reports = check_law("cor1", I2, n, 0.5, partner=(I2, np.eye(2), 0.5), budget=FAST)
        # c of the nilpotent factor is 0: the two laws dividing by it are skipped
        assert reports[0].skipped
        assert any(not rep.skipped and rep.passed for rep in reports)

    def test_cor1_positive_crawford_factor(self, rng):
        reports = check_law("cor1", I2, 2.0 * np.eye(2), 0.9, partner=(I2, crandn(rng, 2, 2), 0.6), budget=FAST)
        for rep in reports:
            assert rep.passed or rep.skipped


class TestT4T5:
    def test_example2_curve_values(self):
        t = np.array([[0, 1 / 24], [0, 0]], dtype=complex)
        q = 0.6
        (rep,) = check_law("t4_1", I2, t, q, budget=FAST)
        assert rep.passed
        assert rep.lhs == pytest.approx(np.sqrt(1 - q * q) / 48, abs=1e-6)
        assert rep.rhs == pytest.approx(np.sqrt(2 * (1 - q)) / 24, abs=1e-12)

    def test_example3_scalar_curve(self):
        t = np.eye(2) / 20
        q = 0.3
        (rep,) = check_law("t4_1", I2, t, q, budget=FAST)
        assert rep.passed
        assert rep.lhs == pytest.approx((1 - q) / 20, abs=1e-9)

    def test_example4_jordan_curve(self):
        t = np.diag([1.0, 1.0], k=1).astype(complex)
        (rep,) = check_law("t4_1", Weight.identity(3), t, 0.75, budget=FAST)
        assert rep.passed
        assert rep.rhs == pytest.approx(np.sqrt(0.5), abs=1e-12)

    def test_t5_1_scalar_family(self):
        t = np.eye(2) / 20
        (rep,) = check_law("t5_1", I2, t, 0.4, budget=FAST)
        assert rep.passed
        assert rep.lhs == pytest.approx((1 - 0.4) / 20, abs=1e-9)

    def test_t5_3_identical_operators(self, rng):
        t = crandn(rng, 2, 2)
        (rep,) = check_law("t5_3", I2, t, 0.7, s=t, budget=FAST)
        assert rep.passed
        assert rep.lhs == pytest.approx(0.0, abs=1e-9)
        assert rep.rhs == pytest.approx(0.0, abs=1e-9)

    def test_t5_3_small_shift(self, rng):
        t = crandn(rng, 3, 3)
        (rep,) = check_law("t5_3", Weight.identity(3), t, 0.6, s=t + 0.05 * np.eye(3), budget=FAST)
        assert rep.passed


class TestApp1:
    def test_equal_blocks(self, rng):
        t = crandn(rng, 2, 2)
        rep_omega, rep_crawford = check_law("app1", I2, t, 0.5, partner=(I2, t, 0.5), budget=FAST)
        assert rep_omega.passed and rep_crawford.passed
        assert rep_omega.lhs == pytest.approx(rep_omega.rhs, abs=5e-3)

    def test_identity_and_nilpotent_blocks(self):
        n = np.array([[0, 1], [0, 0]], dtype=complex)
        rep_omega, rep_crawford = check_law("app1", I2, np.eye(2), 0.5, partner=(I2, n, 0.5), budget=FAST)
        assert rep_omega.passed and rep_crawford.passed

    def test_weighted_blocks(self, rng):
        w1 = random_pd_weight(rng, 2)
        w2 = random_pd_weight(rng, 2)
        t1, t2, q = crandn(rng, 2, 2), crandn(rng, 2, 2), random_q(rng)
        rep_omega, rep_crawford = check_law("app1", w1, t1, q, partner=(w2, t2, q), budget=FAST)
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

    def test_numpy_integer_budget_serializes(self, rng, tmp_path):
        # Budget stores its fields as plain ints, which json.dumps takes and np.int64 is not
        budget = Budget(np.int64(3), np.int64(20))
        assert [type(v) for v in (budget.restarts, budget.iterations, budget.grid_resolution)] == [int] * 3
        (rep,) = check_law("t1_1", Weight.identity(3), crandn(rng, 3, 3), 0.5, budget=budget)
        path = tmp_path / "reports.jsonl"
        reports_to_jsonl([rep], path)
        parsed = json.loads(path.read_text())
        assert parsed["budget"] == {"restarts": 3, "iterations": 20, "grid_resolution": 256}


LAW_IDS = {
    "t1_1", "t1_2", "t1_3", "t1_4", "t1_5", "t1_7", "t1_8", "note", "t2_lower", "t2_upper",
    "t4_1", "t5_1", "t5_3", "t3_link1", "t3_link2", "t3_link3",
    "cor1_1", "cor1_2", "cor1_3", "cor1_4", "app1_omega", "app1_crawford",
}  # fmt: skip


def check_suite_law(name, inst, budget):
    """check_law on every ingredient of a suite instance; each group reads only its own."""
    partner = (inst.partner.w, inst.partner.t, inst.q2)
    return check_law(name, inst.ev.w, inst.ev.t, inst.q, alpha=inst.alpha, coefficients=inst.coefficients,
                     s=inst.s, partner=partner, budget=budget, seed=inst.seed)


@pytest.fixture(scope="module")
def suite_instance():
    """Instance 0 of suite seed 1 and its suite reports at FAST."""
    config = SuiteConfig(n_instances=1, seed=1, budget=FAST)
    inst = _random_instance(config.seed, 0, config.dims)
    return inst, run_suite(config)


class TestLawTable:
    def test_one_instance_emits_every_law_id_once(self, suite_instance):
        _, reports = suite_instance
        assert sorted(r.law_id for r in reports) == sorted(LAW_IDS)

    @pytest.mark.parametrize("name", sorted(_LAWS))
    def test_public_law_matches_suite_report(self, suite_instance, name):
        # every field, the digest of (A, T, q) included, for the tensor and direct-sum laws too
        inst, suite_reports = suite_instance
        by_id = {r.law_id: r for r in suite_reports}
        reports = check_suite_law(name, inst, FAST)
        assert reports
        for rep in reports:
            assert by_id[rep.law_id].estimator_budget == FAST  # no group of this instance is re-run
            assert rep == by_id[rep.law_id]

    def test_check_law_rejects_unknown_names_and_missing_ingredients(self):
        with pytest.raises(ValueError, match="unknown law 't6'.*t1_1, t1_23"):
            check_law("t6", I2, EX1, 0.5)
        for name, ingredient in [("t1_23", "alpha"), ("t1_45", "coefficients"), ("t5_3", "s"), ("t3", "partner")]:
            with pytest.raises(ValueError, match=f"law '{name}' needs {ingredient}"):
                check_law(name, I2, EX1, 0.5)


class TestLadder:
    def test_suite_and_public_law_rerun_a_failing_group(self):
        # at verify --budget 1, app1_omega fails on two instances of suite seed 0; the
        # suite and check_law both re-run the group at 4x, and the second at 16x
        budget = Budget(1, 8)
        config = SuiteConfig(n_instances=8, seed=0, budget=budget)
        reports = run_suite(config)
        assert all(r.passed for r in reports)
        rerun = [r for r in reports if r.estimator_budget != budget]
        passing_restarts = {"s1158655583-n4-f0a858ca3675": 4, "s2989608534-n4-861c92d42c1a": 16}
        assert sorted((r.instance_digest, r.law_id, r.estimator_budget.restarts) for r in rerun) == [
            (digest, law_id, restarts)
            for digest, restarts in passing_restarts.items()
            for law_id in ("app1_crawford", "app1_omega")
        ]
        instances = {inst.digest: inst for inst in (_random_instance(0, idx, config.dims) for idx in range(8))}
        for digest, restarts in passing_restarts.items():
            inst = instances[digest]
            for factor in (f for f in (1, 4) if f < restarts):  # the runs below the passing one
                scaled = replace(budget, restarts=budget.restarts * factor)
                lhs, rhs = dict(_LAWS["app1"].check(inst, scaled))["app1_omega"]
                assert rhs - lhs < -ESTIMATED[0]
            suite_reports = [r for r in rerun if r.instance_digest == digest]
            public = sorted(check_suite_law("app1", inst, budget), key=lambda r: r.law_id)
            assert public == suite_reports
