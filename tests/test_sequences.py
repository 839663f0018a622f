import dataclasses
import sys

import numpy as np
import pytest

from aqradius import (
    Budget,
    EnvelopeViolation,
    OperatorSequence,
    Weight,
    sequences,
    trace_gaps,
    trace_q,
    trace_to_csv,
)
from aqradius import radius, semispace
from conftest import crandn, random_pd_weight

EX1 = np.array([[0.0, 1.0 / 70.0], [0.0, 0.0]], dtype=complex)
EX2 = np.array([[0.0, 1.0 / 24.0], [0.0, 0.0]], dtype=complex)
I2 = Weight.identity(2)
FAST = Budget(restarts=16, iterations=150)
SHORT = (1, 2, 4, 8, 16, 32)


def two_point(m, big, q, crawford):
    """omega_q or c_q of a Hermitian operator with spectrum spanning [m, big]: the ellipse's vertices."""
    centre, half = abs(q) * (m + big) / 2, (big - m) / 2
    return max(0.0, centre - half) if crawford else centre + half


def assert_multiplication_trace(trace, q, crawford, low=0.0, gap=False):
    """Values and target of a trace of diag(1 + x_i / n), x_i >= `low` on the weight's range, within 1e-12.

    Every term is Hermitian, so each value is the two-point formula on its
    spectrum [1 + low / n, 1 + 1 / n]; the limit I gives |q|.  A gap subtracts
    the value from the seminorm 1 + 1 / n.
    """
    assert trace.target == pytest.approx(1.0 - abs(q) if gap else abs(q), abs=1e-12)
    for n, value in zip(trace.indices, trace.values):
        big = 1.0 + 1.0 / n
        exact = two_point(1.0 + low / n, big, q, crawford)
        assert value == pytest.approx(big - exact if gap else exact, abs=1e-12)


def scaled_sequence(base, weight):
    """T_n = (1 + 1/n) * base, which converges uniformly to base."""
    return OperatorSequence(weight, lambda n: (1.0 + 1.0 / n) * base, base)


class TestTraceRadius:
    def test_scaled_example1_rates_follow_scaling(self):
        seq = scaled_sequence(EX1, I2)
        trace = sequences.trace(seq, "radius", 0.5, indices=SHORT, budget=FAST)
        target = (1 + np.sqrt(0.75)) / 140
        assert trace.target == pytest.approx(target, abs=1e-6)
        # the q-radius is positively homogeneous, so the rate is target / n
        for n, rate in zip(trace.indices, trace.rates):
            assert rate == pytest.approx(target / n, abs=1e-6)

    def test_constant_sequence_has_zero_rates(self, rng):
        t = crandn(rng, 2, 2)
        seq = OperatorSequence(I2, lambda n: t, t)
        trace = sequences.trace(seq, "radius", 0.7, indices=SHORT, budget=FAST)
        for rate in trace.rates:
            assert rate <= 1e-9

    def test_multiplication_rule_converges_to_q_modulus(self):
        seq = OperatorSequence.multiplication(
            psi=lambda x: 1.0 + x, phi=lambda n, x: 1.0 + x / n, grid_points=64
        )
        trace = sequences.trace(seq, "radius", 0.5, indices=SHORT, budget=FAST)
        assert_multiplication_trace(trace, 0.5, crawford=False)

    def test_envelope_violation_detected_for_wrong_limit(self, rng):
        t = crandn(rng, 2, 2)
        wrong_limit = t + np.eye(2)
        seq = OperatorSequence(I2, lambda n: t, wrong_limit)
        with pytest.raises(EnvelopeViolation, match="does not decay"):
            sequences.trace(seq, "radius", 0.9, indices=(64, 128), budget=FAST)

    def test_estimate_outside_its_envelope_detected(self, rng, monkeypatch):
        # an estimator 1e-2 high on each term T + 1e-3 I / n and exact at the limit T: the
        # deviations decay, so only the envelope, at most 1e-3 + 5e-3, can catch it
        t = crandn(rng, 2, 2)
        exact_radius = sequences.aq_radius

        def high_off_the_limit(w, t_n, q, **kwargs):
            est = exact_radius(w, t_n, q, **kwargs)
            return est if np.array_equal(t_n, t) else dataclasses.replace(est, value=est.value + 1e-2)

        monkeypatch.setattr(sequences, "aq_radius", high_off_the_limit)
        seq = OperatorSequence.perturbation(I2, t, 1e-3 * np.eye(2))
        message = r"^radius trace: \|value - target\| = .* exceeds envelope .* at n = 1$"
        with pytest.raises(EnvelopeViolation, match=message):
            sequences.trace(seq, "radius", 0.7, indices=SHORT, budget=FAST)

    def test_growing_deviation_detected(self, rng):
        t = crandn(rng, 2, 2)
        seq = OperatorSequence(I2, lambda n: t + n * np.eye(2), t)
        with pytest.raises(EnvelopeViolation, match="grows"):
            sequences.trace(seq, "radius", 0.9, indices=(1, 2), budget=FAST)


class TestTraceCrawford:
    def test_constant_sequence(self, rng):
        t = crandn(rng, 2, 2)
        seq = OperatorSequence(I2, lambda n: t, t)
        trace = sequences.trace(seq, "crawford", 0.6, indices=SHORT, budget=FAST)
        for rate in trace.rates:
            assert rate <= 1e-9

    def test_perturbed_scalar_target(self):
        base = np.eye(2) / 20
        seq = OperatorSequence.perturbation(I2, base, np.eye(2))
        trace = sequences.trace(seq, "crawford", 0.8, indices=SHORT, budget=FAST)
        assert trace.target == pytest.approx(0.8 / 20, abs=1e-9)
        for n, value in zip(trace.indices, trace.values):
            # T_n is the scalar (1/20 + 1/n) I, so the value is q * that scalar
            assert value == pytest.approx(0.8 * (1 / 20 + 1 / n), abs=1e-6)

    def test_multiplication_rule_target(self):
        seq = OperatorSequence.multiplication(
            psi=lambda x: 1.0 + x, phi=lambda n, x: 1.0 + x / n, grid_points=32
        )
        trace = sequences.trace(seq, "crawford", 0.3, indices=SHORT, budget=FAST)
        assert_multiplication_trace(trace, 0.3, crawford=True)

    def test_envelope_violation_detected_for_wrong_limit(self, rng):
        t = crandn(rng, 2, 2)
        seq = OperatorSequence(I2, lambda n: t, t + np.eye(2))
        with pytest.raises(EnvelopeViolation, match="does not decay"):
            sequences.trace(seq, "crawford", 0.9, indices=(64, 128), budget=FAST)


class TestTraceQ:
    def test_example2_envelope_from_closed_forms(self):
        q_list = [1.0 - 1.0 / (n * n) for n in range(2, 12)]
        trace = trace_q(I2, EX2, q_list, budget=FAST)
        assert trace.target == pytest.approx(1 / 48, abs=1e-9)
        for q, value, env in zip(q_list, trace.values, trace.envelopes):
            assert value == pytest.approx((1 + np.sqrt(1 - q * q)) / 48, abs=1e-6)
            assert env == pytest.approx(np.sqrt(2 * (1 - q)) / 24 + 5e-3, abs=1e-12)

    def test_constant_q_one(self, rng):
        t = crandn(rng, 2, 2)
        trace = trace_q(I2, t, [1.0, 1.0, 1.0], budget=FAST)
        for rate in trace.rates:
            assert rate <= 2e-6

    def test_complex_q_sequence(self, rng):
        t = crandn(rng, 2, 2)
        q_list = [(1 - 1 / n) + 1j / (n * n) for n in range(2, 8)]
        trace = trace_q(I2, t, q_list, budget=FAST)
        assert len(trace.values) == len(q_list)

    def test_crawford_variant(self, rng):
        w = random_pd_weight(rng, 2)
        t = crandn(rng, 2, 2)
        q_list = [1.0 - 1.0 / (n * n) for n in range(2, 8)]
        trace = trace_q(w, t, q_list, budget=FAST, kind="crawford")
        assert len(trace.values) == len(q_list)

    def test_q_sequence_not_tending_to_one_detected(self, rng):
        with pytest.raises(EnvelopeViolation, match="does not decay"):
            trace_q(I2, crandn(rng, 2, 2), [0.5, 0.5, 0.5], budget=FAST)

    def test_rejects_unknown_kind(self, rng):
        with pytest.raises(ValueError, match="kind"):
            trace_q(I2, crandn(rng, 2, 2), [0.9], kind="nope")

    def test_rejects_gap_kind(self, rng):
        # a gap has no q = 1 estimator for the limit of a q-sequence
        with pytest.raises(ValueError, match="kind must be 'radius' or 'crawford'"):
            trace_q(I2, crandn(rng, 2, 2), [0.9], kind="gap_omega")


class TestTraceGaps:
    def test_multiplication_discretization_gap(self):
        seq = OperatorSequence.multiplication(
            psi=lambda x: 1.0 + x, phi=lambda n, x: 1.0 + x / n, grid_points=64
        )
        gw, gc = trace_gaps(seq, 0.5, indices=SHORT, budget=FAST)
        assert_multiplication_trace(gw, 0.5, crawford=False, gap=True)
        assert_multiplication_trace(gc, 0.5, crawford=True, gap=True)

    def test_constant_sequence(self, rng):
        t = crandn(rng, 2, 2)
        seq = OperatorSequence(I2, lambda n: t, t)
        gw, gc = trace_gaps(seq, 0.4, indices=SHORT, budget=FAST)
        for rate in gw.rates + gc.rates:
            assert rate <= 1e-8

    def test_direct_sum_blockwise_limit_bound(self, rng):
        # S_n + M_n block-diagonal: the limiting omega-gap obeys the block bound
        s = np.eye(2, dtype=complex)
        m = np.array([[0, 1], [0, 0]], dtype=complex)
        a = np.eye(4, dtype=complex)
        t_lim = np.zeros((4, 4), dtype=complex)
        t_lim[:2, :2] = s
        t_lim[2:, 2:] = m
        w4 = Weight(a)
        seq = OperatorSequence(w4, lambda n: (1 + 1 / n) * t_lim, t_lim)
        q = 0.6
        gw, _ = trace_gaps(seq, q, indices=SHORT, budget=FAST)
        from aqradius import aq_radius, a_opnorm

        gap_s = a_opnorm(I2, s) - aq_radius(I2, s, q, FAST).value
        gap_m = a_opnorm(I2, m) - aq_radius(I2, m, q, FAST).value
        assert gw.target <= max(gap_s, gap_m) + 5e-3

    def test_grid_doubling_stability(self):
        # the limiting gap does not depend on the discretization size
        targets = []
        for grid_points in (64, 128):
            seq = OperatorSequence.multiplication(
                psi=lambda x: 1.0 + x, phi=lambda n, x: 1.0 + x / n, grid_points=grid_points
            )
            gw, _ = trace_gaps(seq, 0.5, indices=(1, 2), budget=FAST)
            assert_multiplication_trace(gw, 0.5, crawford=False, gap=True)
            targets.append(gw.target)
        assert abs(targets[0] - targets[1]) < 1e-12

    def test_envelope_violation_detected_for_wrong_limit(self, rng):
        t = crandn(rng, 2, 2)
        seq = OperatorSequence(I2, lambda n: t, t + np.eye(2))
        with pytest.raises(EnvelopeViolation, match="does not decay"):
            trace_gaps(seq, 0.9, indices=(64, 128), budget=FAST)


class TestSequenceTypes:
    def test_explicit_rule(self, rng):
        mats = [crandn(rng, 2, 2) for _ in range(4)]
        seq = OperatorSequence.explicit(I2, mats, mats[-1])
        np.testing.assert_array_equal(seq.term(2), mats[1])
        with pytest.raises(IndexError):
            seq.term(9)

    def test_deviation_is_opnorm_distance(self, rng):
        t = crandn(rng, 2, 2)
        seq = OperatorSequence.perturbation(I2, t, np.eye(2))
        assert seq.deviation(4) == pytest.approx(0.25, abs=1e-12)

    def test_psd_weight_path_for_vanishing_density(self):
        # density vanishing at the left endpoint routes through the PSD machinery
        seq = OperatorSequence.multiplication(
            psi=lambda x: x, phi=lambda n, x: 1.0 + x / n, grid_points=16
        )
        assert seq.weight.rank == 15
        trace = sequences.trace(seq, "radius", 0.9, indices=(1, 2, 4), budget=FAST)
        assert_multiplication_trace(trace, 0.9, crawford=False, low=1.0 / 15.0)


def test_trace_to_csv(tmp_path, rng):
    t = crandn(rng, 2, 2)
    seq = OperatorSequence(I2, lambda n: t, t)
    trace = sequences.trace(seq, "radius", 0.5, indices=(1, 2), budget=FAST)
    path = tmp_path / "trace.csv"
    trace_to_csv(trace, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "n,value,target,rate,envelope"
    assert len(lines) == 3


def test_trace_rejects_unknown_quantity():
    seq = scaled_sequence(EX1, I2)
    with pytest.raises(ValueError, match="quantity must be one of radius, crawford, gap_omega, gap_c"):
        sequences.trace(seq, "norm", 0.5, indices=(1, 2), budget=FAST)


def test_wrappers_on_the_estimator_bindings_see_every_call(rng, monkeypatch):
    # a wrapper installed on sequences.aq_radius or aq_crawford (a profiler, a mock) sees every
    # estimator call of the traces: one at the target and one per index for each quantity
    calls = {"aq_radius": 0, "aq_crawford": 0}
    for name, original in ((name, getattr(sequences, name)) for name in calls):

        def counted(*args, name=name, original=original, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(sequences, name, counted)
    t = crandn(rng, 2, 2)
    seq = OperatorSequence.perturbation(I2, t, 1e-3 * np.eye(2))
    per_trace = 1 + len(SHORT)
    for quantity in ("radius", "crawford", "gap_omega", "gap_c"):
        name = "aq_radius" if quantity in ("radius", "gap_omega") else "aq_crawford"
        before = dict(calls)
        sequences.trace(seq, quantity, 0.7, indices=SHORT, budget=FAST)
        assert calls == {**before, name: before[name] + per_trace}
    before = dict(calls)
    trace_q(I2, t, [0.5, 0.9, 0.99], budget=FAST, kind="crawford")
    assert calls == {**before, "aq_crawford": before["aq_crawford"] + 4}
    before = dict(calls)
    trace_gaps(seq, 0.7, indices=SHORT, budget=FAST)
    assert calls == {name: before[name] + per_trace for name in calls}


@pytest.mark.parametrize("indices", [(1, 4), (1, 4, 16), SHORT])
def test_trace_gaps_reduces_each_operator_once(monkeypatch, indices):
    # the seminorm of T_n reduces it into the cache the estimators' preparation starts from, so
    # the limit takes one reduction and each index two (T_n - T and T_n), every binding counted
    calls, original = [], semispace._reduce

    def counted(*args):
        calls.append(args)
        return original(*args)

    for module in [m for key, m in sys.modules.items() if key.split(".")[0] == "aqradius"]:
        if getattr(module, "_reduce", None) is original:
            monkeypatch.setattr(module, "_reduce", counted)
    radius._prepare.cache_clear()
    semispace._unit_reduction.cache_clear()
    seq = OperatorSequence.multiplication(psi=lambda x: 1.0 + x, phi=lambda n, x: 1.0 + x / n, grid_points=8)
    trace_gaps(seq, 0.6, indices=indices, budget=FAST)
    assert len(calls) == 1 + 2 * len(indices)
