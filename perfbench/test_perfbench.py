"""Smoke tests of the benchmark itself, at a tiny size (a few seconds in all).

Run from the repository root:  python -m pytest -q perfbench
"""

import dataclasses
import json

import pytest

import run
import speed
import tracer as tracer_mod

AQ, IMPORT_S = run.import_package()
WORKLOADS = ("small-exact", "dense-large", "verify-suite", "converge-diag")


def _declared(kind: str) -> set[str]:
    with open(run.ROOT / "BENCHMARK.json") as fh:
        return {m["name"] for m in json.load(fh)[kind]}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_workload_emits_every_metric(workload):
    e2e = run.run(AQ, IMPORT_S, workload, seed=3, seconds=0.3, trace=False, tiny=True)
    assert set(e2e) == {"correct", "attempted", "failed", "metrics"}
    assert set(e2e["metrics"]) == _declared("end_to_end") == {m[0] for m in run.END_TO_END}
    assert e2e["attempted"] >= 1
    for name, metric in e2e["metrics"].items():
        # tiny budgets may miss every reference; all other metrics are never 0
        assert metric["value"] >= 0 if name == "ref_agree_frac" else metric["value"] > 0, name
    layers = run.run(AQ, IMPORT_S, workload, seed=3, seconds=0.3, trace=True, tiny=True)
    assert set(layers["metrics"]) == _declared("per_layer")
    json.dumps(e2e), json.dumps(layers)


def test_dense_large_never_reaches_exact():
    layers = run.run(AQ, IMPORT_S, "dense-large", seed=3, seconds=0.3, trace=True, tiny=True)
    assert layers["metrics"]["exact.calls"]["value"] == 0
    assert layers["metrics"]["radius.aq_radius.calls"]["value"] > 0


def test_perturbed_value_counts_as_failure():
    import workloads

    pool = workloads.small_exact(AQ, 3, tiny=False).items  # full budget: meets the closed form
    j = next(i for i, item in enumerate(pool) if "c=1 " in item.kind and item.op == "aq_radius")
    good = pool[j].call()
    bad = dataclasses.replace(good, value=good.value * 1.01)
    checked_good, _, _ = run.check_records(pool, [(j, 0.01, good)])
    checked_bad, _, _ = run.check_records(pool, [(j, 0.01, bad)])
    assert not checked_good[0].failed
    problems = checked_bad[0].problems
    assert any("witness gives" in p for p in problems), problems
    assert any("misses the closed form" in p for p in problems), problems

    calls = {"radius.aq_radius": [0.01], "radius.aq_crawford": [0.01]}
    args = (0, 0, calls, 1.0, 80.0)
    frac_good = run.summarize("t", [0.01], checked_good, *args)["fail_frac"]
    frac_bad = run.summarize("t", [0.01], checked_bad, *args)["fail_frac"]
    assert frac_bad > frac_good


def test_raised_error_is_reported_not_wrong():
    import workloads

    pool = workloads.small_exact(AQ, 3, tiny=True).items
    checked, _, _ = run.check_records(pool, [(0, 0.01, ValueError("weight is broken"))])
    assert checked[0].failed and checked[0].reported and not checked[0].problems


def test_every_pass_runs_the_whole_pool():
    import workloads

    pool = workloads.converge_diag(AQ, 3, tiny=True).items
    probe = speed.Probe()
    records, times, _, unstable = run.timed_passes(pool, seconds=1e-9, probe=probe)
    assert [rec[0] for rec in records] == list(range(len(pool)))
    assert all(len(t) == 1 for t in times) and not unstable  # the cap cut pass 2


def test_result_that_differs_between_passes_is_flagged():
    import itertools

    from workloads import Item

    counter = itertools.count()
    pool = [Item(kind="k", op="op", call=lambda: next(counter), check=None, digest="d")]
    _, times, _, unstable = run.timed_passes(pool, seconds=60.0, probe=speed.Probe())
    assert len(times[0]) == run.PASSES and unstable == {0}


def test_tracer_patches_every_binding_and_restores_them(monkeypatch):
    original = AQ.radius.aq_radius
    missing = ("radius.gone", "aqradius.radius", "no_such_function")
    monkeypatch.setattr(tracer_mod, "TARGETS", tracer_mod.TARGETS + (missing,))
    with tracer_mod.Tracer() as tr:
        assert AQ.aq_radius is AQ.sequences.aq_radius is AQ.laws.aq_radius
        assert AQ.aq_radius is not original
        w = AQ.Weight.identity(2)
        AQ.aq_radius(w, [[0.0, 1.0], [0.0, 0.0]], 0.5, AQ.Budget(2, 5, 8))
    assert AQ.aq_radius is original and AQ.sequences.aq_radius is original
    names = [s[0] for s in tr.spans]
    assert names.count("radius.aq_radius") == 1 and "semispace.weight" in names
    metrics = tracer_mod.layer_metrics(tr, 1)
    assert metrics["radius.aq_radius.calls"] == 1
    assert metrics["radius.aq_radius.self_ms.r1-2"] > 0
    assert "radius.gone" not in metrics
