"""The benchmark's four workloads: inputs from a seed, timed calls and their checks.

Each workload builds a *pool* of items from its seed, and every timed pass
runs the whole pool once, in order.  The number of items is fixed per
workload, not by the clock, so a faster or slower program is timed on the same
mix of item kinds.  The mixes are chosen so that the median item sits inside
one cluster of similar items rather than on the boundary between two, and so
that the slowest cluster holds the 11th slowest item (the tail) with its ten
slower samples and more besides; a speed-up that keeps the clusters in order
then moves neither the median nor the tail to another cluster.

An item is one estimator call (``small-exact``, ``dense-large``), one law-suite
instance run through the CLI (``verify-suite``) or one gap trace
(``converge-diag``).
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

import checks
from checks import Outcome


@dataclass
class Item:
    kind: str
    op: str
    call: Callable[[], Any]
    check: Callable[[Any, Any], Outcome]  # (result, result of the peer item or None)
    digest: str
    peer: int | None = None  # pool offset of the item sharing this instance


@dataclass
class Workload:
    items: list[Item]
    warmups: list[Callable[[], Any]]
    skip_counts: list[int] = field(default_factory=lambda: [0, 0])  # [skipped, reports]


def _estimator_check(a, t, q, norm_t, ref_fn, key, exact=False):
    """Check for one estimator item: witness, ordering, optional reference.

    The peer of a Crawford item is the radius item on the same instance, so
    c_q <= omega_q is checked when both ran.  With ``exact`` the reference is
    a closed form, and a miss fails the item.
    """

    def check(est, peer):
        out = Outcome()
        out.values[key] = est.value
        checks.check_witness(out, key, a, t, q, est, norm_t)
        checks.check_order(out, key, est.value, norm_t, upper=peer.value if peer else None)
        if ref_fn is not None:
            out.compare(key, est.value, ref_fn(), norm_t, exact=exact)
        return out

    return check


# --- small-exact --------------------------------------------------------------

SMALL_SCALES = (1e-8, 1.0, 1e8)
SMALL_REPS = 6  # 108 items: 24 J3 calls at c != 1e8, the slowest cluster


def small_exact(aq, seed: int, tiny: bool) -> Workload:
    """aq_radius / aq_crawford at reduced dimension 2 and 3 against closed forms.

    Per weight scale c in {1e-8, 1, 1e8}, three instances, each run through
    both estimators: a random 2x2 operator behind a rank-2 weight on C^3, a
    shifted random 2x2 operator behind a full-rank weight on C^2, and the
    shifted Jordan block J3 + s I behind a rank-3 weight on C^4.  q is complex
    and the references are evaluated at |q|.  J3 is unitarily similar to
    e^{i theta} J3, so its (convex) q-range is the disc of radius omega_q(J3)
    about 0, and that of J3 + s I is the same disc moved to q s: the radius is
    |q s| + omega_q(J3) and the Crawford number max(0, |q s| - omega_q(J3)).
    The shift keeps c_q > 0, so no Crawford call is a trivial zero.  Every
    value must meet its closed form: a miss fails the item (except at the
    ``tiny`` budget of the smoke tests, which is too small to converge).

    Sorted by time, a third of the items (c = 1e8, which fail at once today)
    come first, then the 2x2 calls with the median in their middle, then the
    J3 calls, which hold the tail.
    """
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0x5E)))
    budget = (
        aq.Budget(restarts=2, iterations=5, grid_resolution=16)
        if tiny
        else aq.Budget(restarts=16, iterations=200, grid_resolution=64)
    )
    j3 = np.diag([1.0, 1.0], k=1).astype(np.complex128)
    items: list[Item] = []
    for _ in range(1 if tiny else SMALL_REPS):
        for shape in ("r2-rank2-of-3", "r2-full-2", "j3-rank3-of-4"):
            for scale in SMALL_SCALES:  # innermost, so failures at 1e8 spread evenly
                if shape == "j3-rank3-of-4":
                    shift = 2.0 * np.exp(2j * math.pi * rng.random())
                    b0, n, q = j3 + shift * np.eye(3), 4, checks.random_q(rng, 0.5, 1.0)
                elif shape == "r2-rank2-of-3":
                    b0, n, q = checks.crandn(rng, 2, 2), 3, checks.random_q(rng, 0.05, 1.0)
                else:
                    shift = 3.0 * np.exp(2j * math.pi * rng.random())
                    b0 = checks.crandn(rng, 2, 2) + shift * np.eye(2)
                    n, q = 2, checks.random_q(rng, 0.05, 1.0)
                a, t = checks.embed(rng, b0, n, scale)
                w = aq.Weight(a)
                norm_t = checks.opnorm(b0)
                dig = checks.digest(a, t, np.array([q]))
                kind = f"{shape} c={scale:g}"
                for op in ("aq_radius", "aq_crawford"):
                    crawford = op == "aq_crawford"
                    if shape == "j3-rank3-of-4":
                        ref = lambda q=q, c=crawford: checks.shifted_jordan3(aq, q, 2.0, c)
                    else:
                        ref = lambda b0=b0, q=q, c=crawford: checks.closed_form_2x2(aq, b0, q, c)
                    items.append(
                        Item(
                            kind=f"{kind} {op}",
                            op=op,
                            call=lambda op=op, w=w, t=t, q=q: getattr(aq, op)(w, t, q, budget=budget),
                            check=_estimator_check(a, t, q, norm_t, ref, op, exact=not tiny),
                            digest=dig,
                            peer=-1 if crawford else None,
                        )
                    )
    return Workload(items=items, warmups=[items[0].call, items[1].call])


# --- dense-large --------------------------------------------------------------


DENSE_CYCLES = 8  # 96 items, 24 of them n=32 sphere searches


def dense_large(aq, seed: int, tiny: bool) -> Workload:
    """Dense non-normal operators at reduced dimension 16 and 32.

    A cycle of twelve calls, with random complex q (|q| in [0.3, 1)) except in
    a_radius and a_crawford (q = 1), on identity ("identity") or random
    positive-definite ("pd") weights.  Crawford calls use T + 3n I so that
    c_q > 0.  The q = 1 calls are checked against the phase-sweep references.

    Sorted by time, the cycle has three clusters: the two a_radius phase sweeps
    (a few ms), seven n=16 sphere searches (aq_radius, aq_crawford, a_crawford)
    that hold the median, and three n=32 sphere searches that hold the tail
    (24 in a run, so the 11th slowest has 13 of its cluster below it).
    Three of four aq_radius calls and four of six aq_crawford calls (two inside
    a_crawford) are n=16, so their medians sit in the n=16 cluster too.
    """
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0xDE)))
    small, big = (4, 6) if tiny else (16, 32)
    budget = (
        aq.Budget(restarts=2, iterations=5, grid_resolution=16)
        if tiny
        else aq.Budget(restarts=6, iterations=60, grid_resolution=64)
    )
    cycle = (
        ("aq_radius", small, "identity"),
        ("aq_crawford", small, "pd"),
        ("a_radius", small, "pd"),
        ("a_crawford", small, "identity"),
        ("aq_radius", big, "pd"),
        ("aq_crawford", small, "identity"),
        ("aq_radius", small, "pd"),
        ("a_crawford", big, "pd"),
        ("aq_crawford", small, "pd"),
        ("a_radius", big, "pd"),
        ("aq_radius", small, "identity"),
        ("aq_crawford", big, "identity"),
    )
    items: list[Item] = []
    for _ in range(1 if tiny else DENSE_CYCLES):
        for op, n, wkind in cycle:
            crawford = op.endswith("crawford")
            b0 = checks.crandn(rng, n, n)
            if crawford:
                b0 = b0 + 3.0 * n * np.eye(n)
            if wkind == "identity":
                a, t = np.eye(n, dtype=np.complex128), b0
            else:
                a, t = checks.embed(rng, b0, n, 1.0)
            w = aq.Weight(a)
            if op.startswith("aq_"):
                q = checks.random_q(rng, 0.3, 1.0)
                call = lambda op=op, w=w, t=t, q=q: getattr(aq, op)(w, t, q, budget=budget)
                ref = None
            else:
                q = 1.0
                call = lambda op=op, w=w, t=t: getattr(aq, op)(w, t, budget=budget)
                ref = lambda b0=b0, c=crawford: max(0.0, checks.phase_extreme(b0, smallest=c))
            items.append(
                Item(
                    kind=f"n={n} {wkind} {op}",
                    op=op,
                    call=call,
                    check=_estimator_check(a, t, q, checks.opnorm(b0), ref, op),
                    digest=checks.digest(a, t, np.array([q])),
                )
            )
    # one warm-up of each operation, at n=16 (the first four items)
    return Workload(items=items, warmups=[item.call for item in items[:4]])


# --- verify-suite -------------------------------------------------------------

VERIFY_DIMS = (2, 4, 3, 4, 4, 4)
VERIFY_ITEMS = 36
RERUN_ITEMS = 3  # one instance of each dimension


def verify_suite(aq, seed: int, tiny: bool, out_dir: str) -> Workload:
    """``aqradius verify`` in-process, one randomized instance per item.

    Item k runs ``verify --instances 1`` with dimension VERIFY_DIMS[k % 6] and
    a seed derived from the workload seed and k, then reads the law reports back
    from the JSONL the command wrote.  An item fails when the command raises,
    exits with a code other than 0 or 1, or any law check fails (a failure
    the program reports itself).  The first
    RERUN_ITEMS items (dimensions 2, 4 and 3) are also rerun by the check
    with their estimator calls captured: see :func:`_rerun_check`.

    A dimension-4 instance takes about 1.2 times one of dimension 2 or 3, and
    two thirds of the items are dimension 4, so both the median and the tail
    (the 11th slowest of 36) sit inside the dimension-4 cluster.
    """
    budget = "1" if tiny else "6"
    wl = Workload(items=[], warmups=[])
    csv_path = os.path.join(out_dir, "verify-suite.csv")
    jsonl_path = csv_path[:-4] + ".jsonl"

    def make_call(k):
        inst_seed = int(np.random.SeedSequence((seed, k, 0x5D)).generate_state(1)[0])
        argv = [
            "verify", "--instances", "1", "--dims", str(VERIFY_DIMS[k % len(VERIFY_DIMS)]),
            "--seed", str(inst_seed), "--budget", budget, "--out", csv_path,
        ]  # fmt: skip

        def call():
            with contextlib.redirect_stdout(io.StringIO()) as summary:
                code = aq.cli.main(argv)
            with open(jsonl_path) as fh:
                return code, fh.read(), summary.getvalue()

        return call

    def make_check(k, call):
        def check(result, peer):
            code, text, _summary = result
            out = Outcome()
            reports = [json.loads(line) for line in text.splitlines()]
            out.values["reports"] = len(reports)
            if code not in (0, 1):
                out.problems.append(f"verify exited with code {code}")
            for rep in reports:
                wl.skip_counts[1] += 1
                if rep.get("skipped"):
                    wl.skip_counts[0] += 1
                elif not rep["pass"]:
                    out.reported.append(
                        f"law {rep['law_id']} failed on {rep['instance_digest']}: "
                        f"slack {rep['slack']:.3e}"
                    )
            if not reports:
                out.problems.append("verify wrote no law reports")
            if k < RERUN_ITEMS:
                _rerun_check(out, call, result)
            return out

        return check

    for k in range(3 if tiny else VERIFY_ITEMS):
        call = make_call(k)
        wl.items.append(
            Item(
                kind=f"dim={VERIFY_DIMS[k % len(VERIFY_DIMS)]}",
                op="suite",
                call=call,
                check=make_check(k, call),
                digest=checks.digest(np.array([seed, k])),
            )
        )
    wl.warmups = [wl.items[0].call]
    return wl


def _rerun_check(out: Outcome, call, first) -> None:
    """Rerun a suite instance with its estimator calls captured, and check them.

    The rerun must reproduce the timed run's reports exactly (same seed, same
    answers).  Every captured q-estimate gets the witness and ordering checks;
    every a_radius and a_opnorm value is compared with this benchmark's own
    phase sweep and seminorm of its own reduction.
    """
    from tracer import Tracer

    names = ("radius.aq_radius", "radius.aq_crawford", "radius.a_radius", "semispace.a_opnorm")
    with Tracer(capture=names, names=names) as tr:
        again = call()
    if again[:2] != first[:2]:
        out.problems.append("rerun of the instance gave different reports")
    for name, args, kwargs, value in tr.captured:
        w, t = args[0], np.asarray(args[1], dtype=np.complex128)
        b = checks.reduce(w.a, t)
        norm_t = checks.opnorm(b)
        key = name.split(".")[-1]
        if name == "semispace.a_opnorm":
            out.compare(key, float(value), norm_t, norm_t)
        elif name == "radius.a_radius":
            out.compare(key, value.value, checks.phase_extreme(b, False), norm_t)
        else:
            q = args[2] if len(args) > 2 else kwargs["q"]
            checks.check_witness(out, key, w.a, t, q, value, norm_t)
            checks.check_order(out, key, value.value, norm_t)


# --- converge-diag ------------------------------------------------------------

CONVERGE_INDICES = (1, 4, 16)
CONVERGE_ITEMS = 42


def converge_diag(aq, seed: int, tiny: bool) -> Workload:
    """trace_gaps on the multiplication rule psi = 1 + x, phi_n = 1 + x/n, 8 points.

    T_n = diag(1 + x_i/n) is Hermitian with spectrum spanning [1, 1 + 1/n] and
    commutes with the weight diag(1 + x_i), so the reduction is T_n itself and
    the gaps have closed forms (:func:`checks.hermitian_interval`); the limit I
    has omega_q = c_q = |q|.  An item fails when the trace raises, for
    instance EnvelopeViolation.  All items are of one kind, so the median and
    the tail (the p76) lie in one cluster.
    """
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0xC0)))
    indices = CONVERGE_INDICES[:2] if tiny else CONVERGE_INDICES
    budget = (
        aq.Budget(restarts=2, iterations=5, grid_resolution=16)
        if tiny
        else aq.Budget(restarts=8, iterations=10, grid_resolution=64)
    )

    def make(q):
        seq = aq.OperatorSequence.multiplication(
            psi=lambda x: 1.0 + x, phi=lambda n, x: 1.0 + x / n, grid_points=8
        )
        return lambda: aq.trace_gaps(seq, q, indices=indices, budget=budget, seed=0)

    def make_check(q):
        def check(result, peer):
            out = Outcome()
            tr_omega, tr_c = result
            for label, tr, crawford in (("gap_omega", tr_omega, False), ("gap_c", tr_c, True)):
                out.compare(f"{label}@limit", tr.target, 1.0 - abs(q), 1.0)
                for n, value in zip(tr.indices, tr.values):
                    big = 1.0 + 1.0 / n
                    ref = big - checks.hermitian_interval(1.0, big, q, crawford)
                    out.compare(f"{label}@n={n}", value, ref, big)
            return out

        return check

    items = []
    for _ in range(2 if tiny else CONVERGE_ITEMS):
        q = checks.random_q(rng, 0.3, 0.95)
        items.append(
            Item(
                kind="multiplication trace",
                op="trace",
                call=make(q),
                check=make_check(q),
                digest=checks.digest(np.array([q])),
            )
        )
    return Workload(items=items, warmups=[items[0].call])


WORKLOADS = {
    "small-exact": small_exact,
    "dense-large": dense_large,
    "verify-suite": verify_suite,
    "converge-diag": converge_diag,
}
