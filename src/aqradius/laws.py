"""The radius/Crawford inequalities as executable predicates, plus a suite runner.

Each law evaluates both sides on a concrete (weight, matrix, q) instance and
reports the slack.  An :class:`_Instance` builds, once each, the partner
operators the laws compare T with (alpha T, the weighted adjoint, S and T - S,
the Kronecker product and the direct sum with a second instance) and shares
their estimator caches.  ``_LAWS`` is the one table of laws: :func:`run_suite`
loops over it, and :func:`check_law`, the one single-instance entry point,
builds an instance and runs one row.  Adding a law means one check function,
returning ``(law id, (lhs, rhs))`` pairs or ``(law id, skip reason)``, whose
docstring states the law, plus one table row that names the ingredients the
check reads beyond (A, T, q).  An ingredient is an input of the law, never a
value derived from (A, T, q): t1_45 reads the coefficients (lambda, mu) and
computes gamma from them and q itself, and a gamma that vanishes is a skip.

Since suprema are estimated from below and infima from above, a law whose
*larger* side carries such an estimate can look violated purely from estimator
shortfall.  A row's tolerance class says how much slack is forgiven:

* ``EXACT`` (1e-7): the larger side is exact, so shortfall only widens the
  slack.  Only ``t1_1`` is here (its right side ||T||_A is a singular value);
  a larger budget cannot change its verdict, so it is the one law not re-run.
* ``IDENTITY`` (2e-3, two-sided): both sides estimate the same number.
* ``ESTIMATED`` (5e-3): the larger side carries an estimate.  The same
  allowance widens each envelope of a convergence trace (`sequences`).

:meth:`_Law.run` is the one way a law is checked, by :func:`run_suite` and by
:func:`check_law` alike: a row of the last two classes that does not pass is
re-run at 4x and then 16x the restart budget, which it scales itself, before
its failure is reported, and each report carries the budget of the run that
gave it and the digest of its (A, T, q).
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable, NamedTuple

import numpy as np

from .radius import _DEFAULT_BUDGET, Budget, aq_crawford, aq_radius
from .semispace import (
    QOutOfRange,
    Weight,
    a_adjoint,
    a_opnorm,
    as_operator,
    kron,
    validate_q,
)

__all__ = [
    "LawReport",
    "SuiteConfig",
    "check_law",
    "reports_csv_summary",
    "reports_to_jsonl",
    "run_suite",
    "summarize_reports",
]

NEAR_ZERO_DENOMINATOR = 1e-6
# share of suite instances whose q (and q2) is forced to 1, the boundary case
FORCED_Q1_FRACTION = 0.1


# tolerance classes (tol, kind): kind "le" passes when rhs - lhs >= -tol,
# kind "eq" when |rhs - lhs| <= tol
EXACT = (1e-7, "le")
IDENTITY = (2e-3, "eq")
ESTIMATED = (5e-3, "le")


@dataclass
class LawReport:
    """Outcome of checking one inequality (kind "le") or identity (kind "eq").

    ``estimator_budget`` is the budget of the run that gave the verdict: the
    one passed to :func:`check_law` (its default when none is) or the suite's,
    or 4x or 16x its restarts after a re-run.  ``instance_digest`` labels
    (A, T, q); :func:`check_law` and :func:`run_suite` give the same label.
    """

    law_id: str
    lhs: float
    rhs: float
    slack: float
    passed: bool
    tol_law: float
    instance_digest: str
    estimator_budget: Budget
    kind: str = "le"
    skipped: bool = False
    skip_reason: str = ""

    def to_dict(self) -> dict:
        """The fields as a JSON record: ``passed`` as "pass", ``estimator_budget`` as
        "budget" (a dict), and ``skipped``/``skip_reason`` only on a skip."""
        renamed = {"passed": "pass", "estimator_budget": "budget"}
        d = {renamed.get(k, k): v for k, v in vars(self).items()}
        # a flat copy: Budget holds plain ints, and asdict's recursive copy costs twice as much
        d["budget"] = dict(vars(self.estimator_budget))
        if not self.skipped:
            del d["skipped"], d["skip_reason"]
        return d


class _Ev:
    """Cached estimator front-end for one (weight, matrix) instance.

    The values depend on q only through |q|, so each is computed once per
    (estimator, |q|, budget), at the rounded |q| of the key: q, alpha q and
    conj(q) share one estimate, whichever asks first.  omega_A is the radius at |q| = 1.
    """

    def __init__(self, w: Weight, t, seed: int):
        self.w = w
        self.t = as_operator(t)
        self.seed = seed
        self._cache: dict = {}

    def _cached(self, estimator: Callable, q, budget: Budget) -> float:
        """``estimator`` at (A, T, q), once per (estimator, |q|, budget)."""
        key = (estimator, round(abs(q), 13), budget)
        if key not in self._cache:
            self._cache[key] = estimator(self.w, self.t, key[1], budget=budget, seed=self.seed).value
        return self._cache[key]

    @cached_property
    def opnorm(self) -> float:
        return a_opnorm(self.w, self.t)

    def radius_q(self, q, budget: Budget) -> float:
        return self._cached(aq_radius, q, budget)

    def crawford_q(self, q, budget: Budget) -> float:
        return self._cached(aq_crawford, q, budget)


def _digest(w: Weight, t, q, seed: int) -> str:
    t = as_operator(t)
    h = hashlib.sha1()
    h.update(w.a.tobytes())
    h.update(t.tobytes())
    h.update(repr(complex(q)).encode())
    return f"s{seed}-n{t.shape[0]}-{h.hexdigest()[:12]}"


def _sqrt_2_1mre(q: complex) -> float:
    return math.sqrt(max(0.0, 2.0 * (1.0 - q.real)))


def _block_diag(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The block-diagonal matrix diag(x, y): the matrix realization of a direct sum."""
    return np.block([[x, np.zeros((x.shape[0], y.shape[1]))], [np.zeros((y.shape[0], x.shape[1])), y]])


class _Instance:
    """One (A, T, q) instance and the partner operators the laws compare T with.

    The optional ingredients feed only the laws that read them: ``alpha``
    t1_23, ``coefficients = (lambda, mu)`` t1_45, which derives gamma from
    them and q, ``s`` t5_3, and ``partner = (A2, T2, q2)`` the tensor laws
    t3/cor1 and the direct-sum law app1.  Reports carry ``digest``, the
    digest of (A, T, q).
    """

    def __init__(self, w: Weight, t, q, seed: int, *, alpha=1.0, coefficients=None, s=None, partner=None):
        if abs(abs(alpha) - 1.0) > 1e-12:
            raise ValueError("alpha must be unimodular")
        self.ev = _Ev(w, t, seed)
        self.q = validate_q(q)
        self.seed = seed
        self.alpha = complex(alpha)
        self.coefficients = coefficients
        self.s = s
        if partner is not None:
            w2, t2, q2 = partner
            self.partner = _Ev(w2, t2, seed)
            self.q2 = validate_q(q2)
        self.digest = _digest(w, self.ev.t, self.q, seed)

    @cached_property
    def scaled(self) -> _Ev:
        """alpha T."""
        return _Ev(self.ev.w, self.alpha * self.ev.t, self.seed)

    @cached_property
    def adj(self) -> _Ev:
        """A^+ T^H A, the weighted adjoint (T^H fails the laws on skewed weights)."""
        return _Ev(self.ev.w, a_adjoint(self.ev.w, self.ev.t), self.seed)

    @cached_property
    def near(self) -> _Ev:
        """S."""
        return _Ev(self.ev.w, self.s, self.seed)

    @cached_property
    def difference(self) -> _Ev:
        """T - S."""
        return _Ev(self.ev.w, self.ev.t - as_operator(self.s), self.seed)

    @cached_property
    def tensor(self) -> _Ev:
        """T (x) T2 under the weight A (x) A2."""
        ev, ev2 = self.ev, self.partner
        return _Ev(Weight(kron(ev.w.a, ev2.w.a)), kron(ev.t, ev2.t), self.seed)

    @cached_property
    def direct_sum(self) -> _Ev:
        """T (+) T2 under the weight A (+) A2."""
        ev, ev2 = self.ev, self.partner
        return _Ev(Weight(_block_diag(ev.w.a, ev2.w.a)), _block_diag(ev.t, ev2.t), self.seed)


# --- the laws: one check function each --------------------------------------


def _t1_1(inst: _Instance, b: Budget):
    """omega_{A,q}(T) <= ||T||_A.

    EXACT: the right side is a singular value, so a failure is final, with no re-run.
    """
    return [("t1_1", (inst.ev.radius_q(inst.q, b), inst.ev.opnorm))]


def _t1_23(inst: _Instance, b: Budget):
    """Phase covariance: the radius/Crawford numbers of alpha T at q equal those of T at alpha q."""
    ev, q, moved = inst.ev, inst.q, inst.alpha * inst.q
    return [
        ("t1_2", (inst.scaled.radius_q(q, b), ev.radius_q(moved, b))),
        ("t1_3", (inst.scaled.crawford_q(q, b), ev.crawford_q(moved, b))),
    ]


def _t1_45(inst: _Instance, b: Budget):
    """Linear-combination bounds at the composite parameter (lambda + mu conj(q))/gamma.

    gamma = sqrt(|lambda|^2 + |mu|^2 + 2 Re(lambda conj(mu) q)) is fixed by the
    coefficients and q; both laws are skipped where it vanishes relative to
    |lambda| + |mu| (gamma is homogeneous in them), or where the composite
    parameter is outside the range `validate_q` accepts.  The partner operator
    is the weighted adjoint A^+ T^H A, which the underlying pairing identity
    requires; T^H fails the bounds on skewed weights.
    """
    (lam, mu), q = map(complex, inst.coefficients), inst.q
    g2 = abs(lam) ** 2 + abs(mu) ** 2 + 2.0 * (lam * np.conj(mu) * q).real
    if g2 <= 1e-24 * (abs(lam) + abs(mu)) ** 2:
        reason = "degenerate combination: gamma vanishes"
        return [("t1_4", reason), ("t1_5", reason)]
    gamma = math.sqrt(g2)
    # the statement's parameter; the paper's proof uses (lambda + conj(mu) q)/gamma
    qc = (lam + mu * np.conj(q)) / gamma
    try:
        validate_q(qc)
    except QOutOfRange:
        reason = f"composite parameter |{abs(qc):.4f}| outside (0, 1]"
        return [("t1_4", reason), ("t1_5", reason)]
    ev, am = inst.ev, abs(mu)
    base = abs(lam) * ev.radius_q(1.0, b)
    return [
        ("t1_4", (gamma * ev.radius_q(qc, b), base + am * inst.adj.radius_q(q, b))),
        ("t1_5", (gamma * ev.crawford_q(qc, b), base + am * inst.adj.crawford_q(q, b))),
    ]


def _t1_78(inst: _Instance, b: Budget):
    """Reverse triangle bounds recovering the plain radius/Crawford from the q-versions."""
    ev, q = inst.ev, inst.q
    if abs(q - 1.0) < 1e-12:
        reason = "q = 1: correction term degenerates"
        return [("t1_7", reason), ("t1_8", reason)]
    s = _sqrt_2_1mre(q)
    corr = s * ev.radius_q((1.0 - q) / s, b)
    return [
        ("t1_7", (ev.radius_q(1.0, b), ev.radius_q(q, b) + corr)),
        ("t1_8", (ev.crawford_q(1.0, b), ev.crawford_q(q, b) + corr)),
    ]


def _note(inst: _Instance, b: Budget):
    """(1 - sqrt(2(1 - Re q))) omega_A(T) <= omega_{A,q}(T)."""
    ev, q = inst.ev, inst.q
    return [("note", ((1.0 - _sqrt_2_1mre(q)) * ev.radius_q(1.0, b), ev.radius_q(q, b)))]


def _t2(inst: _Instance, b: Budget):
    """Two-sided chain for omega_{A,q}(T) + omega_{A,conj(q)}(T)."""
    ev, q = inst.ev, inst.q
    pair_sum = ev.radius_q(q, b) + ev.radius_q(np.conj(q), b)
    upper = 2.0 * ev.radius_q(1.0, b) + 2.0 * _sqrt_2_1mre(q) * ev.opnorm
    return [
        ("t2_lower", (2.0 * abs(q.real) * ev.radius_q(1.0, b), pair_sum)),
        ("t2_upper", (pair_sum, upper)),
    ]


def _t4_1(inst: _Instance, b: Budget):
    """|omega_{A,q}(T) - omega_A(T)| <= sqrt(2(1 - Re q)) ||T||_A."""
    ev, q = inst.ev, inst.q
    return [("t4_1", (abs(ev.radius_q(q, b) - ev.radius_q(1.0, b)), _sqrt_2_1mre(q) * ev.opnorm))]


def _t5_1(inst: _Instance, b: Budget):
    """|c_{A,q}(T) - c_A(T)| <= sqrt(2(1 - Re q)) ||T||_A."""
    ev, q = inst.ev, inst.q
    return [("t5_1", (abs(ev.crawford_q(q, b) - ev.crawford_q(1.0, b)), _sqrt_2_1mre(q) * ev.opnorm))]


def _t5_3(inst: _Instance, b: Budget):
    """|c_{A,q}(T) - c_{A,q}(S)| <= omega_{A,q}(T - S)."""
    q = inst.q
    lhs = abs(inst.ev.crawford_q(q, b) - inst.near.crawford_q(q, b))
    return [("t5_3", (lhs, inst.difference.radius_q(q, b)))]


def _factor_values(inst: _Instance, b: Budget):
    """c1, c2, o1, o2: Crawford numbers and radii of T at q and of T2 at q2."""
    ev1, ev2, q1, q2 = inst.ev, inst.partner, inst.q, inst.q2
    return ev1.crawford_q(q1, b), ev2.crawford_q(q2, b), ev1.radius_q(q1, b), ev2.radius_q(q2, b)


def _t3(inst: _Instance, b: Budget):
    """Tensor-product chain c <= c1 c2 <= o1 o2 <= o at q = q1 q2."""
    q = inst.q * inst.q2
    c1, c2, o1, o2 = _factor_values(inst, b)
    return [
        ("t3_link1", (inst.tensor.crawford_q(q, b), c1 * c2)),
        ("t3_link2", (c1 * c2, o1 * o2)),
        ("t3_link3", (o1 * o2, inst.tensor.radius_q(q, b))),
    ]


def _cor1(inst: _Instance, b: Budget):
    """Scalar consequences of the tensor chain (skipping near-zero denominators)."""
    # the sup/inf links divided by a positive factor (the paper's printed direction
    # for the Crawford pair contradicts the chain; the derivable direction is implemented)
    q = inst.q * inst.q2
    c1, c2, o1, o2 = _factor_values(inst, b)
    op = inst.tensor.radius_q(q, b)
    cp = inst.tensor.crawford_q(q, b)
    pairs = [
        ("cor1_1", c1, o2, op / c1 if c1 > NEAR_ZERO_DENOMINATOR else None),
        ("cor1_2", c2, o1, op / c2 if c2 > NEAR_ZERO_DENOMINATOR else None),
        ("cor1_3", o1, cp / o1 if o1 > NEAR_ZERO_DENOMINATOR else None, c2),
        ("cor1_4", o2, cp / o2 if o2 > NEAR_ZERO_DENOMINATOR else None, c1),
    ]
    return [
        (law_id, "near-zero denominator")
        if denom <= NEAR_ZERO_DENOMINATOR
        else (law_id, (lhs, rhs))
        for law_id, denom, lhs, rhs in pairs
    ]


def _app1(inst: _Instance, b: Budget):
    """Direct-sum gap bounds at the partner's q2.

    The omega-gap of T (+) T2 is bounded by the block maxima, the Crawford-gap from below.
    """
    q = inst.q2

    def gaps(ev):
        return ev.opnorm - ev.radius_q(q, b), ev.opnorm - ev.crawford_q(q, b)

    (o_sum, c_sum), (o1, c1), (o2, c2) = gaps(inst.direct_sum), gaps(inst.ev), gaps(inst.partner)
    return [("app1_omega", (o_sum, max(o1, o2))), ("app1_crawford", (max(c1, c2), c_sum))]


class _Law(NamedTuple):
    check: Callable[[_Instance, Budget], list]
    tolerance: tuple[float, str]
    ingredients: tuple[str, ...] = ()  # the _Instance options the check reads

    def run(self, inst: _Instance, budget: Budget) -> list[LawReport]:
        """One report per law id of the check on ``inst``.

        A group that does not pass is re-run at 4x and then 16x the restarts,
        unless its class is EXACT: a larger budget cannot change that verdict.
        """
        tol, kind = self.tolerance
        for factor in (1,) if self.tolerance is EXACT else (1, 4, 16):
            b = budget if factor == 1 else replace(budget, restarts=budget.restarts * factor)
            reports = []
            for law_id, sides in self.check(inst, b):
                if isinstance(sides, str):  # a skip reason
                    reports.append(LawReport(law_id, 0.0, 0.0, 0.0, True, 0.0, inst.digest, b,
                                             skipped=True, skip_reason=sides))
                    continue
                lhs, rhs = map(float, sides)
                slack = rhs - lhs
                passed = abs(slack) <= tol if kind == "eq" else slack >= -tol
                reports.append(LawReport(law_id, lhs, rhs, slack, passed, tol, inst.digest, b, kind))
            if all(r.passed for r in reports):
                break
        return reports


_LAWS = {
    "t1_1": _Law(_t1_1, EXACT),
    "t1_23": _Law(_t1_23, IDENTITY, ("alpha",)),
    "t1_45": _Law(_t1_45, ESTIMATED, ("coefficients",)),
    "t1_78": _Law(_t1_78, ESTIMATED),
    "note": _Law(_note, ESTIMATED),
    "t2": _Law(_t2, ESTIMATED),
    "t4_1": _Law(_t4_1, ESTIMATED),
    "t5_1": _Law(_t5_1, ESTIMATED),
    "t5_3": _Law(_t5_3, ESTIMATED, ("s",)),
    "t3": _Law(_t3, ESTIMATED, ("partner",)),
    "cor1": _Law(_cor1, ESTIMATED, ("partner",)),
    "app1": _Law(_app1, ESTIMATED, ("partner",)),
}


# --- the one single-instance entry point ---------------------------------------


def check_law(name: str, w: Weight, t, q, *, alpha=None, coefficients=None, s=None,
              partner=None, budget: Budget | None = None, seed: int = 0) -> tuple[LawReport, ...]:
    """The reports of the law group ``name`` of ``_LAWS`` on (A, T, q), one per law id.

    A group reads only the ingredients its row names: ``alpha`` (t1_23),
    ``coefficients = (lambda, mu)`` (t1_45, whose gamma comes from them and
    q; a gamma that vanishes is a skip of both laws), ``s`` (t5_3) or
    ``partner = (A2, T2, q2)`` (t3, cor1, app1); the others are not read.
    The group runs as in :func:`run_suite`, re-runs included, and its reports
    carry the suite's digest of (A, T, q).  Raises ValueError for an unknown
    name or a missing ingredient.
    """
    law = _LAWS.get(name)
    if law is None:
        raise ValueError(f"unknown law {name!r}; the laws are {', '.join(_LAWS)}")
    given = {k: v for k, v in dict(alpha=alpha, coefficients=coefficients, s=s, partner=partner).items()
             if v is not None}
    missing = [k for k in law.ingredients if k not in given]
    if missing:
        raise ValueError(f"law {name!r} needs {' and '.join(missing)}")
    return tuple(law.run(_Instance(w, t, q, seed, **given), budget or _DEFAULT_BUDGET))


# --- randomized suite --------------------------------------------------------


@dataclass(frozen=True)
class SuiteConfig:
    """Configuration of the randomized verification suite (deterministic per seed).

    The defaults are those of ``aqradius verify`` with its default flags.
    """

    n_instances: int = 200
    dims: tuple[int, ...] = (2, 3, 4)
    seed: int = 0
    budget: Budget = Budget(restarts=32, iterations=250)


def _crandn(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def _random_weight(rng: np.random.Generator, n: int) -> Weight:
    z = _crandn(rng, n)
    u = np.linalg.qr(z)[0]
    d = np.exp(rng.uniform(math.log(0.1), math.log(10.0), n))
    return Weight((u * d) @ u.conj().T)


def _random_q(rng: np.random.Generator) -> complex:
    if rng.random() < FORCED_Q1_FRACTION:
        return 1.0 + 0.0j
    modulus = 1.0 - rng.random()  # uniform on (0, 1]
    phase = rng.uniform(0.0, 2.0 * math.pi)
    return modulus * complex(math.cos(phase), math.sin(phase))


def _random_instance(seed: int, idx: int, dims: tuple[int, ...]) -> _Instance:
    """Suite instance ``idx``; the draws depend only on (seed, idx), in this order."""
    rng = np.random.default_rng(np.random.SeedSequence((seed, idx)))
    n = int(dims[rng.integers(len(dims))])
    w = _random_weight(rng, n)
    t = _crandn(rng, n)
    q = _random_q(rng)
    alpha = complex(np.exp(2j * math.pi * rng.random()))
    lam = complex(rng.standard_normal() + 1j * rng.standard_normal())
    mu = complex(rng.standard_normal() + 1j * rng.standard_normal())
    # independent small partner instance for the tensor and direct-sum laws
    w2 = _random_weight(rng, 2)
    t2 = _crandn(rng, 2)
    q2 = _random_q(rng)
    s = t + 0.05 * _crandn(rng, n)
    est_seed = int(np.random.SeedSequence((seed, idx, 0xE57)).generate_state(1)[0])
    return _Instance(w, t, q, est_seed, alpha=alpha, coefficients=(lam, mu), s=s, partner=(w2, t2, q2))


def run_suite(config: SuiteConfig) -> list[LawReport]:
    """Run every law on randomized instances; deterministic for a fixed config."""
    all_reports: list[LawReport] = []
    for idx in range(config.n_instances):
        inst = _random_instance(config.seed, idx, config.dims)
        for law in _LAWS.values():
            all_reports.extend(law.run(inst, config.budget))
    all_reports.sort(key=lambda r: (r.instance_digest, r.law_id))
    return all_reports


def summarize_reports(reports: list[LawReport]) -> list[dict]:
    """Per-law pass rate and minimum slack (skips excluded)."""
    by_law: dict[str, list[LawReport]] = {}
    for rep in reports:
        by_law.setdefault(rep.law_id, []).append(rep)
    rows = []
    for law_id in sorted(by_law):
        reps = [r for r in by_law[law_id] if not r.skipped]
        n_skipped = sum(1 for r in by_law[law_id] if r.skipped)
        if reps:
            pass_rate = sum(1 for r in reps if r.passed) / len(reps)
            min_slack = min(r.slack for r in reps)
        else:
            pass_rate = 1.0
            min_slack = 0.0
        rows.append(
            {
                "law_id": law_id,
                "pass_rate": pass_rate,
                "min_slack": min_slack,
                "n_checked": len(reps),
                "n_skipped": n_skipped,
            }
        )
    return rows


def reports_to_jsonl(reports: list[LawReport], path) -> None:
    with open(path, "w") as fh:
        for rep in reports:
            fh.write(json.dumps(rep.to_dict()) + "\n")


def reports_csv_summary(reports: list[LawReport], path) -> None:
    rows = summarize_reports(reports)
    with open(path, "w") as fh:
        fh.write("law_id,pass_rate,min_slack\n")
        for row in rows:
            fh.write(f"{row['law_id']},{row['pass_rate']:.12g},{row['min_slack']:.12g}\n")
