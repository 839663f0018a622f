"""Convergence experiments for operator sequences and q-sequences.

:func:`trace` follows the q-radius, the q-Crawford number or either gap along
an operator sequence (:func:`trace_gaps` both gaps in one pass, :func:`trace_q`
the radius or Crawford number along a q-sequence) and checks each value against
the limiting value pointwise.  All three run the same loop over the indices,
driven by one table of quantities, and use the Lipschitz-type envelopes:

    |omega_{A,q}(T_n) - omega_{A,q}(T)| <= ||T_n - T||_A
    |c_{A,q}(T_n)     - c_{A,q}(T)|     <= ||T_n - T||_A
    |gap(T_n)         - gap(T)|         <= 2 ||T_n - T||_A
    |omega_{A,q_n}(T) - omega_A(T)|     <= sqrt(2 (1 - Re q_n)) ||T||_A

augmented by a fixed estimator slack, 5e-3.  Each trace makes two checks and raises
:class:`EnvelopeViolation` when either fails:

* The envelope check catches an estimator failure.  The bounds above hold for
  *every* declared limit, so a value outside its envelope means an estimate is
  wrong; it says nothing about whether the limit is the right one.
* The decay check catches a declared limit that the sequence does not
  approach.  The deviations ||T_n - T||_A (for a q-sequence, |1 - q_n|) that
  the envelopes are built from must not grow along the indices and must end
  strictly below where they started, unless all of them are zero relative to
  the limit's size.  This is a necessary condition tested on finitely many
  indices, not a proof of convergence: a trace that passes it may still
  belong to a sequence that does not converge, and a convergent sequence
  whose deviation is not monotone must be traced on indices where it decays.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .laws import _sqrt_2_1mre
from .radius import Budget, aq_crawford, aq_radius
from .semispace import Weight, a_opnorm, as_operator, validate_q

__all__ = [
    "DEFAULT_INDICES",
    "ConvergenceTrace",
    "EnvelopeViolation",
    "OperatorSequence",
    "trace",
    "trace_gaps",
    "trace_q",
    "trace_to_csv",
]

DEFAULT_INDICES = (1, 2, 4, 8, 16, 32, 64, 128, 256)
_SLACK = 5e-3  # the estimator slack each envelope adds
# deviations up to this fraction of the limit's size count as zero
DECAY_RTOL = 1e-12


class EnvelopeViolation(RuntimeError):
    """A trace failed one of its two checks.

    Either a value escaped its Lipschitz envelope around the target, which
    means an estimator failed, or the deviation from the declared limit did
    not decay along the indices, which means the sequence does not approach
    that limit.
    """


@dataclass
class ConvergenceTrace:
    indices: list[int]
    values: list[float]
    target: float
    rates: list[float]
    envelopes: list[float]


class OperatorSequence:
    """A rule n -> T_n together with the declared limit and the weight."""

    def __init__(self, weight: Weight, term_fn: Callable[[int], np.ndarray], limit):
        self.weight = weight
        self._term_fn = term_fn
        self.limit = as_operator(limit)

    def term(self, n: int) -> np.ndarray:
        return as_operator(self._term_fn(n))

    def deviation(self, n: int) -> float:
        """||T_n - limit||_A, the uniform-convergence modulus at index n."""
        return a_opnorm(self.weight, self.term(n) - self.limit)

    @classmethod
    def perturbation(cls, weight: Weight, limit, direction) -> "OperatorSequence":
        """T_n = limit + direction / n."""
        limit = as_operator(limit)
        direction = as_operator(direction)
        return cls(weight, lambda n: limit + direction / n, limit)

    @classmethod
    def multiplication(cls, psi, phi, grid_points: int = 64) -> "OperatorSequence":
        """Diagonal discretization of multiplication operators on a [0, 1] grid.

        The weight is diag(psi(x_i)) and T_n = diag(phi(n, x_i)); with
        phi(n, .) -> 1 uniformly the sequence converges to the identity.
        """
        grid = np.linspace(0.0, 1.0, grid_points)
        weight = Weight(np.diag(np.asarray(psi(grid), dtype=np.complex128)))
        limit = np.eye(grid_points, dtype=np.complex128)
        return cls(weight, lambda n: np.diag(np.asarray(phi(n, grid), dtype=np.complex128)), limit)

    @classmethod
    def explicit(cls, weight: Weight, terms: Sequence, limit) -> "OperatorSequence":
        """T_n taken from a list (n is 1-based and must stay within the list)."""
        mats = [as_operator(m) for m in terms]

        def term(n: int) -> np.ndarray:
            if not 1 <= n <= len(mats):
                raise IndexError(f"index {n} outside the explicit sequence of length {len(mats)}")
            return mats[n - 1]

        return cls(weight, term, limit)


def _finish(
    indices, values, target, envelopes, deviations, scale: float, what: str
) -> ConvergenceTrace:
    """Check a trace and package it; raise :class:`EnvelopeViolation` on failure.

    The envelope check (|value - target| <= envelope) catches an estimator
    failure.  The decay check on ``deviations``, the distances to the declared
    limit that the envelopes were built from, catches a limit the sequence does
    not approach: they must not increase along ``indices`` and the last must be
    strictly below the first, both up to ``DECAY_RTOL * scale``, unless all are
    zero at that scale.  It is a necessary condition on finitely many indices,
    not a proof of convergence.
    """
    rates = [abs(v - target) for v in values]
    for n, rate, env in zip(indices, rates, envelopes):
        if rate > env:
            raise EnvelopeViolation(
                f"{what}: |value - target| = {rate:.3e} exceeds envelope {env:.3e} at n = {n}"
            )
    tol = DECAY_RTOL * scale
    if max(deviations, default=0.0) > tol:
        for i in range(1, len(deviations)):
            if deviations[i] > deviations[i - 1] + tol:
                raise EnvelopeViolation(
                    f"{what}: deviation from the declared limit grows from "
                    f"{deviations[i - 1]:.6e} at n = {indices[i - 1]} "
                    f"to {deviations[i]:.6e} at n = {indices[i]}"
                )
        if deviations[-1] >= deviations[0] - tol:
            raise EnvelopeViolation(
                f"{what}: deviation from the declared limit does not decay: "
                f"{deviations[0]:.6e} at n = {indices[0]}, "
                f"{deviations[-1]:.6e} at n = {indices[-1]}"
            )
    return ConvergenceTrace(
        indices=list(indices),
        values=values,
        target=target,
        rates=rates,
        envelopes=envelopes,
    )


class _Quantity(NamedTuple):
    sup: bool  # the radius (aq_radius) or the Crawford number (aq_crawford)
    is_gap: bool  # the gap against the seminorm, whose envelope has Lipschitz factor 2


_QUANTITIES = {
    "radius": _Quantity(True, False),
    "crawford": _Quantity(False, False),
    "gap_omega": _Quantity(True, True),
    "gap_c": _Quantity(False, True),
}


def _value(spec: _Quantity, w, t, q, opnorm, budget, seed) -> float:
    # the estimator is looked up in this module at each call, so that a wrapper installed
    # on its binding (a profiler, a mock) sees every call
    value = (aq_radius if spec.sup else aq_crawford)(w, t, q, budget=budget, seed=seed).value
    return opnorm - value if spec.is_gap else value


def _traces(w, specs, targets, steps, scale, labels, budget, seed):
    """Each quantity at every step vs. its target, from one pass over the steps.

    A step is (n, T_n, q_n, deviation, bound): the value at (T_n, q_n) must lie
    within the quantity's Lipschitz factor times ``bound``, plus ``_SLACK``, of
    its target, and ``deviation``, the distance to the declared limit, must
    decay.  The seminorm of T_n is evaluated once per step, and only for a gap;
    it reduces T_n into the cache (`semispace._unit_reduction`) from which the
    estimators' preparation of T_n starts, so a step reduces T_n once.
    """
    rows = []  # (n, deviation, bound, the value of each quantity)
    for n, t_n, q_n, deviation, bound in steps:
        opnorm = a_opnorm(w, t_n) if any(spec.is_gap for spec in specs) else None
        estimates = (_value(spec, w, t_n, q_n, opnorm, budget, seed) for spec in specs)
        rows.append((n, deviation, bound, *estimates))
    indices, deviations, bounds, *columns = ([r[i] for r in rows] for i in range(3 + len(specs)))
    traces = []
    for spec, values, target, label in zip(specs, columns, targets, labels):
        envelopes = [(2.0 if spec.is_gap else 1.0) * b + _SLACK for b in bounds]
        traces.append(_finish(indices, values, target, envelopes, deviations, scale, label))
    return traces


def _operator_traces(seq: OperatorSequence, quantities, q, indices, budget, seed):
    """Each quantity along the sequence vs. at the limit; the bound is ||T_n - T||_A."""
    q = validate_q(q)
    w, scale = seq.weight, a_opnorm(seq.weight, seq.limit)
    specs = [_QUANTITIES[k] for k in quantities]
    targets = [_value(spec, w, seq.limit, q, scale, budget, seed) for spec in specs]
    terms = ((n, seq.term(n)) for n in indices)  # each term built once, for its value and its deviation
    steps = ((n, t_n, q, d := a_opnorm(w, t_n - seq.limit), d) for n, t_n in terms)
    labels = [f"{k} trace" for k in quantities]
    return _traces(w, specs, targets, steps, scale, labels, budget, seed)


def trace(
    seq: OperatorSequence,
    quantity: str,
    q,
    indices: Sequence[int] = DEFAULT_INDICES,
    budget: Budget | None = None,
    seed: int = 0,
) -> ConvergenceTrace:
    """``quantity`` (radius, crawford, gap_omega or gap_c) along the sequence vs. at the limit."""
    if quantity not in _QUANTITIES:
        raise ValueError(f"quantity must be one of {', '.join(_QUANTITIES)}, got {quantity!r}")
    return _operator_traces(seq, (quantity,), q, indices, budget, seed)[0]


def trace_q(
    w: Weight,
    t,
    q_list: Sequence,
    budget: Budget | None = None,
    seed: int = 0,
    kind: str = "radius",
) -> ConvergenceTrace:
    """Radius (or Crawford) at a q-sequence with Re q_n -> 1 vs. its estimate at q = 1."""
    spec = _QUANTITIES.get(kind)
    if spec is None or spec.is_gap:
        raise ValueError(f"kind must be 'radius' or 'crawford', not {kind!r}: a gap needs an operator rule; "
                         "a q trace follows radius or crawford")
    t = as_operator(t)
    opn = a_opnorm(w, t)
    target = _value(spec, w, t, 1.0, None, budget, seed)
    # q_n -> 1 is the declared limit; q lives in the closed unit disc, so its scale is 1
    steps = [
        (n, t, q, abs(1.0 - q), _sqrt_2_1mre(q) * opn)
        for n, q in enumerate(map(validate_q, q_list), start=1)
    ]
    return _traces(w, [spec], [target], steps, 1.0, ["q trace"], budget, seed)[0]


def trace_gaps(
    seq: OperatorSequence,
    q,
    indices: Sequence[int] = DEFAULT_INDICES,
    budget: Budget | None = None,
    seed: int = 0,
) -> tuple[ConvergenceTrace, ConvergenceTrace]:
    """Radius gap and Crawford gap along the sequence (2-Lipschitz envelopes)."""
    return tuple(_operator_traces(seq, ("gap_omega", "gap_c"), q, indices, budget, seed))


def trace_to_csv(trace: ConvergenceTrace, path) -> None:
    with open(path, "w") as fh:
        fh.write("n,value,target,rate,envelope\n")
        for n, v, r, e in zip(trace.indices, trace.values, trace.rates, trace.envelopes):
            fh.write(f"{n},{v:.12g},{trace.target:.12g},{r:.12g},{e:.12g}\n")
