"""Command-line front end: compute values, reproduce figure data, verify laws, trace limits.

Exit codes: 0 success, 2 usage/domain errors (a convergence trace that fails
its checks included), 3 operator incompatible with the weight, 141 standard
output closed by its reader (128 + SIGPIPE).  All CSV output uses a header
row, comma separator and 12 significant digits, so repeated runs with the same
flags are byte-identical.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from dataclasses import asdict

import numpy as np

from . import exact, laws, sequences
from .radius import Budget, a_crawford, a_radius, aq_crawford, aq_radius
from .semispace import (
    NotABounded,
    Weight,
    a_opnorm,
    matrix_from_json,
    validate_q,
    weight_from_json,
)

__all__ = ["main"]


def _load_matrix(path: str) -> np.ndarray:
    with open(path) as fh:
        return matrix_from_json(json.load(fh))


def _load_weight(path: str | None, dim: int) -> Weight:
    if path is None:
        return Weight.identity(dim)
    with open(path) as fh:
        return weight_from_json(json.load(fh))


def _parse_q(text: str) -> complex:
    parts = text.split(",")
    if len(parts) == 1:
        return complex(float(parts[0]), 0.0)
    if len(parts) == 2:
        return complex(float(parts[0]), float(parts[1]))
    raise ValueError(f"cannot parse q from {text!r}; expected RE or RE,IM")


def _positive_float(text: str) -> float:
    value = float(text)
    if not value > 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {text}")
    return value


def _positive_int(text: str) -> int:
    value = int(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {text}")
    return value


def _dims(text: str) -> tuple[int, ...]:
    dims = tuple(int(d) for d in text.split(","))  # argparse reports a ValueError as an invalid value
    if min(dims) < 2:
        raise argparse.ArgumentTypeError(f"must be ints >= 2, got {text}")
    return dims


def _budget_from_flag(n: int) -> Budget:
    # scale the default 64-restart budget proportionally so --budget 64
    # reproduces the library default and --budget 1 is genuinely starved
    return Budget(restarts=n, iterations=round(500 * n / 64))


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _vector_json(v: np.ndarray) -> dict:
    return {"re": [float(c.real) for c in v], "im": [float(c.imag) for c in v]}


def _cmd_compute(args) -> int:
    mat = _load_matrix(args.matrix)
    w = _load_weight(args.weight, mat.shape[0])
    q = validate_q(_parse_q(args.q), allow_zero=True)
    budget = _budget_from_flag(args.budget)

    opnorm = a_opnorm(w, mat)
    rad = aq_radius(w, mat, q, budget=budget, seed=args.seed)
    cra = aq_crawford(w, mat, q, budget=budget, seed=args.seed)
    rad_a = a_radius(w, mat, budget=budget, seed=args.seed)
    cra_a = a_crawford(w, mat, budget=budget, seed=args.seed)
    out = {
        "omega_aq": rad.value,
        "c_aq": cra.value,
        "omega_a": rad_a.value,
        "c_a": cra_a.value,
        "directions": {
            "omega_aq": rad.direction,
            "c_aq": cra.direction,
            "omega_a": rad_a.direction,
            "c_a": cra_a.direction,
        },
        "opnorm": opnorm,
        "gap_omega": opnorm - rad.value,
        "gap_c": opnorm - cra.value,
        "witnesses": {
            "radius_x": _vector_json(rad.witness_x),
            "radius_y": _vector_json(rad.witness_y),
            "crawford_x": _vector_json(cra.witness_x),
            "crawford_y": _vector_json(cra.witness_y),
        },
        "budget": asdict(budget),
    }
    json.dump(out, sys.stdout, indent=2)
    sys.stdout.write("\n")
    return 0


def _example_matrix(example: int) -> np.ndarray:
    if example == 1:
        return np.array([[0.0, 1.0 / 70.0], [0.0, 0.0]], dtype=complex)
    if example == 2:
        return np.array([[0.0, 1.0 / 24.0], [0.0, 0.0]], dtype=complex)
    if example == 3:
        return np.eye(2, dtype=complex) / 20.0
    if example == 4:
        return np.diag([1.0, 1.0], k=1).astype(complex)
    raise ValueError(f"unknown example {example}; expected 1-4")


def _cmd_figure(args) -> int:
    example = args.example
    mat = _example_matrix(example)
    n_grid = args.grid
    w = Weight.identity(mat.shape[0])
    omega = a_radius(w, mat).value
    rows: list[list[float]] = []

    if example in (1, 2, 3):
        form = exact.canonical_2x2(mat)
        opnorm = a_opnorm(w, mat)
        qs = np.linspace(0.0, 1.0, n_grid)
        if example == 1:
            header = "q,two_q_omega,two_omega_q,upper_paper_sqrt1mq,upper_paper_sqrt1mq2"
            for q in qs:
                omega_q = exact.q_radius_2x2(form, q)
                rows.append(
                    [
                        q,
                        2.0 * q * omega,
                        2.0 * omega_q,
                        2.0 * omega + 2.0 * math.sqrt(2.0) * math.sqrt(1.0 - q) * opnorm,
                        2.0 * omega + 2.0 * math.sqrt(2.0) * math.sqrt(1.0 - q * q) * opnorm,
                    ]
                )
        else:
            header = "q,abs_diff,upper_bound"
            for q in qs:
                omega_q = exact.q_radius_2x2(form, q)
                rows.append(
                    [q, abs(omega_q - omega), math.sqrt(2.0 * (1.0 - q)) * opnorm]
                )
            if example == 3:
                print(
                    "note: the exact difference for the scalar family is "
                    "(1 - q)/20; a formula with the opposite sign is in circulation",
                    file=sys.stderr,
                )
    else:
        header = "q,omega_q,abs_diff,upper_bound"
        for q in np.linspace(0.5, 1.0, n_grid):
            omega_q = exact.jordan3_q_radius(q)
            rows.append([q, omega_q, abs(omega_q - omega), math.sqrt(2.0 * (1.0 - q))])

    with open(args.out, "w") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")
    return 0


def _cmd_verify(args) -> int:
    config = laws.SuiteConfig(
        n_instances=args.instances,
        dims=args.dims,
        seed=args.seed,
        budget=_budget_from_flag(args.budget),
    )
    reports = laws.run_suite(config)
    laws.reports_csv_summary(reports, args.out)
    jsonl_path = args.out + ".jsonl" if not args.out.endswith(".csv") else args.out[:-4] + ".jsonl"
    laws.reports_to_jsonl(reports, jsonl_path)
    failures = [r for r in reports if not r.passed]
    checked = sum(1 for r in reports if not r.skipped)
    skipped = len(reports) - checked
    print(f"{checked} law checks, {skipped} skips, {len(failures)} failures")
    for rep in failures[:20]:
        print(f"FAIL {rep.law_id} on {rep.instance_digest}: slack {rep.slack:.3e}")
    return 1 if failures else 0


def _operator_sequence(args) -> sequences.OperatorSequence:
    if args.rule == "multiplication":
        return sequences.OperatorSequence.multiplication(
            psi=lambda x: 1.0 + x,
            phi=lambda n, x: 1.0 + x / n,
            grid_points=args.grid_points,
        )
    if args.matrix is None:
        raise ValueError("--matrix is required for the perturb rule")
    mat = _load_matrix(args.matrix)
    w = _load_weight(args.weight, mat.shape[0])
    direction = _load_matrix(args.direction) if args.direction else np.eye(mat.shape[0], dtype=complex)
    return sequences.OperatorSequence.perturbation(w, mat, direction)


def _cmd_converge(args) -> int:
    budget = _budget_from_flag(args.budget)
    if args.rule == "qseq":
        if args.matrix is None:
            raise ValueError("--matrix is required for the qseq rule")
        mat = _load_matrix(args.matrix)
        w = _load_weight(args.weight, mat.shape[0])
        q_list = [1.0 - n ** (-args.qexp) for n in sequences.DEFAULT_INDICES]
        q_list = [q if q > 0 else 1e-6 for q in q_list]
        trace = sequences.trace_q(w, mat, q_list, budget=budget, seed=args.seed, kind=args.quantity)
    else:
        seq = _operator_sequence(args)
        q = validate_q(_parse_q(args.q))
        trace = sequences.trace(seq, args.quantity, q, budget=budget, seed=args.seed)
    sequences.trace_to_csv(trace, args.out)
    print(f"target {_fmt(trace.target)}, final value {_fmt(trace.values[-1])}")
    return 0


@functools.cache  # one parser per process: each parse_args call fills a new namespace
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aqradius",
        description="Weighted q-numerical radius and Crawford number toolbox",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", help="compute radii, Crawford numbers and gaps")
    p.add_argument("--matrix", required=True, help="matrix JSON file")
    p.add_argument("--weight", default=None, help="weight JSON file (default: identity)")
    p.add_argument("--q", required=True, help="constraint parameter RE[,IM]")
    p.add_argument("--budget", type=_positive_int, default=64)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_compute)

    p = sub.add_parser("figure", help="write figure-reproduction data as CSV")
    p.add_argument("--example", type=int, required=True, choices=(1, 2, 3, 4))
    p.add_argument("--out", required=True)
    p.add_argument("--grid", type=_positive_int, default=101)
    p.set_defaults(func=_cmd_figure)

    p = sub.add_parser("verify", help="run the randomized law suite")
    p.add_argument("--instances", type=_positive_int, default=200)
    p.add_argument("--dims", type=_dims, default="2,3,4", help="reduced dimensions, ints >= 2")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--budget", type=_positive_int, default=32)
    p.add_argument("--out", required=True, help="summary CSV path (JSONL written alongside)")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("converge", help="trace a convergence experiment to CSV")
    p.add_argument("--rule", required=True, choices=("perturb", "multiplication", "qseq"))
    p.add_argument("--matrix", default=None)
    p.add_argument("--weight", default=None)
    p.add_argument("--direction", default=None, help="perturbation direction matrix JSON")
    p.add_argument("--q", default="0.5")
    p.add_argument(
        "--qexp", type=_positive_float, default=2.0, help="qseq rule: q_n = 1 - n^(-qexp), qexp > 0"
    )
    p.add_argument("--grid-points", type=_positive_int, default=64)
    p.add_argument("--quantity", default="radius", choices=tuple(sequences._QUANTITIES))
    p.add_argument("--budget", type=_positive_int, default=64)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_converge)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NotABounded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except BrokenPipeError:
        # the reader closed stdout: exit as a write into a closed pipe does
        # (128 + SIGPIPE), silently, and give the final flush a sink that cannot fail
        sys.stdout = open(os.devnull, "w")
        return 141
    # ValueError includes RankTooLow, QOutOfRange (a q outside the closed unit disc) and bad JSON
    except (ValueError, KeyError, OSError, sequences.EnvelopeViolation) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
