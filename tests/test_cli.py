import json
import os
import sys

import numpy as np
import pytest

from aqradius import Weight, cli, exact, sequences
from aqradius.semispace import matrix_to_json, weight_to_json

EX2 = np.array([[0.0, 1.0 / 24.0], [0.0, 0.0]], dtype=complex)


@pytest.fixture
def converge_qseq(tmp_path):
    path = tmp_path / "t.json"
    path.write_text(json.dumps(matrix_to_json(EX2)))
    out = tmp_path / "o.csv"
    return out, ["converge", "--rule", "qseq", "--matrix", str(path), "--budget", "2", "--out", str(out)]


def test_converge_rejects_nonpositive_qexp(converge_qseq, capsys):
    _, argv = converge_qseq
    for qexp in ("0", "-1"):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv + ["--qexp", qexp])
        assert exc.value.code == 2
        assert "--qexp: must be positive" in capsys.readouterr().err


def test_converge_envelope_violation_exits_2(converge_qseq, capsys):
    # q_n = 1 - n^(-1e-9) stays below 1e-8 on the default indices, so |1 - q_n|
    # does not decay (q_1 = 0 is lifted to 1e-6, which even makes it grow)
    out, argv = converge_qseq
    assert cli.main(argv + ["--qexp", "1e-9"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: q trace: deviation from the declared limit grows")
    assert not out.exists()


def test_verify_output_is_byte_identical_across_runs(tmp_path, capsys):
    outputs = []
    for run in ("a", "b"):
        out = tmp_path / f"{run}.csv"
        argv = ["verify", "--instances", "1", "--dims", "2", "--budget", "2", "--seed", "3", "--out", str(out)]
        assert cli.main(argv) == 0
        outputs.append((out.read_bytes(), (tmp_path / f"{run}.jsonl").read_bytes()))
    assert outputs[0] == outputs[1]
    assert outputs[0][0].startswith(b"law_id,pass_rate,min_slack\n")
    assert outputs[0][1].count(b"\n") == 22


def _operator_rule(rule, tmp_path):
    """CLI flags of an operator rule and the OperatorSequence they select."""
    if rule == "multiplication":
        seq = sequences.OperatorSequence.multiplication(
            psi=lambda x: 1.0 + x, phi=lambda n, x: 1.0 + x / n, grid_points=4
        )
        return ["--grid-points", "4"], seq
    path = tmp_path / "t.json"
    path.write_text(json.dumps(matrix_to_json(EX2)))
    seq = sequences.OperatorSequence.perturbation(Weight.identity(2), EX2, np.eye(2))
    return ["--matrix", str(path)], seq


@pytest.mark.parametrize("rule", ["multiplication", "perturb"])
def test_converge_writes_the_trace_of_each_quantity(rule, tmp_path, capsys):
    flags, seq = _operator_rule(rule, tmp_path)
    budget = cli._budget_from_flag(2)
    gap_omega, gap_c = sequences.trace_gaps(seq, 0.5, budget=budget)
    expected = {
        quantity: sequences.trace(seq, quantity, 0.5, budget=budget)
        for quantity in ("radius", "crawford", "gap_omega", "gap_c")
    }
    for quantity, from_gaps in (("gap_omega", gap_omega), ("gap_c", gap_c)):
        assert expected[quantity] == from_gaps, quantity
    written = {}
    for quantity, trace in expected.items():
        out = tmp_path / f"{quantity}.csv"
        argv = ["converge", "--rule", rule, *flags, "--quantity", quantity, "--budget", "2", "--out", str(out)]
        assert cli.main(argv) == 0
        ref = tmp_path / f"{quantity}-ref.csv"
        sequences.trace_to_csv(trace, ref)
        written[quantity] = out.read_bytes()
        assert written[quantity] == ref.read_bytes(), quantity
    assert len(set(written.values())) == 4


@pytest.mark.parametrize("quantity", ["gap_omega", "gap_c"])
def test_converge_qseq_rejects_gap_quantities(converge_qseq, quantity, capsys):
    out, argv = converge_qseq
    assert cli.main(argv + ["--quantity", quantity]) == 2
    assert "needs an operator rule" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "command, flag, value",
    [
        ("compute", "--budget", "0"),
        ("compute", "--budget", "-3"),
        ("verify", "--budget", "0"),
        ("verify", "--instances", "-1"),
        ("verify", "--instances", "0"),
        ("converge", "--budget", "-3"),
        ("converge", "--grid-points", "0"),
        ("figure", "--grid", "0"),
    ],
)
def test_rejects_nonpositive_counts(command, flag, value, tmp_path, capsys):
    path = tmp_path / "t.json"
    path.write_text(json.dumps(matrix_to_json(EX2)))
    out = str(tmp_path / "o.csv")
    argv = {
        "compute": ["compute", "--matrix", str(path), "--q", "0.5"],
        "verify": ["verify", "--instances", "1", "--dims", "2", "--out", out],
        "converge": ["converge", "--rule", "perturb", "--matrix", str(path), "--out", out],
        "figure": ["figure", "--example", "1", "--out", out],
    }[command]
    with pytest.raises(SystemExit) as exc:
        cli.main(argv + [flag, value])
    assert exc.value.code == 2
    assert f"{flag}: must be positive, got {value}" in capsys.readouterr().err


def _matrix_file(tmp_path, mat, name="t.json"):
    path = tmp_path / name
    path.write_text(json.dumps(matrix_to_json(np.asarray(mat, dtype=complex))))
    return str(path)


def test_compute_exits_3_on_an_operator_the_weight_does_not_bound(tmp_path, capsys):
    # T e2 = e1 leaves the null space of diag(1, 0), so ||T||_A is infinite
    weight = tmp_path / "w.json"
    weight.write_text(json.dumps(weight_to_json(Weight.diagonal([1.0, 0.0]))))
    matrix = _matrix_file(tmp_path, [[0.0, 1.0], [0.0, 0.0]])
    assert cli.main(["compute", "--matrix", matrix, "--weight", str(weight), "--q", "0.5"]) == 3
    assert capsys.readouterr().err.startswith("error: ")


def test_compute_exact_uses_the_closed_forms(tmp_path, capsys):
    # the second matrix is the one whose q = 1 Crawford number the sphere search
    # misses by 1.3e-5 ||B|| (tests/test_radius.py::test_q_one_crawford_matches_the_2x2_closed_form)
    mats = [
        np.array([[1.0, 2.0], [0.5j, -1.0]]),
        np.array(
            [
                [0.302037 - 0.981239j, 1.296558 - 0.159437j],
                [-0.429271 - 0.673309j, 0.216538 - 0.757542j],
            ]
        ),
    ]
    for mat in mats:
        argv = ["compute", "--matrix", _matrix_file(tmp_path, mat), "--q", "0.5", "--exact", "--budget", "4"]
        assert cli.main(argv) == 0
        out = json.loads(capsys.readouterr().out)
        form = exact.canonical_2x2(mat)
        assert out["omega_aq"] == pytest.approx(exact.q_radius_2x2(form, 0.5), abs=1e-14)
        assert out["c_aq"] == pytest.approx(exact.q_crawford_2x2(form, 0.5), abs=1e-14)
        assert out["omega_a"] == pytest.approx(exact.q_radius_2x2(form, 1.0), abs=1e-14)
        assert out["c_a"] == pytest.approx(exact.q_crawford_2x2(form, 1.0), abs=1e-14)
        assert out["witnesses"] is None


def test_compute_exact_takes_complex_q_by_its_modulus(tmp_path, capsys):
    matrix = _matrix_file(tmp_path, [[1.0, 2.0], [0.5j, -1.0]])
    outputs = []
    for q in ("0.5,0.1", repr(abs(0.5 + 0.1j))):  # |0.5 + 0.1i| = sqrt(0.26)
        assert cli.main(["compute", "--matrix", matrix, "--q", q, "--exact", "--budget", "4"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("example", ["1", "4"])
def test_figure_output_is_byte_identical_across_runs(example, tmp_path):
    outputs = []
    for run in ("a", "b"):
        out = tmp_path / f"{run}.csv"
        assert cli.main(["figure", "--example", example, "--out", str(out)]) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
    assert outputs[0].count(b"\n") == 102  # header and the default 101 grid points


class _ClosedPipe:
    """A standard output whose reader has gone away."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        raise BrokenPipeError(32, "Broken pipe")


def test_output_into_a_closed_pipe_exits_141_silently(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdout", _ClosedPipe())
    argv = ["compute", "--matrix", _matrix_file(tmp_path, EX2), "--q", "0.5", "--budget", "4"]
    assert cli.main(argv) == 141
    assert sys.stdout.name == os.devnull  # the interpreter's final flush cannot fail
    sys.stdout.close()
    assert capsys.readouterr().err == ""
