import json

import numpy as np
import pytest

from aqradius import Weight, cli, sequences
from aqradius.semispace import matrix_to_json

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
        "radius": sequences.trace_radius(seq, 0.5, budget=budget),
        "crawford": sequences.trace_crawford(seq, 0.5, budget=budget),
        "gap_omega": gap_omega,
        "gap_c": gap_c,
    }
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
