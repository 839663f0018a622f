import json
import os
import sys

import numpy as np
import pytest

from aqradius import Weight, cli, exact, laws, sequences
from aqradius.semispace import matrix_to_json, weight_to_json
from conftest import nearly_normal, phase_grid

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


@pytest.mark.parametrize("instances", [3, 25])
def test_verify_prints_one_fail_line_for_each_of_at_most_20_failures(instances, tmp_path, monkeypatch, capsys):
    # a t1_1 row whose law cannot hold fails once on every instance
    monkeypatch.setitem(laws._LAWS, "t1_1", laws._Law(lambda inst, b: [("t1_1", (1.0, 0.0))], laws.EXACT))
    out = tmp_path / "v.csv"
    argv = ["verify", "--instances", str(instances), "--dims", "2", "--budget", "2", "--out", str(out)]
    assert cli.main(argv) == 1
    records = [json.loads(line) for line in (tmp_path / "v.jsonl").read_text().splitlines()]
    failed = [r for r in records if not r["pass"]]
    assert [r["law_id"] for r in failed] == ["t1_1"] * instances
    assert all(r["slack"] == -1.0 for r in failed)
    skipped = sum(1 for r in records if r.get("skipped"))
    summary, *lines = capsys.readouterr().out.splitlines()
    assert summary == f"{len(records) - skipped} law checks, {skipped} skips, {instances} failures"
    assert lines == [f"FAIL t1_1 on {r['instance_digest']}: slack -1.000e+00" for r in failed[:20]]


def test_verify_default_flags_build_the_default_suite_config(tmp_path, monkeypatch, capsys):
    configs = []
    monkeypatch.setattr(laws, "run_suite", lambda config: configs.append(config) or [])
    assert cli.main(["verify", "--out", str(tmp_path / "o.csv")]) == 0
    assert configs == [laws.SuiteConfig()]


def test_main_calls_parse_independently(tmp_path, capsys):
    # the parser is built once per process, so no flag of one call may leak into the next
    assert cli._build_parser() is cli._build_parser()
    path = tmp_path / "t.json"
    path.write_text(json.dumps(matrix_to_json(EX2)))
    compute = ["compute", "--matrix", str(path), "--q", "0.5"]
    budgets = []
    for k, extra in enumerate([["--budget", "4", "--seed", "1"], [], ["--budget", "2"]]):
        figure = tmp_path / f"f{k}.csv"
        assert cli.main(["figure", "--example", "1", "--out", str(figure)] + (["--grid", "3"] if k == 0 else [])) == 0
        assert figure.read_text().count("\n") == (4 if k == 0 else 102)  # the header and --grid rows
        assert cli.main(compute + extra) == 0
        budgets.append(json.loads(capsys.readouterr().out)["budget"])
    assert [(b["restarts"], b["iterations"]) for b in budgets] == [(4, 31), (64, 500), (2, 16)]
    args = cli._build_parser().parse_args(["converge", "--rule", "qseq", "--out", "o.csv"])
    assert (args.qexp, args.budget, args.matrix) == (2.0, 64, None)


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


@pytest.mark.parametrize(
    "value, message",
    [
        ("0", "must be ints >= 2, got 0"),
        ("-2", "must be ints >= 2, got -2"),
        ("1", "must be ints >= 2, got 1"),
        ("3,1", "must be ints >= 2, got 3,1"),
        ("2,x", "invalid _dims value: '2,x'"),
        ("", "invalid _dims value: ''"),
    ],
)
def test_verify_rejects_dims_below_two_when_parsing(value, message, tmp_path, capsys):
    # a usage error that names the flag, before the suite starts and writes anything
    out = tmp_path / "o.csv"
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--instances", "1", "--out", str(out), "--dims", value])
    assert exc.value.code == 2
    assert f"argument --dims: {message}" in capsys.readouterr().err
    assert not out.exists()


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


@pytest.mark.parametrize(
    ("mat", "weight", "q"),
    [
        (np.diag([1.5e308 + 1.3e308j, 1.0]), None, "0.6"),  # ||T||_A = |1.5e308 + 1.3e308 i| overflows
        (np.eye(2), None, "1.5e308,1.5e308"),  # |q| overflows
        ([[1.0, 5e306, 0.0], [0.0, 1.0, 0.0], [0.0, 1.0, 3.0]], [1.0, 1e-4, 2.0], "0.6"),  # B overflows
    ],
    ids=["opnorm", "q", "reduction"],
)
def test_compute_exits_2_with_one_error_line_beyond_the_largest_float(mat, weight, q, tmp_path, capsys):
    args = ["compute", "--matrix", _matrix_file(tmp_path, mat), "--q", q]
    if weight is not None:
        path = tmp_path / "w.json"
        path.write_text(json.dumps(weight_to_json(Weight.diagonal(weight))))
        args += ["--weight", str(path)]
    assert cli.main(args) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")


@pytest.mark.parametrize(
    ("argv", "message"),
    [
        (["compute", "--q", "0.9,0.9"], "|q| = 1.2727922061357855 exceeds 1"),  # both parts <= 1
        (["compute", "--q", "1,2,3"], "cannot parse q from '1,2,3'"),
        (["converge", "--rule", "perturb"], "--matrix is required for the perturb rule"),
        (["converge", "--rule", "qseq"], "--matrix is required for the qseq rule"),
    ],
    ids=["q-modulus", "q-parse", "perturb-matrix", "qseq-matrix"],
)
def test_bad_input_exits_2_with_one_error_line(argv, message, tmp_path, capsys):
    flag = ["--matrix", _matrix_file(tmp_path, EX2)] if argv[0] == "compute" else ["--out", str(tmp_path / "o.csv")]
    assert cli.main(argv + flag) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {message}")


def test_compute_exact_uses_the_closed_forms(tmp_path, capsys):
    # reduced dimension 2 takes every value from the closed forms, with witnesses; the
    # second matrix is the one whose q = 1 Crawford number a sphere search missed by
    # 1.3e-5 ||B|| (tests/test_radius.py::test_q_one_crawford_matches_the_2x2_closed_form)
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
        argv = ["compute", "--matrix", _matrix_file(tmp_path, mat), "--q", "0.5", "--budget", "4"]
        assert cli.main(argv) == 0
        out = json.loads(capsys.readouterr().out)
        form = exact.canonical_2x2(mat)
        assert out["omega_aq"] == pytest.approx(exact.q_radius_2x2(form, 0.5), abs=1e-14)
        assert out["c_aq"] == pytest.approx(exact.q_crawford_2x2(form, 0.5), abs=1e-14)
        assert out["omega_a"] == pytest.approx(exact.q_radius_2x2(form, 1.0), abs=1e-14)
        assert out["c_a"] == pytest.approx(exact.q_crawford_2x2(form, 1.0), abs=1e-14)
        assert set(out["witnesses"]) == {"radius_x", "radius_y", "crawford_x", "crawford_y"}


def test_compute_exact_takes_complex_q_by_its_modulus(tmp_path, capsys):
    # the values and the witnesses x depend on |q| alone; the partners y carry its phase
    matrix = _matrix_file(tmp_path, [[1.0, 2.0], [0.5j, -1.0]])
    outputs = []
    for q in ("0.5,0.1", repr(abs(0.5 + 0.1j))):  # |0.5 + 0.1i| = sqrt(0.26)
        assert cli.main(["compute", "--matrix", matrix, "--q", q, "--budget", "4"]) == 0
        outputs.append(json.loads(capsys.readouterr().out))
    for out in outputs:
        out["witnesses"].pop("radius_y"), out["witnesses"].pop("crawford_y")
    assert outputs[0] == outputs[1]


def test_compute_reports_two_sided_values_of_a_hermitian_matrix(tmp_path, capsys):
    # W(T) is the segment between the extreme eigenvalues, so every value is the
    # two-point closed form
    mat = np.array([[1.0, 1.0 - 1j, 0.5], [1.0 + 1j, 0.0, 1j], [0.5, -1j, 2.0]])
    m, big = np.linalg.eigvalsh(mat)[[0, -1]]
    argv = ["compute", "--matrix", _matrix_file(tmp_path, mat), "--q", "0.5", "--budget", "4"]
    assert cli.main(argv) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["directions"] == dict.fromkeys(("omega_aq", "c_aq", "omega_a", "c_a"), "two_sided")
    centre, half = 0.5 * (m + big) / 2, (big - m) / 2
    assert out["omega_aq"] == pytest.approx(centre + half, abs=1e-12 * big)
    assert out["c_aq"] == pytest.approx(max(0.0, centre - half), abs=1e-12 * big)


def test_compute_labels_omega_a_two_sided_only_at_its_max(tmp_path, capsys):
    # at --budget 1 a 4-phase sweep reported omega_A of this nearly normal matrix as
    # two-sided, 1.6e-2 ||T||_2 below the 4096-phase grid; the bracket reaches the max
    mat = nearly_normal(2, 3)
    argv = ["compute", "--matrix", _matrix_file(tmp_path, mat), "--q", "0.5", "--budget", "1"]
    assert cli.main(argv) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["directions"]["omega_a"] == "two_sided"
    assert out["omega_a"] >= phase_grid(mat, smallest=False) - 1e-12 * np.linalg.norm(mat, 2)


@pytest.mark.parametrize("example", ["1", "4"])
def test_figure_output_is_byte_identical_across_runs(example, tmp_path):
    outputs = []
    for run in ("a", "b"):
        out = tmp_path / f"{run}.csv"
        assert cli.main(["figure", "--example", example, "--out", str(out)]) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
    assert outputs[0].count(b"\n") == 102  # header and the default 101 grid points


@pytest.mark.parametrize("example", ["2", "3", "4"])
def test_figure_differences_stay_within_the_theorem_4_1_bound(example, tmp_path):
    # |omega_q - omega_A| <= sqrt(2 (1 - q)) ||T||: omega_A comes from the closed form of
    # omega_q at q = 1; a phase bracket that stopped at its cap read 3.3e-16 above the bound 0
    # at q = 1 of example 4
    out = tmp_path / "f.csv"
    assert cli.main(["figure", "--example", example, "--out", str(out)]) == 0
    header, *rows = out.read_text().splitlines()
    columns = header.split(",")
    for row in rows:
        values = dict(zip(columns, map(float, row.split(","))))
        assert values["abs_diff"] <= values["upper_bound"], row
    if example == "4":
        assert rows[-1] == "1,0.707106781187,0,0"


@pytest.mark.parametrize("example, mat", [(2, EX2), (3, np.eye(2) / 20.0)])
def test_figure_examples_2_and_3_follow_the_closed_forms(example, mat, tmp_path, capsys):
    # |omega_q - omega| against sqrt(2 (1 - q)) ||T||, with omega_q from the 2x2 closed form
    out = tmp_path / "f.csv"
    assert cli.main(["figure", "--example", str(example), "--out", str(out), "--grid", "11"]) == 0
    header, *rows = out.read_text().splitlines()
    assert header == "q,abs_diff,upper_bound"
    form = exact.canonical_2x2(mat)
    opnorm = np.linalg.norm(mat, 2)
    assert [float(row.split(",")[0]) for row in rows] == pytest.approx(np.linspace(0.0, 1.0, 11), abs=1e-15)
    for row in rows:
        q, abs_diff, upper = map(float, row.split(","))
        expected = abs(exact.q_radius_2x2(form, q) - exact.q_radius_2x2(form, 1.0))
        assert abs_diff == pytest.approx(expected, rel=1e-11, abs=1e-15)
        assert upper == pytest.approx(np.sqrt(2.0 * (1.0 - q)) * opnorm, rel=1e-11, abs=1e-15)
    err = capsys.readouterr().err
    if example == 3:
        assert err == (
            "note: the exact difference for the scalar family is (1 - q)/20; "
            "a formula with the opposite sign is in circulation\n"
        )
    else:
        assert err == ""


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
