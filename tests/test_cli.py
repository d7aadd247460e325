import csv
import dataclasses
import errno
import hashlib
import io
import math
import os
import random
import subprocess
import sys
import time
import types
from pathlib import Path

import pytest

import braidjones.cli
import braidjones.tlrep
from braidjones.braid import parse_braid
from braidjones.cli import (
    CSV_COLUMNS,
    SweepRecord,
    _check_records,
    default_grid,
    emit_csv,
    main,
    preset,
    run_sweep,
)
from braidjones.nmr import MeasurementPrecision

SRC = str(Path(__file__).resolve().parents[1] / "src")


def _cli_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return env


def run_cli(*args, stdout=subprocess.PIPE):
    return subprocess.run(
        [sys.executable, "-m", "braidjones", *args],
        stdout=stdout,
        stderr=subprocess.PIPE,
        text=True,
        env=_cli_env(),
    )


def test_presets():
    trefoil = preset("trefoil")
    assert len(trefoil.letters) == 3
    assert sum(g.sign for g in trefoil.letters) == 3
    figure8 = preset("figure8")
    assert len(figure8.letters) == 4
    borromean = preset("borromean")
    assert len(borromean.letters) == 6
    assert sum(g.sign for g in borromean.letters) == 0
    with pytest.raises(ValueError, match="borromean, figure8, trefoil"):
        preset("unknot")


def test_run_sweep_exact_mode():
    records = run_sweep(preset("trefoil"), default_grid(), with_oracle=True)
    assert len(records) == 31
    for r in records:
        assert abs(r.trace_exact - r.trace_nmr) <= 1e-10
        assert abs(r.bracket - r.bracket_oracle) <= 1e-9
        assert r.eq9_bound == 0.0


def test_run_sweep_identity_braid_point():
    records = run_sweep(parse_braid("", 3), [0.0])
    assert abs(records[0].trace_exact - 2.0) < 1e-12
    assert abs(records[0].bracket - 4.0) < 1e-12
    assert records[0].bracket_oracle is None


def test_run_sweep_figure8_at_zero():
    records = run_sweep(preset("figure8"), [0.0])
    assert records[0].jones == records[0].bracket


def test_run_sweep_rejects_inadmissible_angle():
    with pytest.raises(ValueError, match="45.0"):
        run_sweep(preset("trefoil"), [0.0, 45.0])


def test_run_sweep_rejects_wrong_strand_count():
    with pytest.raises(ValueError, match="3-strand"):
        run_sweep(parse_braid("s1", 2), [0.0])


def test_run_sweep_deterministic_with_noise():
    prec = MeasurementPrecision(epsilon=1e-3, alpha1=1.0, seed=9)
    first = run_sweep(preset("figure8"), default_grid(), prec)
    second = run_sweep(preset("figure8"), default_grid(), prec)
    assert first == second
    for r in first:
        assert abs(r.trace_exact - r.trace_nmr) <= r.eq9_bound


def test_emit_csv_shape_and_determinism():
    records = run_sweep(preset("trefoil"), default_grid(), with_oracle=True)
    buf = io.StringIO()
    emit_csv(records, buf)
    lines = buf.getvalue().splitlines()
    assert len(lines) == 32
    assert lines[0] == CSV_COLUMNS
    assert all(len(line.split(",")) == 20 for line in lines)
    buf2 = io.StringIO()
    emit_csv(records, buf2)
    assert buf.getvalue() == buf2.getvalue()


def test_emit_csv_empty_and_oracle_free():
    buf = io.StringIO()
    emit_csv([], buf)
    assert buf.getvalue() == CSV_COLUMNS + "\n"
    records = run_sweep(preset("trefoil"), [0.0])
    buf = io.StringIO()
    emit_csv(records, buf)
    row = buf.getvalue().splitlines()[1].split(",")
    assert row[11] == "" and row[12] == ""


def test_csv_header_follows_the_record_fields():
    renamed = {"trace_exact": "trace", "bracket_oracle": "oracle"}
    expected = []
    for f in dataclasses.fields(SweepRecord):
        name = renamed.get(f.name, f.name)
        expected += [f"{name}_re", f"{name}_im"] if "complex" in f.type else [name]
    assert CSV_COLUMNS.split(",") == expected


def test_emit_csv_round_trips():
    prec = MeasurementPrecision(epsilon=1e-3, alpha1=0.3, seed=5)
    records = (
        run_sweep(preset("borromean"), [0.0, 7.0, 30.0], prec, with_oracle=True)
        + run_sweep(preset("figure8"), [90.0, 200.0], prec)
    )
    buf = io.StringIO()
    emit_csv(records, buf)
    header, *rows = csv.reader(io.StringIO(buf.getvalue()))
    assert header == CSV_COLUMNS.split(",") and len(rows) == len(records)
    for r, row in zip(records, rows):
        cells = iter(row)
        for f in dataclasses.fields(SweepRecord):
            value = getattr(r, f.name)
            if "complex" not in f.type:
                parts = (value,)
            elif value is None:
                parts = (None, None)
            else:
                parts = (value.real, value.imag)
            for part in parts:
                cell = next(cells)
                if part is None:
                    assert cell == ""
                else:
                    assert math.isclose(float(cell), part, rel_tol=6e-12, abs_tol=0.0)
        assert next(cells, None) is None


def test_cli_sweep_error_names_the_angle(capsys):
    # 10^4 letters: the accumulated unitarity defect trips the unit-trace check
    word = " ".join(["s1 s2^-1"] * 5000)
    assert main(["sweep", "--braid", word]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("error: theta = ")
    assert err.endswith(" deg: density operator must have unit trace\n")


def test_cli_sweep_end_to_end(tmp_path):
    out = tmp_path / "sweep.csv"
    result = run_cli(
        "sweep", "--preset", "trefoil", "--oracle", "--epsilon", "0",
        "--out", str(out),
    )
    assert result.returncode == 0, result.stderr
    first = out.read_bytes()
    assert len(first.splitlines()) == 32
    result = run_cli(
        "sweep", "--preset", "trefoil", "--oracle", "--epsilon", "0",
        "--out", str(out),
    )
    assert result.returncode == 0
    assert out.read_bytes() == first


@pytest.mark.parametrize(
    "flags, refusal",
    [
        (("--preset", "trefoil", "--theta-min-deg", "40", "--theta-max-deg", "50"),
         "error: theta = 40.0 deg is outside the admissible angle set\n"),
        (("--braid", "s1^20", "--oracle", "--theta-step-deg", "0.5"),
         "error: --oracle: 61 gridpoints of 2^20 state-sum terms exceed "
         "MAX_ORACLE_TERMS = 33554432\n"),
    ],
    ids=("inadmissible-angle", "oracle-budget"),
)
def test_cli_refused_sweep_leaves_out_untouched(tmp_path, capsys, flags, refusal):
    out = tmp_path / "keep.csv"
    out.write_bytes(b"prior bytes\n")
    assert main(["sweep", *flags, "--out", str(out)]) == 2
    assert capsys.readouterr().err == refusal
    assert out.read_bytes() == b"prior bytes\n"


def test_cli_sweep_corrupted_tolerance_fails(tmp_path):
    out = tmp_path / "sweep.csv"
    result = run_cli(
        "sweep", "--preset", "trefoil", "--oracle", "--epsilon", "0",
        "--oracle-tol", "1e-30", "--out", str(out),
    )
    assert result.returncode == 1
    assert "FAIL" in result.stderr


def test_cli_sweep_noise_deterministic(tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    args = ("sweep", "--preset", "borromean", "--epsilon", "1e-3", "--seed", "7")
    assert run_cli(*args, "--out", str(out1)).returncode == 0
    assert run_cli(*args, "--out", str(out2)).returncode == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_cli_sweep_stdout():
    result = run_cli("sweep", "--preset", "trefoil", "--theta-max-deg", "2")
    assert result.returncode == 0
    lines = result.stdout.splitlines()
    assert len(lines) == 4
    assert lines[0] == CSV_COLUMNS


def test_cli_angles():
    result = run_cli("angles", "--theta-deg", "0", "--which", "2")
    assert result.returncode == 0
    values = dict(line.split("=") for line in result.stdout.splitlines())
    assert abs(float(values["alpha"]) - math.pi / 2) < 1e-12
    assert abs(float(values["beta"]) - math.pi / 2) < 1e-12
    assert abs(float(values["gamma"]) - 2 * math.pi / 3) < 1e-12


def test_cli_compile():
    result = run_cli("compile", "--theta-deg", "15", "--which", "2")
    assert result.returncode == 0
    lines = result.stdout.splitlines()
    assert lines[-1].startswith("fidelity=")
    assert float(lines[-1].split("=")[1]) >= 1.0 - 1e-10
    kinds = {line.split()[0] for line in lines[:-1]}
    assert kinds == {"ROT", "COUPLE", "PHASE"}


def test_cli_compile_inverse():
    result = run_cli("compile", "--theta-deg", "10", "--which", "1", "--inverse")
    assert result.returncode == 0
    assert float(result.stdout.splitlines()[-1].split("=")[1]) >= 1.0 - 1e-10


@pytest.mark.parametrize("command", (("angles",), ("compile", "--inverse")))
@pytest.mark.parametrize("deg", ("45", "-1", "nan", "inf"))
def test_cli_gate_commands_name_the_theta_flag(command, deg, capsys):
    assert main([*command, "--theta-deg", deg, "--which", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --theta-deg must lie in [0, 30], got {float(deg)!r}\n"


@pytest.mark.parametrize("deg, status", (("-1e-11", 0), ("30.00000000001", 0), ("30.000000001", 2)))
def test_cli_gate_commands_take_the_domain_pulses_takes(deg, status, capsys):
    # pulses allows 1e-12 rad (5.7e-11 deg) of rounding past each end; the CLI refuses no less
    assert main(["angles", f"--theta-deg={deg}", "--which", "2"]) == status
    assert (capsys.readouterr().err == "") == (status == 0)


def test_cli_rejects_inadmissible_sweep():
    result = run_cli("sweep", "--preset", "trefoil", "--theta-max-deg", "45")
    assert result.returncode == 2
    assert "admissible" in result.stderr


@pytest.mark.parametrize("word", (("--preset", "trefoil"), ("--braid", "s1 s2")))
def test_cli_judges_a_huge_angle_on_its_true_delta(word, capsys):
    # 1e300 deg is a finite angle whose delta is 0.23: inside a gap
    args = ["sweep", *word, "--theta-min-deg", "1e300", "--theta-max-deg", "1e300"]
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: theta = 1e+300 deg is outside the admissible angle set\n"


def test_run_sweep_builds_each_letter_image_once_per_point(monkeypatch):
    calls = 0
    original = braidjones.tlrep.rho_generator

    def counting(g, params):
        nonlocal calls
        calls += 1
        return original(g, params)

    monkeypatch.setattr(braidjones.tlrep, "rho_generator", counting)
    run_sweep(preset("borromean"), default_grid())
    # two distinct letters (s1, s2^-1) at each of the 31 angles
    assert calls == 2 * 31


def test_run_sweep_builds_one_generator_pair_per_point(monkeypatch):
    calls = 0
    original = braidjones.tlrep.tl_generators

    def counting(delta):
        nonlocal calls
        calls += 1
        return original(delta)

    monkeypatch.setattr(braidjones.tlrep, "tl_generators", counting)
    run_sweep(preset("borromean"), default_grid())
    # ReprParams builds (U1, U2) once; both letter images read that pair
    assert calls == 31


@pytest.mark.parametrize("deg", ["0", "30", "60", "120", "150", "210", "240", "300", "330", "360"])
def test_cli_sweep_passes_at_each_interval_endpoint(deg, capsys):
    args = ["--theta-min-deg", deg, "--theta-max-deg", deg, "--oracle", "--epsilon", "0"]
    assert main(["sweep", "--preset", "borromean", *args]) == 0
    assert "1 gridpoints, 0 violations" in capsys.readouterr().err


def test_cli_sweep_from_an_endpoint_to_an_endpoint():
    result = run_cli("sweep", "--preset", "figure8", "--theta-min-deg", "60",
                     "--theta-max-deg", "120", "--oracle", "--epsilon", "0")
    assert result.returncode == 0, result.stderr
    assert "61 gridpoints, 0 violations" in result.stderr


def test_cli_sweep_parses_braid_on_three_strands(capsys):
    assert main(["sweep", "--braid", "s1 s3"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "s3" in err
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--braid", "s1", "--strands", "4"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "flags, named",
    [
        (("--epsilon", "nan"), "epsilon"),
        (("--oracle", "--oracle-tol", "nan"), "--oracle-tol"),
        (("--alpha1", "inf", "--epsilon", "1e-3"), "alpha1"),
        (("--epsilon", "inf"), "epsilon"),
        (("--theta-max-deg", "inf"), "--theta-max-deg"),
        (("--theta-step-deg", "nan"), "--theta-step-deg"),
    ],
)
def test_cli_sweep_rejects_non_finite_input(flags, named, capsys):
    assert main(["sweep", "--preset", "trefoil", *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err


def test_cli_sweep_caps_the_grid(capsys, monkeypatch):
    assert main(["sweep", "--preset", "trefoil", "--theta-step-deg", "1e-9"]) == 2
    assert "more than 1000000 grid points" in capsys.readouterr().err
    monkeypatch.setattr(braidjones.cli, "MAX_GRID_POINTS", 3)
    assert main(["sweep", "--preset", "trefoil", "--theta-max-deg", "2"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 4
    assert main(["sweep", "--preset", "trefoil", "--theta-max-deg", "3"]) == 2


def test_cli_sweep_unwritable_out_is_bad_input(tmp_path):
    target = tmp_path / "missing" / "x.csv"
    result = run_cli("sweep", "--preset", "trefoil", "--out", str(target))
    assert result.returncode == 2
    assert result.stderr.startswith("error: ") and str(target) in result.stderr
    assert "Traceback" not in result.stderr and result.stderr.count("\n") == 1


def test_run_sweep_checks_oracle_limits_before_any_gridpoint(monkeypatch, capsys):
    def no_gridpoint(*args):
        raise AssertionError("a gridpoint was evaluated")

    monkeypatch.setattr(braidjones.cli, "evaluate", no_gridpoint)
    with pytest.raises(ValueError, match="--oracle: the word has 21 letters; .* 20 letters"):
        run_sweep(parse_braid("s1^21", 3), [0.0], with_oracle=True)
    assert main(["sweep", "--braid", "s1^21", "--oracle"]) == 2
    assert "--oracle" in capsys.readouterr().err


def test_run_sweep_bounds_the_oracle_cost_before_any_gridpoint(monkeypatch, capsys):
    def no_gridpoint(*args):
        raise AssertionError("a gridpoint was evaluated")

    monkeypatch.setattr(braidjones.cli, "evaluate", no_gridpoint)
    word = parse_braid("s1 s2^-1 " * 10, 3)
    # 33 * 2^20 state-sum terms exceed 2^25; 32 * 2^20 reach the first gridpoint
    with pytest.raises(ValueError, match="--oracle: 33 gridpoints of 2\\^20 .* 33554432"):
        run_sweep(word, [0.5 * k for k in range(33)], with_oracle=True)
    with pytest.raises(AssertionError, match="a gridpoint was evaluated"):
        run_sweep(word, [0.5 * k for k in range(32)], with_oracle=True)
    argv = ["sweep", "--braid", "s1 s2^-1 " * 10, "--oracle", "--theta-max-deg", "16",
            "--theta-step-deg", "0.5"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --oracle: 33 gridpoints") and err.count("\n") == 1


def test_run_sweep_names_alpha1_when_the_calibration_vanishes(monkeypatch):
    def no_gridpoint(*args):
        raise AssertionError("a gridpoint was evaluated")

    monkeypatch.setattr(braidjones.cli, "evaluate", no_gridpoint)
    for epsilon in (0.0, 1e-3):
        prec = MeasurementPrecision(epsilon=epsilon, alpha1=1e-300)
        with pytest.raises(ValueError) as exc:
            run_sweep(preset("trefoil"), [0.0], prec)
        assert str(exc.value) == "--alpha1 1e-300 gives a vanishing calibration constant"


@pytest.mark.parametrize("epsilon", ["0", "1e-3"])
def test_cli_sweep_names_alpha1_when_the_calibration_vanishes(epsilon, capsys):
    argv = ["sweep", "--preset", "trefoil", "--alpha1", "1e-300", "--epsilon", epsilon,
            "--theta-max-deg", "0"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --alpha1 1e-300 gives a vanishing calibration constant\n"


def test_cli_sweep_summary_reports_worst_oracle_gap(capsys):
    assert main(["sweep", "--preset", "borromean", "--oracle", "--theta-max-deg", "3"]) == 0
    captured = capsys.readouterr()
    records = run_sweep(preset("borromean"), [0.0, 1.0, 2.0, 3.0], with_oracle=True)
    worst = max(records, key=lambda r: abs(r.bracket - r.bracket_oracle))
    gap = abs(worst.bracket - worst.bracket_oracle)
    assert captured.err.splitlines()[-1] == (
        f"4 gridpoints, 0 violations, worst |bracket - oracle| = {gap:.1e} "
        f"at theta={worst.theta_deg:g} deg"
    )
    assert main(["sweep", "--preset", "borromean", "--theta-max-deg", "3"]) == 0
    assert capsys.readouterr().err == "4 gridpoints, 0 violations\n"


@pytest.mark.parametrize("name", ["trace_nmr", "eq9_bound", "bracket_oracle", "jones"])
def test_check_records_flags_non_finite_fields(name):
    (record,) = run_sweep(preset("trefoil"), [5.0], with_oracle=True)
    problems, _ = _check_records([record], 1e-9)
    assert problems == []
    bad = dataclasses.replace(record, **{name: math.nan})
    problems, _ = _check_records([bad], 1e-9)
    assert problems and any(name in p for p in problems)


def test_run_sweep_keeps_grid_order_and_seeds_row_k_with_seed_plus_k():
    word = preset("figure8")
    rows = run_sweep(word, [30.0, 0.0, 15.0], MeasurementPrecision(epsilon=1e-3, seed=3))
    assert [r.theta_deg for r in rows] == [30.0, 0.0, 15.0]
    for k, row in enumerate(rows):
        alone = run_sweep(word, [row.theta_deg], MeasurementPrecision(epsilon=1e-3, seed=3 + k))
        assert alone == [row]


def test_run_sweep_converts_each_angle_once(monkeypatch):
    calls = []

    def radians(deg):
        calls.append(deg)
        return math.radians(deg)

    monkeypatch.setattr(braidjones.cli, "math", types.SimpleNamespace(**{**vars(math), "radians": radians}))
    run_sweep(preset("trefoil"), [0.0, 5.0, 10.0])
    assert calls == [0.0, 5.0, 10.0]


def test_cli_sweep_gates_an_underflowed_bound_as_exact(capsys):
    # eq9_bound underflows to 0 at epsilon 5e-324: the rows are held to the exact tolerance
    argv = ["sweep", "--preset", "borromean", "--epsilon", "5e-324", "--alpha1", "100"]
    assert main(argv) == 0
    assert capsys.readouterr().err == "31 gridpoints, 0 violations\n"


@pytest.mark.parametrize(
    "flags, message",
    [
        (("--theta-step-deg", "0"), "--theta-step-deg must be positive, got 0.0"),
        (("--theta-min-deg", "10", "--theta-max-deg", "5"),
         "--theta-max-deg 5.0 is below --theta-min-deg 10.0"),
        (("--oracle", "--oracle-tol", "0"), "--oracle-tol must be positive"),
    ],
)
def test_cli_sweep_refuses_an_empty_grid_or_tolerance_by_flag(flags, message, capsys):
    assert main(["sweep", "--preset", "trefoil", *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


# sha256 of stdout: the output bytes are a contract, so a change here is deliberate
GOLDEN_STDOUT_SHA256 = {
    ("sweep", "--preset", "figure8", "--epsilon", "1e-3", "--seed", "7"):
        "8fc29dd86d6abcc0c2c0cad7d61d407d0ca6ba260cfbfdaad707ff13e32cc03f",
    ("sweep", "--preset", "trefoil", "--oracle", "--epsilon", "0"):
        "a14e35552d5ae9b6d99b1ae818c124fe4f698ddc7f71a47b995936b708f294f0",
    ("compile", "--theta-deg", "15", "--which", "2"):
        "2c66317616d5df699451f07273e28395f7063095c4f42a0bc917d53f71571374",
}


@pytest.mark.parametrize("args", list(GOLDEN_STDOUT_SHA256))
def test_cli_stdout_matches_golden_bytes(args):
    result = run_cli(*args)
    assert result.returncode == 0, result.stderr
    digest = hashlib.sha256(result.stdout.encode("ascii")).hexdigest()
    assert digest == GOLDEN_STDOUT_SHA256[args]


# sha256 of stderr, recorded before the gate and its summary shared one pass
GOLDEN_STDERR_SHA256 = {
    ("sweep", "--preset", "borromean", "--oracle", "--oracle-tol", "1e-30"):
        (1, "c0600ff783e0c389cfc36a4b40957e3f4432d9e0b83fc5a69c33b8f37b6e6986"),
    ("sweep", "--preset", "figure8", "--oracle", "--theta-max-deg", "3"):
        (0, "92c3b1991087d4d9d23ed4a977b2fe9467336e2fe67dc01b1b5791d98e7f5ac4"),
}


@pytest.mark.parametrize("args", list(GOLDEN_STDERR_SHA256))
def test_cli_stderr_matches_golden_bytes(args):
    status, expected = GOLDEN_STDERR_SHA256[args]
    result = run_cli(*args)
    assert result.returncode == status, result.stderr
    assert hashlib.sha256(result.stderr.encode("ascii")).hexdigest() == expected


def _long_word(seed, length):
    return " ".join(random.Random(seed).choices(("s1", "s2", "s1^-1", "s2^-1"), k=length))


# recorded before letters were shared and coded, so the long-word path keeps its bytes
LONG_WORD_GOLDEN_SHA256 = "1c1ef30f338063ee7c4486e7c04b099e8b241df047367b13ec55c6743e0b7fdf"


def test_cli_long_word_stdout_matches_golden_bytes():
    result = run_cli(
        "sweep", "--braid", _long_word(7, 3000),
        "--theta-step-deg", "5", "--epsilon", "1e-3", "--seed", "7",
    )
    assert result.returncode == 0, result.stderr
    digest = hashlib.sha256(result.stdout.encode("ascii")).hexdigest()
    assert digest == LONG_WORD_GOLDEN_SHA256


def test_cli_sweep_refuses_a_word_over_the_letter_cap(capsys):
    start = time.perf_counter()
    assert main(["sweep", "--braid", "s2 s1^1000000000000"]) == 2
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().err == (
        "error: the word has more than 1000000 letters (at position 3)\n"
    )
    result = run_cli("sweep", "--braid", "s1^1000000000000")
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr == "error: the word has more than 1000000 letters (at position 0)\n"


def _record(deg, bracket, oracle):
    (record,) = run_sweep(preset("trefoil"), [deg], with_oracle=True)
    return dataclasses.replace(record, bracket=bracket, bracket_oracle=oracle)


def test_check_records_reports_the_first_nan_gap_then_the_first_tied_angle():
    nan = complex(math.nan, 0.0)
    records = [_record(1.0, 0.5, 0.25), _record(2.0, nan, 0.0), _record(3.0, nan, 0.0)]
    problems, worst = _check_records(records, 1e-9)
    gap, deg = worst
    assert math.isnan(gap) and deg == 2.0
    # the 0.25 gap, then a non-finite bracket and a NaN gap at 2 and at 3 degrees
    assert len(problems) == 5
    tied = [_record(1.0, 0.0, 0.0), _record(2.0, 1.0, 0.5), _record(3.0, 0.5, 0.0)]
    assert _check_records(tied, 1.0)[1] == (0.5, 2.0)
    assert _check_records(run_sweep(preset("trefoil"), [0.0]), 1e-9) == ([], None)


@pytest.mark.parametrize(
    "flags, named",
    [
        (("--epsilon", "1e308", "--theta-max-deg", "0"), "--epsilon"),
        (("--epsilon", "1e308", "--alpha1", "1e300"), "--epsilon"),
        (("--epsilon", "5e307"), "--epsilon"),
        (("--seed", "-1", "--epsilon", "1e-3"), "--seed"),
        (("--seed", "-1", "--epsilon", "0"), "--seed"),
    ],
)
def test_cli_sweep_refuses_bad_precision_input(flags, named, capsys):
    assert main(["sweep", "--preset", "trefoil", *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {named} ") and captured.err.count("\n") == 1
    assert "theta" not in captured.err


def test_run_sweep_refuses_an_infinite_error_bound_before_any_gridpoint(monkeypatch):
    def no_gridpoint(*args):
        raise AssertionError("a gridpoint was evaluated")

    monkeypatch.setattr(braidjones.cli, "evaluate", no_gridpoint)
    prec = MeasurementPrecision(epsilon=5e307)
    with pytest.raises(ValueError, match="--epsilon 5e\\+307 .* non-finite eq9_bound"):
        run_sweep(preset("trefoil"), [0.0], prec)


class _FailingStream(io.StringIO):
    def __init__(self, exc):
        super().__init__()
        self.exc = exc

    def write(self, text):
        raise self.exc


@pytest.mark.parametrize("code", [errno.ENOSPC, errno.EPIPE])
@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "--preset", "trefoil"],
        ["compile", "--theta-deg", "15", "--which", "2"],
    ],
)
def test_cli_failed_output_write_is_bad_input(code, argv, capsys, monkeypatch):
    exc = (BrokenPipeError if code == errno.EPIPE else OSError)(code, os.strerror(code))
    monkeypatch.setattr(sys, "stdout", _FailingStream(exc))
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: cannot write output: {os.strerror(code)}\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")
@pytest.mark.parametrize(
    "args, to_out",
    [
        (("sweep", "--preset", "trefoil"), False),
        (("sweep", "--preset", "trefoil"), True),
        (("compile", "--theta-deg", "15", "--which", "2", "--inverse"), False),
    ],
)
def test_cli_output_to_a_full_device_is_bad_input(args, to_out):
    with open("/dev/full", "w") as full:
        result = run_cli(*args, "--out", "/dev/full") if to_out else run_cli(*args, stdout=full)
    assert result.returncode == 2
    assert result.stderr == f"error: cannot write output: {os.strerror(errno.ENOSPC)}\n"


def test_cli_sweep_into_a_closed_pipe_is_bad_input():
    # about 400 kB of CSV: more than the pipe holds, so the writer meets the closed end
    proc = subprocess.Popen(
        [sys.executable, "-m", "braidjones", "sweep", "--preset", "trefoil",
         "--theta-step-deg", "0.02"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=_cli_env(),
    )
    assert proc.stdout.readline().decode("ascii") == CSV_COLUMNS + "\n"
    proc.stdout.close()
    err = proc.stderr.read().decode("ascii")
    proc.stderr.close()
    assert proc.wait() == 2
    assert err == f"error: cannot write output: {os.strerror(errno.EPIPE)}\n"
