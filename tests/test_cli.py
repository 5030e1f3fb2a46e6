import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rqpd import analysis, cli
from rqpd.analysis import sweep_gamma
from rqpd.relativity import Backend

HALF_PI = 0.5 * math.pi

# An --output path that cannot be created: its parent is this file.
BAD_OUTPUT = os.path.join(__file__, "no-such-dir", "x.out")


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == 0
    return json.loads(out), err


# ------------------------------------------------------------------ payoff


def test_payoff_quantum_equilibrium(capsys):
    doc, _ = run_json(
        capsys,
        ["payoff", "--gamma", "1.5707963", "--omega-a", "0", "--omega-b", "0",
         "--alice", "Q", "--bob", "Q"],
    )
    assert doc["payoff"]["alice"] == pytest.approx(3.0, abs=1e-9)
    assert doc["payoff"]["bob"] == pytest.approx(3.0, abs=1e-9)
    assert doc["metadata"]["backend"] == "unitary"
    assert doc["sds"] == {"alice": "Q", "bob": "Q"}
    assert doc["nash"] == ["QQ"]
    assert set(doc["profiles"]) == {"DD", "QD", "DQ", "QQ"}


def test_payoff_accepts_angle_pair_strategy(capsys):
    doc, _ = run_json(
        capsys,
        ["payoff", "--gamma", "0", "--omega-a", "0", "--omega-b", "0",
         "--alice", "3.141592653589793,0", "--bob", "D"],
    )
    assert doc["payoff"]["alice"] == pytest.approx(1.0, abs=1e-9)


def test_payoff_degrees_flag(capsys):
    doc, _ = run_json(
        capsys,
        ["payoff", "--degrees", "--gamma", "90", "--omega-a", "0", "--omega-b", "0",
         "--alice", "Q", "--bob", "Q"],
    )
    assert doc["metadata"]["gamma"] == pytest.approx(HALF_PI, abs=1e-12)
    assert doc["payoff"]["alice"] == pytest.approx(3.0, abs=1e-9)


def test_payoff_backend_override(capsys):
    doc, _ = run_json(
        capsys,
        ["payoff", "--gamma", "0.4", "--omega-a", "0.3", "--omega-b", "0.2",
         "--alice", "D", "--bob", "D", "--backend", "paper"],
    )
    assert doc["metadata"]["backend"] == "paper"


def test_payoff_speed_flags_echo_omegas(capsys):
    doc, _ = run_json(
        capsys,
        ["payoff", "--gamma", "0.5", "--alpha-speed", "0.97",
         "--delta-a-speed", "0.908", "--delta-b-speed", "0.908",
         "--alice", "D", "--bob", "D"],
    )
    # the quoted high-speed pair lands near 0.926 rad, visibly far from 7pi/16
    assert doc["metadata"]["omega_a"] == pytest.approx(0.9262024544774877, rel=1e-9)
    assert doc["metadata"]["omega_a"] == doc["metadata"]["omega_b"]


# -------------------------------------------------------------------- nash


def test_nash_intermediate_region(capsys):
    doc, _ = run_json(
        capsys, ["nash", "--gamma", "0.55", "--omega-a", "0", "--omega-b", "0"]
    )
    assert set(doc["nash"]) == {"QD", "DQ"}
    assert doc["sds"] == {"alice": None, "bob": None}


# -------------------------------------------------------------- thresholds


def test_thresholds_single_point(capsys):
    doc, _ = run_json(capsys, ["thresholds", "--omega-a", "0", "--omega-b", "0"])
    ts = doc["thresholds"]
    assert ts["gA12"] == pytest.approx(0.4636476090008061, abs=1e-12)
    assert ts["gA34"] == pytest.approx(0.684719203002283, abs=1e-12)
    assert ts["gB13"] == pytest.approx(0.4636476090008061, abs=1e-12)
    assert ts["gB24"] == pytest.approx(0.684719203002283, abs=1e-12)
    assert doc["metadata"]["method"] == "closed-form"


def test_thresholds_numeric_flag(capsys):
    doc, _ = run_json(
        capsys, ["thresholds", "--omega-a", "0", "--omega-b", "0", "--numeric"]
    )
    assert doc["metadata"]["method"] == "bisection"
    assert doc["thresholds"]["gA12"] == pytest.approx(0.4636476090008061, abs=1e-9)


def test_thresholds_absent_emitted_as_null(capsys):
    high = str(7 * math.pi / 16)
    doc, _ = run_json(capsys, ["thresholds", "--omega-a", high, "--omega-b", high])
    assert doc["thresholds"]["gB13"] is None
    assert doc["thresholds"]["gB24"] is None


def test_thresholds_grid_csv(capsys):
    code, out, err = run(capsys, ["thresholds", "--grid-n", "3"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "omega_a,omega_b,gA12,gA34,gB13,gB24"
    assert len(lines) == 1 + 9
    # metadata goes to stderr as one JSON line
    meta = json.loads(err.strip())
    assert meta["backend"] == "paper"
    # absent thresholds are empty fields: the high-omega corner drops Bob's
    last = lines[-1].split(",")
    assert last[4] == "" or float(last[4]) >= 0.0


# -------------------------------------------------------------- region map


def test_region_map_csv_and_flags(capsys):
    code, out, err = run(capsys, ["region-map", "--grid-n", "9"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "omega_a,omega_b,bob_always_D,alice_always_Q"
    assert len(lines) == 1 + 81
    rows = {}
    for line in lines[1:]:
        oa, ob, bob_flag, alice_flag = line.split(",")
        rows[(float(oa), float(ob))] = (bob_flag, alice_flag)
    high = 7 * math.pi / 16
    key_high = min(rows, key=lambda k: abs(k[0] - high) + abs(k[1] - high))
    assert rows[key_high][0] == "1"
    assert rows[(0.0, 0.0)] == ("0", "0")


# ------------------------------------------------------------------- sweep


def test_sweep_csv_schema_and_values(capsys):
    code, out, err = run(capsys, ["sweep", "--omega-a", "0", "--omega-b", "0", "--n", "5"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "gamma,A_DD,A_QD,A_DQ,A_QQ,B_DD,B_QD,B_DQ,B_QQ"
    assert len(lines) == 1 + 5
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    assert float(first[1]) == pytest.approx(1.0, abs=1e-9)
    assert float(first[4]) == pytest.approx(3.0, abs=1e-9)
    meta = json.loads(err.strip())
    assert meta["backend"] == "paper"
    assert meta["n"] == 5


def test_sweep_round_trips_against_library(capsys):
    code, out, _ = run(capsys, ["sweep", "--omega-a", "0.7", "--omega-b", "0.2", "--n", "7"])
    assert code == 0
    lines = out.splitlines()[1:]
    rows = sweep_gamma(0.7, 0.2, 7, Backend.PAPER)
    for line, row in zip(lines, rows):
        printed = [float(x) for x in line.split(",")]
        expected = [row.gamma, row.a_dd, row.a_qd, row.a_dq, row.a_qq,
                    row.b_dd, row.b_qd, row.b_dq, row.b_qq]
        # 12 significant digits of print precision
        for got, want in zip(printed, expected):
            assert got == pytest.approx(want, rel=1e-11, abs=1e-11)


# ------------------------------------------------------------------ wigner


def test_wigner_from_rapidities(capsys):
    doc, _ = run_json(capsys, ["wigner", "--alpha", "1", "--delta", "1"])
    assert doc["omega"] == pytest.approx(0.42078396163807286, abs=1e-12)


def test_wigner_from_speeds(capsys):
    doc, _ = run_json(capsys, ["wigner", "--alpha-speed", "0.97", "--delta-speed", "0.908"])
    assert doc["omega"] == pytest.approx(0.9262024544774877, rel=1e-9)
    assert doc["metadata"]["alpha"] == pytest.approx(2.092295720034939, abs=1e-12)


# ----------------------------------------------------------- output and io


def test_output_file_and_determinism(tmp_path, capsys):
    argv = ["region-map", "--grid-n", "5"]
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    assert cli.main([*argv, "--output", str(first)]) == 0
    assert cli.main([*argv, "--output", str(second)]) == 0
    capsys.readouterr()
    assert first.read_bytes() == second.read_bytes()
    assert first.read_bytes().endswith(b"\n")
    assert b"\r" not in first.read_bytes()


def test_json_determinism(capsys):
    argv = ["payoff", "--gamma", "0.9", "--omega-a", "0.4", "--omega-b", "0.1",
            "--alice", "Q", "--bob", "D"]
    _, out1, _ = run(capsys, argv)
    _, out2, _ = run(capsys, argv)
    assert out1 == out2


def test_io_error_exit_code(tmp_path, capsys):
    missing_dir = tmp_path / "no" / "such" / "dir" / "x.json"
    code, _, err = run(
        capsys,
        ["wigner", "--alpha", "1", "--delta", "1", "--output", str(missing_dir)],
    )
    assert code == 4
    assert "i/o error" in err


def test_csv_io_error_leaves_no_metadata(tmp_path, capsys):
    missing_dir = tmp_path / "no" / "such" / "dir" / "x.csv"
    code, out, err = run(capsys, ["region-map", "--grid-n", "2", "--output", str(missing_dir)])
    assert code == 4
    assert out == ""
    assert err.startswith("rqpd: i/o error:")
    assert len(err.splitlines()) == 1


def test_csv_writer_formats_every_field_by_one_rule(capsys):
    rows = iter([(None, 0.5, None), (True, False, -0.0), (5e-324, 1e300, 0.1 + 0.2)])
    cli._emit_csv("a,b,c", rows, None, {"command": "x"})
    captured = capsys.readouterr()
    assert captured.out == "a,b,c\n,0.5,\n1,0,-0\n4.94065645841e-324,1e+300,0.3\n"
    assert captured.err == '{"command": "x"}\n'


# Peak bytes traced while cli.main runs, as this test read them with the
# CSV lines still formatted field by field in each command (CPython 3.11.7;
# the same under -X dev to within 600 bytes).  The threshold grid with its
# row tuples held in a list, beside the lines, reads about 9.6 MB.
CSV_PEAKS = [
    (["thresholds", "--grid-n", "129"], 6_691_504),
    (["region-map", "--grid-n", "129", "--backend", "unitary"], 5_045_733),
    (["sweep", "--omega-a", "0.3", "--omega-b", "1.1", "--n", "2049"], 1_971_854),
]


@pytest.mark.parametrize("argv,peak_before", CSV_PEAKS, ids=[" ".join(a) for a, _ in CSV_PEAKS])
def test_csv_commands_hold_no_more_memory(capsys, argv, peak_before):
    assert cli.main(argv) == 0  # untraced, so first-call imports and caches do not count
    capsys.readouterr()
    tracemalloc.start()
    try:
        assert cli.main(argv) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert peak <= 1.1 * peak_before


CLOSED_STDOUT_ARGV = {
    "json": ["wigner", "--alpha", "1", "--delta", "2"],
    "csv": ["region-map", "--grid-n", "2"],
}


@pytest.mark.parametrize("kind", list(CLOSED_STDOUT_ARGV))
def test_closed_stdout_is_an_io_error(monkeypatch, capsys, kind):
    # Python sets sys.stdout to None when it starts with file descriptor 1 closed
    monkeypatch.setattr(sys, "stdout", None)
    code = cli.main(CLOSED_STDOUT_ARGV[kind])
    assert code == 4
    assert capsys.readouterr().err == "rqpd: i/o error: standard output is closed\n"


@pytest.mark.skipif(os.name != "posix", reason="closes a file descriptor in the child")
def test_closed_stdout_exits_4_in_a_process():
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "rqpd.cli", *CLOSED_STDOUT_ARGV["json"]],
        env=env, stderr=subprocess.PIPE, preexec_fn=lambda: os.close(1), timeout=60, check=False,
    )
    assert proc.returncode == 4
    assert proc.stderr == b"rqpd: i/o error: standard output is closed\n"


# Per kind of run, its argv and exit code.
CLOSED_STDERR_RUNS = {
    "csv": (["region-map", "--grid-n", "2"], 0),
    "json": (["wigner", "--alpha", "1", "--delta", "2"], 0),
    "invalid": (["payoff", "--gamma", "9", "--omega-a", "0", "--omega-b", "0",
                 "--alice", "D", "--bob", "D"], 2),
    "usage": (["payoff", "--nonsense"], 2),
    "numeric": (["payoff", "--gamma", str(HALF_PI), "--omega-a", str(HALF_PI),
                 "--omega-b", str(HALF_PI), "--alice", "1.5707963267948966,0",
                 "--bob", "1.5707963267948966,0", "--backend", "paper"], 3),
}


@pytest.mark.skipif(os.name != "posix", reason="closes a file descriptor in the child")
@pytest.mark.parametrize("kind", list(CLOSED_STDERR_RUNS))
def test_closed_stderr_leaves_stdout_and_exit_code_alone(kind):
    # Python sets sys.stderr to None when it starts with file descriptor 2
    # closed, and print(file=None) then writes to stdout
    argv, exit_code = CLOSED_STDERR_RUNS[kind]
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    command = [sys.executable, "-m", "rqpd.cli", *argv]
    open_stderr, closed_stderr = (
        subprocess.run(command, env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                       preexec_fn=preexec, timeout=60, check=False)
        for preexec in (None, lambda: os.close(2))
    )
    assert closed_stderr.stdout == open_stderr.stdout
    assert closed_stderr.returncode == open_stderr.returncode == exit_code


# ------------------------------------------------------------- exit codes


@pytest.mark.parametrize(
    "argv",
    [
        ["payoff", "--gamma", "0.5", "--omega-a", "0", "--omega-b", "0",
         "--alice", "X", "--bob", "D"],
        ["payoff", "--gamma", "9.9", "--omega-a", "0", "--omega-b", "0",
         "--alice", "D", "--bob", "D"],
        ["payoff", "--gamma", "0.5", "--alice", "D", "--bob", "D"],
        ["payoff", "--gamma", "0.5", "--omega-a", "0", "--omega-b", "0",
         "--alpha-speed", "0.5", "--delta-a-speed", "0.5", "--delta-b-speed", "0.5",
         "--alice", "D", "--bob", "D"],
        ["thresholds", "--omega-a", "-1", "--omega-b", "0"],
        ["wigner", "--alpha", "1"],
        ["wigner", "--alpha-speed", "1.5", "--delta-speed", "0.5"],
        ["wigner", "--alpha", "1", "--delta-speed", "0.5"],
        ["wigner", "--alpha-speed", "0.5"],
        ["wigner", "--delta-speed", "0.5"],
        ["thresholds", "--grid-n", "0"],
        ["thresholds", "--grid-n", "1"],
        ["thresholds", "--grid-n", "2", "--omega-a", "9"],
        ["thresholds", "--grid-n", "3", "--omega-a", "0.1", "--omega-b", "0.2", "--numeric"],
        ["thresholds", "--grid-n", "2", "--alpha-speed", "0.5", "--delta-a-speed", "0.5",
         "--delta-b-speed", "0.5"],
        ["region-map", "--grid-n", "2", "--degrees"],
        ["thresholds", "--grid-n", "2", "--degrees"],
        ["wigner", "--alpha", "1", "--delta", "1", "--degrees"],
        ["region-map", "--grid-n", "1025"],
        ["thresholds", "--grid-n", "1025"],
        ["sweep", "--omega-a", "0", "--omega-b", "0", "--n", "1048577"],
        ["nash", "--gamma", "0.5", "--alpha-speed", "0.5", "--delta-a-speed", "0.5"],
        ["sweep", "--omega-a", "0", "--omega-b", "0", "--alpha-speed", "0.5",
         "--delta-a-speed", "0.5", "--delta-b-speed", "0.5"],
        ["thresholds", "--omega-b", "0.2"],
        ["wigner"],
        ["payoff", "--gamma", "9.9", "--omega-a", "0", "--omega-b", "0",
         "--alice", "X", "--bob", "D"],
    ],
)
def test_invalid_arguments_exit_2(capsys, argv):
    code, _, err = run(capsys, argv)
    assert code == 2
    assert "invalid arguments" in err


@pytest.mark.parametrize("command,default", [
    ("payoff", "unitary"), ("nash", "unitary"),
    ("sweep", "paper"), ("thresholds", "paper"), ("region-map", "paper"),
])
def test_help_names_the_default_backend(capsys, command, default):
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--help"])
    assert exc.value.code == 0
    # argparse wraps help text to the terminal width
    assert f"default: {default}" in " ".join(capsys.readouterr().out.split())


# Runs the CLI in a fresh interpreter until argparse exits, as --help does,
# then reports on stderr which rqpd modules and whether numpy were loaded.
HELP_CHILD = """
import sys
from rqpd.cli import main
try:
    main(sys.argv[1:])
except SystemExit as exc:
    code = exc.code
sys.stdout.flush()
print(*sorted(m for m in sys.modules if m.split(".")[0] == "rqpd"), file=sys.stderr)
print("numpy loaded:", "numpy" in sys.modules, file=sys.stderr)
sys.exit(code)
"""

OMEGA_FLAGS = ["--omega-a", "--omega-b", "--alpha-speed", "--delta-a-speed", "--delta-b-speed"]

# Per subcommand, its own flags in order and whether it takes --backend.
SUBCOMMAND_FLAGS = {
    "payoff": (["--gamma", *OMEGA_FLAGS, "--alice", "--bob"], True),
    "nash": (["--gamma", *OMEGA_FLAGS], True),
    "sweep": ([*OMEGA_FLAGS, "--n"], True),
    "thresholds": ([*OMEGA_FLAGS, "--grid-n", "--numeric"], True),
    "region-map": (["--grid-n"], True),
    "wigner": (["--alpha", "--delta", "--alpha-speed", "--delta-speed"], False),
}


@pytest.mark.parametrize("command", list(SUBCOMMAND_FLAGS))
def test_help_lists_own_flags_then_backend_degrees_output(command):
    # --help needs neither numpy nor any engine module, and every subcommand
    # ends with the same flags in the same order
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", HELP_CHILD, command, "--help"], env=env,
                          capture_output=True, timeout=60, check=False)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == b"rqpd rqpd.cli rqpd.closed_form\nnumpy loaded: False\n"
    own, backend = SUBCOMMAND_FLAGS[command]
    # each option's line starts at a two-space indent; wrapped help text is indented further
    options = re.findall(r"^  (-[-\w]+)", proc.stdout.decode(), flags=re.MULTILINE)
    assert options == ["-h", *own, *(["--backend"] if backend else []), "--degrees", "--output"]


def test_unknown_flag_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["payoff", "--nonsense"])
    assert exc.value.code == 2


def test_numeric_failure_exit_3(capsys):
    # a mid-rotation strategy pair leaks norm under the paper backend
    code, _, err = run(
        capsys,
        ["payoff", "--gamma", str(HALF_PI), "--omega-a", str(HALF_PI),
         "--omega-b", str(HALF_PI), "--alice", "1.5707963267948966,0",
         "--bob", "1.5707963267948966,0", "--backend", "paper"],
    )
    assert code == 3
    assert "numeric failure" in err


def test_wigner_overflow_exits_3(capsys, monkeypatch):
    # a backstop: wigner_angle is finite for every finite rapidity
    def overflow(alpha, delta):
        raise OverflowError("math range error")

    monkeypatch.setattr(cli, "wigner_angle", overflow)
    code, out, err = run(capsys, ["wigner", "--alpha", "800", "--delta", "800"])
    assert code == 3
    assert out == ""
    assert err.startswith("rqpd: numeric failure:")


def test_bisection_without_convergence_exits_3(capsys, monkeypatch):
    monkeypatch.setattr(analysis, "BISECTION_MAX_ITER", 1)
    argv = ["thresholds", "--omega-a", "0.3", "--omega-b", "1.1", "--numeric"]
    code, out, err = run(capsys, argv)
    assert code == 3
    assert out == ""
    assert err == "rqpd: numeric failure: no convergence to 1e-11 within 1 bisection steps\n"


def test_negative_zero_rapidity_gives_positive_zero_omega(capsys):
    doc, _ = run_json(capsys, ["wigner", "--alpha", "-0.0", "--delta", "1"])
    assert repr(doc["omega"]) == "0.0"
    doc, _ = run_json(capsys, ["thresholds", "--alpha-speed", "-0.0", "--delta-a-speed", "0.3",
                               "--delta-b-speed", "0.9"])
    assert (repr(doc["metadata"]["omega_a"]), repr(doc["metadata"]["omega_b"])) == ("0.0", "0.0")


def test_wigner_beyond_sinh_range(capsys):
    doc, _ = run_json(capsys, ["wigner", "--alpha", "800", "--delta", "800"])
    assert doc["omega"] == HALF_PI


# ---------------------------------------------------------------- argv fuzz

# Valid values first and in the majority, so most commands get past the
# argument checks; a draw shrinks toward the front of each list.
fuzz_angles = st.sampled_from(["0", "0.3", "1.2", "1.5707963267948966", "45", "90",
                               "-1", "9.9", "nan", "inf", "1e308"])
fuzz_speeds = st.sampled_from(["0", "0.5", "0.99", "0.9999999", "1", "-0.2", "nan"])
fuzz_rapidities = st.sampled_from(["0", "1", "2.5", "800", "-1", "nan", "inf"])
fuzz_sizes = st.sampled_from(["2", "3", "4", "-1", "0", "1", "x"])
fuzz_strategies = st.sampled_from(["C", "D", "Q", "1.5707963267948966,0", "0.5,0.2",
                                   "3.2,0", "1,2,3", "X"])
SPEED_FLAGS = ("--alpha-speed", "--delta-a-speed", "--delta-b-speed")
# How a command gives its two Wigner angles; the last three are invalid.
OMEGA_MODES = (("--omega-a", "--omega-b"), SPEED_FLAGS, ("--omega-a", "--omega-b"),
               ("--omega-a", "--omega-b", *SPEED_FLAGS), ("--omega-a",), SPEED_FLAGS[:2])
WIGNER_MODES = (("--alpha", "--delta"), ("--alpha-speed", "--delta-speed"),
                ("--alpha", "--delta-speed"), ("--delta",))


@st.composite
def fuzz_argv(draw):
    """One rqpd command line from a small grammar, valid or not."""
    command = draw(st.sampled_from(
        ["payoff", "nash", "sweep", "thresholds", "region-map", "wigner"]
    ))
    argv = [command]
    grid = command == "region-map" or command == "thresholds" and draw(st.booleans())
    if command == "wigner":
        inputs = draw(st.sampled_from(WIGNER_MODES))
    elif grid:
        inputs = draw(st.sampled_from([("--grid-n",), ("--grid-n",), ("--grid-n", "--omega-a")]))
    else:
        inputs = draw(st.sampled_from(OMEGA_MODES))
    if command in ("payoff", "nash"):
        inputs = ("--gamma", *inputs)
    if command == "payoff":
        inputs += ("--alice", "--bob")
    if command == "sweep" and draw(st.booleans()):
        inputs += ("--n",)
    values = {"--grid-n": fuzz_sizes, "--n": fuzz_sizes, "--alice": fuzz_strategies,
              "--bob": fuzz_strategies, "--alpha": fuzz_rapidities, "--delta": fuzz_rapidities}
    for flag in inputs:
        default = fuzz_speeds if flag.endswith("speed") else fuzz_angles
        argv += [flag, draw(values.get(flag, default))]
    if command != "wigner" and draw(st.booleans()):
        argv += ["--backend", draw(st.sampled_from(["paper", "unitary", "other"]))]
    if command == "thresholds" and draw(st.booleans()):
        argv.append("--numeric")
    if draw(st.integers(0, 3)) == 0:
        argv.append("--degrees")
    return argv


def run_isolated(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=60, deadline=None)
@given(fuzz_argv(), st.integers(0, 3))
def test_fuzzed_argv_exits_cleanly_and_deterministically(argv, output):
    bad_output = output == 0
    if bad_output:
        argv = [*argv, "--output", BAD_OUTPUT]
    code, out, err = run_isolated(argv)
    assert code in (0, 2, 3, 4), (argv, code, err)
    assert "Traceback" not in err
    if bad_output and code == 0:
        pytest.fail(f"wrote to a missing directory: {argv}")
    assert run_isolated(argv)[:2] == (code, out)
