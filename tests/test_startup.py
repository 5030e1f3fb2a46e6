"""Start-up contract: the numpy-free commands, no ``dataclasses``, and the lazy exports."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import rqpd

SRC = str(Path(rqpd.__file__).resolve().parent.parent)

# Runs the CLI in a fresh interpreter, then reports on stderr which rqpd
# modules and whether numpy were loaded; with BLOCK_NUMPY first, any import
# of numpy fails instead, and with BLOCK_DATACLASSES any import of
# dataclasses, which no command needs.
RUN_CLI = """
import sys
from rqpd.cli import main
code = main(sys.argv[1:])
sys.stdout.flush()
print("rqpd modules:", *sorted(m for m in sys.modules if m.split(".")[0] == "rqpd"), file=sys.stderr)
print("numpy loaded:", "numpy" in sys.modules, file=sys.stderr)
sys.exit(code)
"""
BLOCK_NUMPY = 'import sys; sys.modules["numpy"] = None\n'
BLOCK_DATACLASSES = 'import sys; sys.modules["dataclasses"] = None\n'

NUMPY_FREE = [
    (["wigner", "--alpha", "1.25", "--delta", "0.5"], 0),
    (["wigner", "--alpha-speed", "0.6", "--delta-speed", "0.95"], 0),
    (["thresholds", "--omega-a", "0.3", "--omega-b", "1.1"], 0),
    (["thresholds", "--alpha-speed", "0.5", "--delta-a-speed", "0.3",
      "--delta-b-speed", "0.9"], 0),
    (["thresholds", "--omega-a", "0.7", "--omega-b", "0.2", "--backend", "paper"], 0),
    (["thresholds", "--omega-a", "9"], 2),
    (["thresholds", "--omega-a", "9", "--omega-b", "0.2"], 2),
    (["thresholds", "--grid-n", "9"], 0),
    (["thresholds", "--grid-n", "9", "--backend", "paper"], 0),
    (["thresholds", "--grid-n", "1"], 2),
    (["thresholds", "--grid-n", "1025"], 2),
    (["thresholds", "--grid-n", "2", "--degrees"], 2),
    (["thresholds", "--grid-n", "2", "--omega-a", "0.1"], 2),
    (["region-map", "--grid-n", "9"], 0),
    (["region-map", "--grid-n", "9", "--backend", "unitary"], 0),
    (["region-map", "--grid-n", "1"], 2),
    (["region-map", "--grid-n", "2", "--degrees"], 2),
]


def run_child(code: str, argv: list[str]) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code, *argv], env=env,
                          capture_output=True, timeout=60, check=False)


@pytest.mark.parametrize("argv,exit_code", NUMPY_FREE, ids=[" ".join(a) for a, _ in NUMPY_FREE])
def test_command_starts_without_numpy(argv, exit_code):
    normal = run_child(RUN_CLI, argv)
    assert normal.returncode == exit_code, normal.stderr
    assert normal.stderr.endswith(
        b"rqpd modules: rqpd rqpd.cli rqpd.closed_form\nnumpy loaded: False\n"
    )
    for block in (BLOCK_NUMPY, BLOCK_DATACLASSES):
        blocked = run_child(block + RUN_CLI, argv)
        assert blocked.returncode == exit_code, blocked.stderr
        assert blocked.stdout == normal.stdout


@pytest.mark.parametrize(
    "argv",
    [
        ["nash", "--gamma", "0.55", "--omega-a", "0.3", "--omega-b", "1.1"],
        ["sweep", "--omega-a", "0.3", "--omega-b", "1.1", "--n", "5", "--backend", "paper"],
    ],
    ids=["nash", "sweep"],
)
def test_numpy_command_starts_without_dataclasses(argv):
    # the controls: numpy itself does not import dataclasses either
    normal = run_child(RUN_CLI, argv)
    assert normal.returncode == 0, normal.stderr
    assert normal.stderr.endswith(b"numpy loaded: True\n")
    blocked = run_child(BLOCK_DATACLASSES + RUN_CLI, argv)
    assert blocked.returncode == 0, blocked.stderr
    assert blocked.stdout == normal.stdout


def test_numeric_thresholds_still_load_numpy():
    # the control: the check above can see numpy being loaded
    proc = run_child(RUN_CLI, ["thresholds", "--omega-a", "0.3", "--omega-b", "1.1", "--numeric"])
    assert proc.returncode == 0
    assert proc.stderr.endswith(b"numpy loaded: True\n")


@pytest.mark.parametrize("flag", ["--numeric", "--backend unitary"])
def test_bisection_grids_still_load_numpy(flag):
    proc = run_child(RUN_CLI, ["thresholds", "--grid-n", "3", *flag.split()])
    assert proc.returncode == 0
    assert proc.stderr.endswith(b"numpy loaded: True\n")


@pytest.mark.parametrize(
    "call,loaded",
    [
        ("rqpd.always_classical_scan(9, rqpd.Backend.PAPER)", False),
        # the control: sweeps run on profile_table, which needs numpy
        ("rqpd.sweep_gamma(0.3, 1.1, 5, rqpd.Backend.PAPER)", True),
    ],
)
def test_region_map_library_call_loads_no_numpy(call, loaded):
    proc = run_child(f"import sys, rqpd\n{call}\nprint('numpy' in sys.modules)\n", [])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"{loaded}\n".encode()


def test_package_import_loads_no_engine_module():
    proc = run_child(
        "import sys, rqpd\n"
        "rqpd.__version__, rqpd.wigner_angle, rqpd.Backend\n"
        "print(sorted(m for m in sys.modules if m == 'numpy' or m.startswith('rqpd.')))\n",
        [],
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == b"['rqpd.closed_form']\n"


# ------------------------------------------------------------ lazy exports

ALL = [
    "Backend",
    "ConvergenceError",
    "GameInstance",
    "JointProbabilities",
    "KVector",
    "NamedStrategy",
    "NashReport",
    "NumericIntegrityError",
    "PROFILES",
    "PayoffPair",
    "PayoffParams",
    "ProfileTable",
    "Region",
    "RegionLabel",
    "RegionMapRow",
    "SdsMargins",
    "SdsReport",
    "StrategyParams",
    "SweepRow",
    "ThresholdSet",
    "always_classical_scan",
    "best_response_scan",
    "classical_table",
    "coefficient_map",
    "entangler",
    "entanglement_degree",
    "joint_probabilities",
    "k_coefficients",
    "nash_set",
    "paper_coefficient_matrix",
    "payoff_from_probabilities",
    "payoffs",
    "profile_table",
    "rapidity_from_speed",
    "region_classify",
    "sds_of",
    "speed_from_rapidity",
    "spin_rotation_pair",
    "strategy_unitary",
    "sweep_gamma",
    "thresholds_closed_form",
    "thresholds_numeric",
    "wigner_angle",
]

MODULES = ("closed_form", "game_core", "relativity", "analysis", "cli")


def test_all_is_pinned():
    assert rqpd.__all__ == ALL


@pytest.mark.parametrize("name", ALL)
def test_export_is_the_object_of_every_module_that_has_it(name):
    value = getattr(rqpd, name)
    holders = [m for m in (importlib.import_module(f"rqpd.{m}") for m in MODULES)
               if hasattr(m, name)]
    assert holders
    assert all(getattr(m, name) is value for m in holders)
    home = getattr(value, "__module__", None)
    if home is not None and home.startswith("rqpd."):
        assert getattr(importlib.import_module(home), name) is value


@pytest.mark.parametrize(
    "name,modules",
    [
        ("Backend", ("relativity", "analysis", "cli")),
        ("NumericIntegrityError", ("game_core", "relativity", "cli")),
        ("ConvergenceError", ("analysis", "cli")),
        ("PayoffParams", ("game_core", "relativity", "analysis")),
        ("RegionMapRow", ("analysis",)),
        ("always_classical_scan", ("analysis",)),
    ],
)
def test_moved_names_are_one_object(name, modules):
    # the modules that defined or imported these before they moved
    value = getattr(importlib.import_module(f"rqpd.{rqpd._EXPORTS[name]}"), name)
    assert all(getattr(importlib.import_module(f"rqpd.{m}"), name) is value for m in modules)


def test_dir_covers_all():
    assert set(ALL) <= set(dir(rqpd))


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        getattr(rqpd, "no_such_name")
    assert not hasattr(rqpd, "numpy")


def test_star_import_binds_all():
    namespace: dict = {}
    exec("from rqpd import *", namespace)
    assert all(namespace[name] is getattr(rqpd, name) for name in ALL)
