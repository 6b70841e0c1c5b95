"""The package's public names and its program entry.

A new export, or a dropped one, must be deliberate.  The namespace is lazy,
so ``import ellipsample`` loads no numpy, and the program (``python -m
ellipsample`` and the installed command) caps OpenBLAS at one thread before
numpy loads, unless the caller set OPENBLAS_NUM_THREADS.  Each of those
checks runs in a fresh interpreter, since this one has numpy loaded.
"""

import ast
import json
import subprocess
import sys
from pathlib import Path

import pytest

import ellipsample
from helpers import child_env

PUBLIC_NAMES = {
    "DimensionMismatch",
    "DimensionOutOfRange",
    "Ellipsoid",
    "EllipsampleError",
    "InsufficientSamples",
    "NonpositiveRadius",
    "NotARotation",
    "NotPositiveDefinite",
    "NotSymmetric",
    "PointOutsideEllipsoid",
    "RngStream",
    "SampleBatch",
    "SingularShape",
    "TestReport",
    "centre_from_foci",
    "chi_square_two_sample",
    "chi_square_uniformity",
    "mc_volume",
    "proof_identity_check",
    "radial_ks",
    "random_rotation",
    "sample_batch",
    "unit_ball_volume",
    "wilson_hilferty_critical",
}


def test_all_is_pinned():
    assert len(ellipsample.__all__) == len(PUBLIC_NAMES) == 24
    assert set(ellipsample.__all__) == PUBLIC_NAMES


def test_every_public_name_resolves():
    for name in ellipsample.__all__:
        assert getattr(ellipsample, name) is not None, name


def in_child(script: str, *args: str, env: dict | None = None):
    """The JSON value a fresh interpreter prints last, running ``script`` with ``args``."""
    result = subprocess.run([sys.executable, "-c", script, *args], env=env or child_env(),
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.splitlines()[-1])


def test_import_loads_no_numpy():
    assert in_child("import json, sys, ellipsample; print(json.dumps('numpy' in sys.modules))") is False


def test_dir_lists_every_public_name_before_any_is_used():
    script = "import json, sys, ellipsample; print(json.dumps([dir(ellipsample), 'numpy' in sys.modules]))"
    names, numpy_loaded = in_child(script)
    assert set(ellipsample.__all__) <= set(names) and names == sorted(names)
    assert not numpy_loaded


def test_each_public_name_is_its_defining_module_object():
    script = """
import json, sys, ellipsample
homes = {}
for name in ellipsample.__all__:
    value = getattr(ellipsample, name)
    homes[name] = [value.__module__, getattr(sys.modules[value.__module__], name) is value]
print(json.dumps(homes))
"""
    homes = in_child(script)
    assert list(homes) == ellipsample.__all__
    assert all(same for _, same in homes.values())
    # The imports static tools read name the same modules.
    tree = ast.parse(Path(ellipsample.__file__).read_text())
    static = {alias.name: f"ellipsample.{node.module}" for node in ast.walk(tree)
              if isinstance(node, ast.ImportFrom) and node.level == 1 for alias in node.names}
    assert static == {name: module for name, (module, _) in homes.items()}


def test_error_classes_load_no_numpy():
    script = """
import json, sys, ellipsample
from ellipsample import NotSymmetric
print(json.dumps([ellipsample.EllipsampleError.__module__, NotSymmetric.__module__, 'numpy' in sys.modules]))
"""
    assert in_child(script) == ["ellipsample.errors", "ellipsample.errors", False]


def test_star_import_binds_exactly_all():
    script = "import json; ns = {}; exec('from ellipsample import *', ns); print(json.dumps(sorted(ns)))"
    assert in_child(script) == sorted([*ellipsample.__all__, "__builtins__"])


def test_an_unknown_name_is_an_attribute_error():
    script = """
import json, ellipsample
try:
    ellipsample.no_such_name
except AttributeError as exc:
    print(json.dumps(str(exc)))
"""
    assert in_child(script) == "module 'ellipsample' has no attribute 'no_such_name'"


# Runs ``volume`` as ``python -m`` does (runpy) or as the installed command
# does (import the entry point, call it), recording each time the environment
# sets OPENBLAS_NUM_THREADS and whether numpy was loaded then; prints the
# value at exit and that record.
_ENTRY_CHILD = """
import importlib, json, os, runpy, sys
sets = []
def hook(event, args):
    if event == "os.putenv" and os.fsdecode(args[0]) == "OPENBLAS_NUM_THREADS":
        sets.append([os.fsdecode(args[1]), "numpy" in sys.modules])
sys.addaudithook(hook)
launch = sys.argv[1]
sys.argv = ["ellipsample", "volume", "--dim", "2", "--seed", "1"]
if launch == "-m":
    try:
        runpy.run_module("ellipsample", run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        assert exc.code == 0, exc.code
else:
    module, _, name = launch.partition(":")
    assert getattr(importlib.import_module(module), name)() == 0
print(json.dumps([os.environ.get("OPENBLAS_NUM_THREADS"), sets]))
"""


def installed_command() -> str:
    """The ``module:function`` target of the ``ellipsample`` console script."""
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    return tomllib.loads(pyproject.read_text())["project"]["scripts"]["ellipsample"]


def unset_env() -> dict:
    env = child_env()
    env.pop("OPENBLAS_NUM_THREADS", None)
    return env


@pytest.mark.parametrize("launch", ["-m", "installed"])
def test_the_program_caps_blas_at_one_thread_before_numpy_loads(launch):
    launch = installed_command() if launch == "installed" else launch
    assert in_child(_ENTRY_CHILD, launch, env=unset_env()) == ["1", [["1", False]]]


def test_a_blas_thread_count_the_caller_set_wins():
    env = {**child_env(), "OPENBLAS_NUM_THREADS": "2"}
    assert in_child(_ENTRY_CHILD, "-m", env=env) == ["2", []]


def test_the_library_sets_no_environment():
    script = """
import json, os
from ellipsample.cli import main
main(["volume", "--dim", "2", "--seed", "1"])
print(json.dumps(os.environ.get("OPENBLAS_NUM_THREADS")))
"""
    assert in_child(script, env=unset_env()) is None
