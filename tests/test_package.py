"""The package root: its names load their modules on first use."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pathforge

_SUBMODULES = ["numeric", "paths", "fold", "bijections", "identities", "walks"]


def test_import_loads_no_submodule():
    script = "import pathforge, sys; print(*sorted(m for m in sys.modules if m.startswith('pathforge')))"
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True,
                         check=True)
    assert out.stdout.split() == ["pathforge"]


@pytest.mark.parametrize("name", pathforge.__all__)
def test_exported_name_is_its_module_object(name):
    owner = next(m for m in _SUBMODULES if hasattr(importlib.import_module(f"pathforge.{m}"), name))
    assert getattr(pathforge, name) is getattr(importlib.import_module(f"pathforge.{owner}"), name)


def test_submodules_and_version_resolve():
    for name in _SUBMODULES:
        assert getattr(pathforge, name) is importlib.import_module(f"pathforge.{name}")
    assert pathforge.__version__ == "0.1.0"


def test_public_names_are_pinned():
    # a public name is added or dropped on purpose, here and in __all__
    assert sorted(pathforge.__all__) == [
        "AltitudeStats", "FiveTuple", "Fold", "GAMMA", "GammaPoly", "IdentityReport", "MidPath",
        "Path", "PathKind", "SweepResult", "Walk", "catalan", "check_level_parity", "construct",
        "enumerate_alt_motzkin", "enumerate_dyck", "five_tuples", "fold_upto", "image_paths",
        "invert", "middle_altitude", "narayana", "narayana_poly", "parse", "path_to_walk", "stats",
        "sweep", "verify", "walk_to_path",
    ]


def test_dir_lists_every_export():
    assert set(pathforge.__all__) | set(_SUBMODULES) <= set(dir(pathforge))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'frobnicate'"):
        pathforge.frobnicate
    assert not hasattr(pathforge, "expectation_vectors")
    # the one fold names no backend, on the package or on its module
    for gone in ("BACKEND_NAME", "HAVE_COMPILED"):
        assert not hasattr(pathforge, gone)
        assert not hasattr(pathforge.fold, gone)
    with pytest.raises(ImportError):
        from pathforge import walk_identity_summary  # noqa: F401
