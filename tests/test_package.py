"""The package's exports: direct and resonance, the modules that import
scipy, are loaded on first access to one of their names (PEP 562)."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import impnet
from impnet import direct, errors, impedance, laplacian, network, resonance, takagi

MODULES = (direct, errors, impedance, laplacian, network, resonance, takagi)


def test_every_export_is_its_home_modules_object():
    assert impnet.solve_direct is impnet.direct.solve_direct
    assert impnet.find_resonances is impnet.resonance.find_resonances
    for name in impnet.__all__:
        if name == "__version__":
            continue
        homes = [m for m in MODULES if name in vars(m)]
        assert homes, name
        assert all(vars(m)[name] is getattr(impnet, name) for m in homes), name


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from impnet import *", namespace)
    assert [n for n in impnet.__all__ if n not in namespace] == []
    assert namespace["solve_direct"] is direct.solve_direct


def test_dir_lists_every_exported_name():
    listed = dir(impnet)
    assert listed == sorted(listed)
    assert set(impnet.__all__) <= set(listed)


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="module 'impnet' has no attribute 'nope'"):
        impnet.nope
    assert not hasattr(impnet, "solve")
    with pytest.raises(ImportError):
        exec("from impnet import nope", {})


def test_scipy_modules_load_on_first_access():
    # A fresh process: import impnet and dir() leave direct, resonance and
    # scipy unloaded; the first lazy name loads its own module only.
    child = (
        "import sys\n"
        "import impnet\n"
        "dir(impnet)\n"
        "def loaded():\n"
        "    return [m for m in ('impnet.direct', 'impnet.resonance', 'scipy')\n"
        "            if m in sys.modules]\n"
        "print(loaded())\n"
        "impnet.SingularSystem\n"
        "print(loaded())\n"
        "from impnet import *\n"
        "print(loaded())\n"
    )
    src = str(Path(impnet.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"}
    proc = subprocess.run([sys.executable, "-c", child], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.stderr == ""
    assert proc.stdout.splitlines() == [
        "[]",
        "['impnet.direct', 'scipy']",
        "['impnet.direct', 'impnet.resonance', 'scipy']",
    ]
