"""The lazy ``procmat`` namespace and the modules each CLI command loads."""

import importlib
import os
import subprocess
import sys

import pytest

import procmat
from procmat import encode_process, random_process
from procmat import ocb_process

SRC = os.path.dirname(os.path.dirname(procmat.__file__))


class TestLazyNamespace:
    def test_each_name_listed_once(self):
        assert sum(len(names) for names in procmat._EXPORTS.values()) == len(procmat.__all__)

    def test_names_resolve_to_their_defining_module(self):
        for name in procmat.__all__:
            module = importlib.import_module(f"procmat.{procmat._MODULE_OF[name]}")
            value = getattr(procmat, name)
            assert value is getattr(module, name)
            assert getattr(value, "__module__", module.__name__) == module.__name__, name

    def test_dir_lists_public_names(self):
        assert set(procmat.__all__) <= set(dir(procmat))

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            procmat.no_such_name  # noqa: B018

    def test_star_import_binds_all(self):
        namespace = {}
        exec("from procmat import *", namespace)
        assert all(namespace[name] is getattr(procmat, name) for name in procmat.__all__)

    def test_submodule_import_still_works(self):
        from procmat import separability

        assert separability is sys.modules["procmat.separability"]


def _run(args, stdin=""):
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run([sys.executable, "-X", "importtime", *args], input=stdin, capture_output=True,
                          text=True, env=env, timeout=120)


def _loaded(stderr):
    """Names of the ``procmat.*`` modules in an ``-X importtime`` report."""
    names = (line.rsplit("|", 1)[-1].strip() for line in stderr.splitlines() if line.startswith("import time:"))
    return {name.split(".", 1)[1] for name in names if name.startswith("procmat.")}


class TestModuleGraph:
    """Each CLI command imports only the modules it runs."""

    def test_import_loads_no_submodule(self):
        proc = _run(["-c", "import procmat"])
        assert proc.returncode == 0, proc.stderr
        assert _loaded(proc.stderr) == set()

    @pytest.mark.parametrize("command, document, modules", [
        ("validate", "random", {"tensor", "process", "io"}),
        ("check-sep", "random", {"tensor", "process", "io", "effective", "separability"}),
        ("game", "ocb", {"tensor", "process", "io", "instruments", "games"}),
    ])
    def test_command_loads_only_its_modules(self, command, document, modules):
        w = random_process(0) if document == "random" else ocb_process()
        proc = _run(["-m", "procmat.cli", command, "--json"], stdin=encode_process(w))
        assert proc.returncode == 0, proc.stderr
        assert _loaded(proc.stderr) == modules

    @pytest.mark.parametrize("name", ["ocb", "w0", "identity", "channel"])
    def test_fixture_loads_only_the_process_modules(self, name):
        # ``process`` builds every fixture: neither the game nor the separability code loads.
        proc = _run(["-m", "procmat.cli", "fixture", name, "--json"])
        assert proc.returncode == 0, proc.stderr
        assert _loaded(proc.stderr) == {"tensor", "process", "io"}
