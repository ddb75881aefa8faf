"""Suite-wide fixtures."""

import importlib.util
import pathlib
import shutil
import subprocess
import sysconfig

import pytest

from repro.sim.kernel import make_simulator_class

_SPEEDUPS_C = (pathlib.Path(__file__).resolve().parents[1]
               / "src" / "repro" / "sim" / "_speedups.c")


@pytest.fixture(scope="session")
def c_event_core(tmp_path_factory):
    """The C ``EventCore``, compiled from ``src/repro/sim/_speedups.c``
    into a temp dir with ``tools/build_speedups.sh``'s flags, or None
    when there is no ``cc`` or no ``Python.h``.

    The module is loaded from the temp dir and never registered as
    ``repro.sim._speedups``, so the engine ``repro.sim`` picks by
    default stays what it was.
    """
    include = pathlib.Path(sysconfig.get_paths()["include"])
    if shutil.which("cc") is None or not (include / "Python.h").exists():
        return None
    out = tmp_path_factory.mktemp("speedups") / (
        "_speedups" + sysconfig.get_config_var("EXT_SUFFIX"))
    build = subprocess.run(
        ["cc", "-O2", "-fPIC", "-shared", "-Wall", "-Wextra",
         "-Wno-unused-parameter", f"-I{include}", str(_SPEEDUPS_C),
         "-o", str(out)],
        capture_output=True, text=True)
    if build.returncode != 0:
        pytest.fail(f"compiling {_SPEEDUPS_C.name} failed:\n{build.stderr}")
    spec = importlib.util.spec_from_file_location("_speedups", out)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.EventCore


@pytest.fixture
def cross_engine_classes(request):
    """Simulator classes over every engine core, keyed by core name.

    Appends :func:`c_event_core` to the requesting module's ``CORES``
    list unless an in-place build already put the C core there, and
    skips when only the pure-Python core is available.
    """
    cores = request.module.CORES
    if len(cores) < 2:
        core = request.getfixturevalue("c_event_core")
        if core is not None:
            cores.append(core)
    if len(cores) < 2:
        pytest.skip("C core not built; nothing to compare")
    return {core.__name__: make_simulator_class(core) for core in cores}
