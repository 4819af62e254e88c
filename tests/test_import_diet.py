"""The serving entry points stay free of heavy optional imports.

numpy is a dev dependency for the learned tier's training code only;
loading it into every ``repro serve`` / ``repro route`` process would
cost resident memory for nothing.  Every request runs inline, so
``multiprocessing`` would be start-up time for nothing.  The package
roots resolve their public names on first use, so a backend carries
neither the client nor the router, and a router carries no predictor.
Every check runs in a fresh interpreter so modules other tests imported
cannot mask a regression.
"""

import os
import socket
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import repro
import repro.service

SRC = str(Path(repro.__file__).resolve().parent.parent)


def _env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [SRC, env.get("PYTHONPATH")]))
    return env


def _loaded_by_serving(module: str) -> bool:
    code = ("import sys\n"
            "import repro.cli, repro.service.server, repro.service.router\n"
            f"print({module!r} in sys.modules)\n")
    out = subprocess.run([sys.executable, "-c", code], env=_env(),
                         capture_output=True, text=True, check=True)
    return out.stdout.strip() == "True"


def test_serving_entry_points_do_not_import_numpy():
    assert not _loaded_by_serving("numpy")


def test_serving_entry_points_do_not_import_multiprocessing():
    assert not _loaded_by_serving("multiprocessing")


def _imported_until_listening(args: list[str], tmp_path: Path) -> set[str]:
    """Modules a ``python -X importtime -m repro ...`` process imported
    by the time it printed its listening line."""
    stderr_path = tmp_path / "importtime.txt"
    with open(stderr_path, "w") as stderr:
        process = subprocess.Popen(
            [sys.executable, "-X", "importtime", "-m", "repro", *args],
            env=_env(), stdout=subprocess.PIPE, stderr=stderr, text=True)
    watchdog = threading.Timer(60, process.kill)
    watchdog.start()
    try:
        line = process.stdout.readline()
    finally:
        watchdog.cancel()
        process.terminate()
        process.wait(timeout=10)
        process.stdout.close()
    assert "listening" in line, stderr_path.read_text()[-2000:]
    return {row.split("|")[2].strip()
            for row in stderr_path.read_text().splitlines()
            if row.startswith("import time:") and "|" in row}


def _closed_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def test_serve_loads_no_client_router_or_optional_tiers(tmp_path):
    imported = _imported_until_listening(["serve", "--port", "0"], tmp_path)
    assert "repro.service.engine" in imported   # the probe sees lazy imports
    for module in ("asyncio", "repro.service.client", "repro.service.router",
                   "repro.learn", "repro.calib", "repro.sweep"):
        assert module not in imported, module


def test_route_loads_no_predictor(tmp_path):
    backend = f"http://127.0.0.1:{_closed_port()}"
    imported = _imported_until_listening(
        ["route", "--port", "0", "--backends", backend], tmp_path)
    assert "repro.service.router" in imported
    for module in ("asyncio", "repro.service.engine", "repro.transform",
                   "repro.aggregate", "repro.cost"):
        assert module not in imported, module


@pytest.mark.parametrize("package", [repro, repro.service],
                         ids=["repro", "repro.service"])
def test_every_public_name_imports_and_is_listed(package):
    names = dir(package)
    for name in package.__all__:
        namespace: dict = {}
        exec(f"from {package.__name__} import {name}", namespace)
        assert namespace[name] is getattr(package, name)
        assert name in names, name
    with pytest.raises(AttributeError):
        getattr(package, "no_such_name")


def test_compare_stays_the_function():
    """``repro.compare`` names both a subpackage and the public
    function; importing the subpackage must not rebind the name."""
    import repro.compare.comparator

    assert repro.compare is sys.modules["repro.compare.comparator"].compare
