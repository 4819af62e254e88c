"""The serving entry points stay free of heavy optional imports.

numpy is a dev dependency for the learned tier's training code only;
loading it into every ``repro serve`` / ``repro route`` process would
cost resident memory for nothing.  Every request runs inline, so
``multiprocessing`` would be start-up time for nothing.  The check
runs in a fresh interpreter so modules other tests imported cannot mask
a regression.
"""

import os
import subprocess
import sys
from pathlib import Path

import repro

SRC = str(Path(repro.__file__).resolve().parent.parent)


def _loaded_by_serving(module: str) -> bool:
    code = ("import sys\n"
            "import repro.cli, repro.service.server, repro.service.router\n"
            f"print({module!r} in sys.modules)\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [SRC, env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    return out.stdout.strip() == "True"


def test_serving_entry_points_do_not_import_numpy():
    assert not _loaded_by_serving("numpy")


def test_serving_entry_points_do_not_import_multiprocessing():
    assert not _loaded_by_serving("multiprocessing")
