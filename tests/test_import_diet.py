"""The serving entry points stay free of heavy optional imports.

numpy is a dev dependency for the learned tier's training code only;
loading it into every ``repro serve`` / ``repro route`` process would
cost resident memory for nothing.  The check runs in a fresh
interpreter so modules other tests imported cannot mask a regression.
"""

import os
import subprocess
import sys
from pathlib import Path

import repro

SRC = str(Path(repro.__file__).resolve().parent.parent)


def test_serving_entry_points_do_not_import_numpy():
    code = ("import sys\n"
            "import repro.cli, repro.service.server, repro.service.router\n"
            "print('numpy' in sys.modules)\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [SRC, env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
