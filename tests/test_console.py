"""The console entry as a user's shell runs it: one process per row.

Each row runs ``python -m tarsim`` with ``src`` on PYTHONPATH, and the
installed ``tarsim`` script as well where one is installed beside this
Python.  The rows check only what an in-process ``main()`` call cannot
see: that the entry starts, that ``entry()`` hands the exit code to the
shell, and that errors go to stderr and results to stdout, with no
traceback.  The messages themselves are checked in-process, in
test_cli.py; a new console behaviour gets its case there, not a row here.
"""

import os
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
SCRIPT = shutil.which("tarsim", path=sysconfig.get_path("scripts"))
ENTRIES = {"module": [sys.executable, "-m", "tarsim"]}
if SCRIPT:
    ENTRIES["script"] = [SCRIPT]

# argv, run in a fresh directory; the exit code; the start of the one
# stream that may be written, stdout on success and stderr on an error
ROWS = {
    "help": (["--help"], 0, "usage: tarsim"),
    "chain-pull": (["chain", "--pull", "5.5", "--out", "out"], 0,
                   "pull 5.5 mm -> total bend 65.8"),
    "unreachable": (["leg", "--ik=1000,0,0", "--out", "out"], 1,
                    "error: target not reachable"),
    "absent-config": (["leg", "--ik=150,0,-50", "--config", "absent.conf",
                       "--out", "out"], 2, "config error: "),
    "too-large": (["chain", "--sweep", "0:1e8:1e-9", "--out", "out"], 1,
                  "error: "),
}


@pytest.mark.parametrize("entry", ENTRIES)
@pytest.mark.parametrize("row", ROWS)
def test_console(tmp_path, entry, row):
    argv, code, start = ROWS[row]
    env = {k: v for k, v in os.environ.items() if k != "TARSIM_CONFIG"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [
        str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([*ENTRIES[entry], *argv], cwd=tmp_path, env=env,
                          capture_output=True, text=True)
    written, silent = ((proc.stdout, proc.stderr) if code == 0
                       else (proc.stderr, proc.stdout))
    assert proc.returncode == code, proc.stderr
    assert written.startswith(start)
    assert silent == ""
    assert "Traceback" not in proc.stderr
