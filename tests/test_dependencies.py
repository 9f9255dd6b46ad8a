import os
import subprocess
import sys
from pathlib import Path

import gptcone


def test_import_does_not_load_scipy():
    src = str(Path(gptcone.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c",
         "import gptcone, sys; assert 'scipy' not in sys.modules"],
        capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
