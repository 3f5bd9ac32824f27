import os
import subprocess
import sys
from pathlib import Path

import phiregret


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from phiregret import *", namespace)
    assert set(phiregret.__all__) <= set(namespace)


def test_import_pulls_in_no_scipy():
    src = str(Path(phiregret.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    code = (
        "import sys, phiregret\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"
