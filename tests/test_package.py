"""Package-level contracts: public module names and import-time cost."""
import subprocess
import sys
from pathlib import Path

import invitesim


def test_presets_submodule_is_not_shadowed():
    assert invitesim.presets.get_preset("fig4a").name == "fig4a"
    assert "fig4a" in invitesim.presets.presets()


def test_import_loads_no_scipy():
    # the closed-form solvers need numpy only; scipy would add to every
    # command's start-up time
    src = str(Path(invitesim.__file__).resolve().parents[1])
    code = (f"import sys; sys.path.insert(0, {src!r}); import invitesim; "
            "print('scipy' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120, check=True)
    assert proc.stdout.strip() == "False"
