"""Package-level contracts: public module names, import hygiene and import-time cost."""
import ast
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import invitesim


def test_presets_submodule_is_not_shadowed():
    assert invitesim.presets.get_preset("fig4a").name == "fig4a"
    assert "fig4a" in invitesim.presets.presets()


def test_csv_rows_formatted_in_one_module():
    # every data file goes through _csv.write_columns; a row loop of its own
    # elsewhere would bring back writelines or starmap
    pkg = Path(invitesim.__file__).parent
    found = {p.name for p in pkg.glob("*.py")
             if re.search(r"\b(writelines|starmap)\b", p.read_text())}
    assert found == {"_csv.py"}


def test_time_grid_built_in_one_module():
    # every output grid k*dt up to a horizon comes from params._time_grid; a
    # copy of its rule elsewhere (floor(h/dt*(1+1e-12)) + 1 points, or
    # np.arange from 0 to h*(1+1e-12)) could drift from it
    pkg = Path(invitesim.__file__).parent
    rule = re.compile(r"floor\(.*\(1(\.0)? \+ 1e-12\)\)|arange\(0\.0, .*1e-12")
    found = {p.name for p in pkg.glob("*.py") if rule.search(p.read_text())}
    assert found == {"params.py"}


def test_fluid_paths_never_interpolated():
    # every fluid path and every moment path is a closed form evaluated at
    # the times asked for; an interpolation between samples would bring back
    # a solver grid
    pkg = Path(invitesim.__file__).parent
    for name in ("fluid.py", "diffusion.py"):
        assert "np.interp" not in (pkg / name).read_text(), name


def test_run_references_built_in_one_module():
    # the fluid path a run is compared with comes from stats.fluid_reference,
    # which maps the run's start into the view fluid_scale puts the run in; a
    # second mapping elsewhere could start the reference somewhere else
    pkg = Path(invitesim.__file__).parent
    found = {p.name for p in pkg.glob("*.py") if "solve_fluid_tv(" in p.read_text()}
    assert found == {"fluid.py", "stats.py"}
    assert not re.search(r"\bsolve_fluid", (pkg / "cli.py").read_text())


def test_no_constant_arrival_profile():
    # a constant rate is arrival=None at params.lam, the rate of every
    # reference; a second spelling could run at one rate and be compared at
    # another
    pkg = Path(invitesim.__file__).parent
    rule = re.compile(r"\b(ConstantArrival|is_constant|check_reference_rate|ReferenceRateMismatch)\b")
    found = {p.name for p in [*pkg.glob("*.py"), pkg / "_kernel.c"] if rule.search(p.read_text())}
    assert found == set()


def _unused_imports(path: Path) -> list[str]:
    """Names that `path` imports and never reads, in order of import."""
    tree = ast.parse(path.read_text())
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in read]


def test_no_unused_imports():
    # __init__.py imports to re-export; every other module reads what it imports
    pkg = Path(invitesim.__file__).parent
    found = {f"{p.stem}.{name}" for p in sorted(pkg.glob("*.py"))
             if p.name != "__init__.py" for name in _unused_imports(p)}
    assert found == set()


def test_thread_pool_built_in_one_module():
    # repeated runs fan out through stats.replicate, which owns the pool; a
    # pool of its own elsewhere would bring back a second replication loop
    pkg = Path(invitesim.__file__).parent
    found = {p.name for p in pkg.glob("*.py")
             if re.search(r"\bThreadPoolExecutor\b|\bconcurrent\.futures\b", p.read_text())}
    assert found == {"stats.py"}


def _import_paths(path: Path) -> set[tuple[str, ...]]:
    """The dotted names that `path` imports, split at the dots; a from-import
    counts as its module followed by the name."""
    paths = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            paths |= {tuple(a.name.split(".")) for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module:
            paths |= {(*node.module.split("."), a.name) for a in node.names}
    return paths


def test_no_module_imports_an_ode_integrator():
    # every fluid path is a closed form, and the acceptance reference it is
    # checked against is a matrix exponential; an integrator would bring back
    # step-size tolerances on both sides
    pkg = Path(invitesim.__file__).parent
    found = {p.name for p in pkg.glob("*.py")
             if any(parts[:2] == ("scipy", "integrate") for parts in _import_paths(p))}
    assert found == set()


@pytest.mark.parametrize("module", ["invitesim", "invitesim.cli"])
def test_import_loads_no_scipy(module):
    # the closed-form solvers need numpy only; scipy would add to every
    # command's start-up time.  The console entry point imports the
    # acceptance suites, whose exact reference loads scipy only when it runs
    src = str(Path(invitesim.__file__).resolve().parents[1])
    code = (f"import sys; sys.path.insert(0, {src!r}); import {module}; "
            "print('scipy' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120, check=True)
    assert proc.stdout.strip() == "False"


def test_import_compiles_nothing(tmp_path):
    # the library is compiled on the first kernel call or the first data file
    # it can format, never at import; a fluid file, which runs no kernel,
    # shows that the audit hook and the glob would see a build, and the
    # kernel call after it loads the same library
    pkg = tmp_path / "invitesim"
    shutil.copytree(Path(invitesim.__file__).parent, pkg,
                    ignore=shutil.ignore_patterns("__pycache__"))
    code = f"""
import json, sys
from pathlib import Path
spawned = []
sys.addaudithook(lambda event, args: event in (
    "subprocess.Popen", "os.system", "os.posix_spawn", "os.fork", "os.exec")
    and spawned.append(event))
sys.path.insert(0, {str(tmp_path)!r})
libs = lambda: [p.name for p in Path({str(pkg)!r}).glob("**/*.so")]
import invitesim
seen = [list(spawned), libs(), invitesim._native._lib is invitesim._native._UNTRIED]
params = invitesim.ModelParams(1.0, 5.0, 1.0, 2.0, 0.2)
invitesim.solve_fluid((0.0, 0.0), params, 1.0).to_csv({str(tmp_path / "fluid.csv")!r})
seen.append([len(spawned), len(libs())])
invitesim.simulate_b((0, 5), params, 1.0, invitesim.RandomStream(1))
print(json.dumps(seen + [[len(spawned), len(libs())]]))
"""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120, check=True)
    built = shutil.which(invitesim._native._CC) is not None
    *seen, first, again = json.loads(proc.stdout)
    assert seen == [[], [], True]
    assert (first[0] > 0, first[1]) == (built, int(built)) and again == first
