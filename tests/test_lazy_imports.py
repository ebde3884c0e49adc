"""The lazy package ``__init__``s: ``import repro`` loads one module, a
single-level solve loads only its own layers, and every public name
still resolves to the object its defining module holds."""

import json
import os
import subprocess
import sys

PROG = r"""
import importlib, json, pkgutil, sys

def loaded():
    return sorted(m for m in sys.modules if m == "repro" or m.startswith("repro."))

import repro
out = {"after_import": loaded(), "dir_missing": sorted(set(repro.__all__) - set(dir(repro)))}

from repro.core.single_level import SingleLevelRMCRT
from repro.radiation.benchmark import BurnsChristonBenchmark
bench = BurnsChristonBenchmark(resolution=8)
grid = bench.single_level_grid()
SingleLevelRMCRT(rays_per_cell=2, seed=1).solve(grid, bench.properties_for_level(grid.finest_level))
out["after_solve"] = loaded()
out["heavy"] = sorted({m.split(".")[0] for m in sys.modules} & {"scipy", "xml"})

star = {}
exec("from repro import *", star)
out["star_missing"] = sorted(set(repro.__all__) - set(star))

packages = [repro] + [
    importlib.import_module(info.name)
    for info in pkgutil.walk_packages(repro.__path__, "repro.") if info.ispkg
]
out["packages"] = [p.__name__ for p in packages]
wrong = []
for package in packages:
    for name in package.__all__:
        value = getattr(package, name)
        if vars(package).get(name) is not value:
            wrong.append(f"{package.__name__}.{name}: not cached")
        qualname = getattr(value, "__qualname__", None)
        if isinstance(qualname, str):
            home = getattr(sys.modules[value.__module__], qualname, None)
        else:
            home = next((vars(m)[name] for m in list(sys.modules.values())
                         if getattr(m, "__name__", "").startswith("repro")
                         and not hasattr(m, "__path__") and vars(m).get(name) is value),
                        None)
        if home is not value and (package, name) != (repro, "__version__"):
            wrong.append(f"{package.__name__}.{name}")
out["wrong"] = wrong
print(json.dumps(out))
"""

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: what a single-level solve must not load
NOT_ON_THE_SOLVE_PATH = (
    "service", "fabric", "dessim", "arches", "check", "resilience", "ups",
    "runtime", "dw", "comm", "perf.analyze", "perf.doctor", "radiation.spectral",
)


def test_module_set_and_public_names():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [os.path.join(ROOT, "src"), env.get("PYTHONPATH", "")])
    )
    proc = subprocess.run(
        [sys.executable, "-c", PROG], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])

    assert out["after_import"] == ["repro"]
    assert out["dir_missing"] == []
    assert out["star_missing"] == []
    stray = [
        m for m in out["after_solve"]
        for pkg in NOT_ON_THE_SOLVE_PATH
        if m == f"repro.{pkg}" or m.startswith(f"repro.{pkg}.")
    ]
    assert stray == [], "a single-level solve loaded " + ", ".join(stray)
    assert out["heavy"] == []
    assert len(out["packages"]) == 18, out["packages"]
    assert out["wrong"] == [], out["wrong"]
