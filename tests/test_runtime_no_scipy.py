"""The runtime needs numpy only: SciPy is a test-time oracle, never a
dependency of the farm or its applications.

A subprocess makes ``import scipy`` fail, then runs a DPRml job with
discrete-Gamma rates (bounded Brent + incomplete gamma) and a full
``fit_hky_gamma``; both must finish and equal the same calls made here.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

from repro.apps.dprml import DPRmlConfig, run_dprml
from repro.bio.phylo.estimate import fit_hky_gamma
from repro.bio.phylo.models import JC69
from repro.bio.phylo.simulate import random_yule_tree, simulate_alignment
from repro.bio.phylo.tree import parse_newick
from repro.core.integrity import canonical_digest

ROOT = Path(__file__).resolve().parents[1]


def scipy_free_results() -> dict:
    """A small gamma DPRml job and an HKY+Γ fit of its tree."""
    tree = random_yule_tree(6, seed=31, mean_branch=0.15)
    alignment = simulate_alignment(tree, JC69(), 150, seed=32)
    report = run_dprml(alignment, DPRmlConfig(gamma_alpha=0.5), workers=1)
    fit = fit_hky_gamma(parse_newick(report.newick), alignment, gamma_categories=4)
    return {
        "digest": canonical_digest(
            (report.newick, report.log_likelihood, report.addition_order)
        ).hex(),
        "fit": [fit.kappa, fit.alpha, fit.log_likelihood, list(fit.rates.rates)],
    }


CHILD = """
import json, sys
sys.modules["scipy"] = None  # any 'import scipy...' now raises ImportError
import repro.apps.dprml
from tests.test_runtime_no_scipy import scipy_free_results
results = scipy_free_results()
results["scipy_modules"] = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
print(json.dumps(results))
"""


def test_dprml_and_fit_run_without_scipy():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT)]))
    child = subprocess.run(
        [sys.executable, "-c", CHILD],
        env=env,
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert child.returncode == 0, child.stderr
    results = json.loads(child.stdout.splitlines()[-1])
    # Only the None placeholder that blocks the import.
    assert results.pop("scipy_modules") == ["scipy"]
    assert results == json.loads(json.dumps(scipy_free_results()))


def test_no_module_under_src_imports_scipy():
    offenders = []
    for path in sorted((ROOT / "src").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "scipy" for name in names):
                offenders.append(f"{path.relative_to(ROOT)}:{node.lineno}")
    assert offenders == []
