"""The package's public surface: every exported name resolves, so that a
deleted function cannot stay exported, and importing it loads no scipy."""

import ast
import os
import subprocess
import sys

import heatbayes


def test_every_exported_name_resolves():
    missing = [name for name in heatbayes.__all__
               if not hasattr(heatbayes, name)]
    assert missing == []
    assert len(set(heatbayes.__all__)) == len(heatbayes.__all__)


def test_star_import():
    namespace = {}
    exec("from heatbayes import *", namespace)
    assert set(heatbayes.__all__) <= set(namespace)


def _module_level_imports(node):
    """Import statements that run when the module is imported: every one
    outside a function body."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                              ast.Lambda)):
            continue
        if isinstance(child, (ast.Import, ast.ImportFrom)):
            yield child
        yield from _module_level_imports(child)


def test_no_module_level_scipy_import():
    package = os.path.dirname(heatbayes.__file__)
    offenders = []
    for name in sorted(os.listdir(package)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(package, name)) as f:
            tree = ast.parse(f.read())
        for node in _module_level_imports(tree):
            modules = ([a.name for a in node.names]
                       if isinstance(node, ast.Import) else [node.module])
            if any(m and m.split(".")[0] == "scipy" for m in modules):
                offenders.append(f"{name}:{node.lineno}")
    assert offenders == []


def _scipy_modules_after(lines: str) -> str:
    """The scipy modules loaded after running `lines` in a fresh process
    (this one has scipy loaded already)."""
    script = ("import sys\n"
              "import heatbayes as hb\n"
              + lines +
              "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    src = os.path.dirname(os.path.dirname(heatbayes.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


def test_panels_intervals_and_risk_load_no_scipy():
    """The import and the panel, interval and risk paths run without scipy,
    in a fresh process (this one has scipy loaded already)."""
    assert _scipy_modules_after(
        "from heatbayes.experiments import PanelSpec\n"
        "prior = hb.PriorSpec.polynomial(1.0)\n"
        "cfg = hb.ExperimentConfig(prior=prior, n_grid=(1e4,),\n"
        "                          replications=5, x_grid_points=21)\n"
        "hb.render_panel(cfg, PanelSpec(prior, 1e4, 0, draws=2))\n"
        "hb.run_interval_coverage(cfg, hb.LinearFunctional.point_evaluation(\n"
        "    0.5, 100))\n"
        "hb.run_risk_curve(cfg)\n") == "[]"


def test_ball_radii_load_no_scipy():
    """Credible radii (Wilson-Hilferty start of the central inversion) and
    honest radii, through ball coverage at a fixed and a prior-drawn truth,
    run without scipy."""
    assert _scipy_modules_after(
        "for mu0 in (hb.Mu0Source.test_cubic(), hb.Mu0Source.prior_draw()):\n"
        "    hb.run_ball_coverage(hb.ExperimentConfig(\n"
        "        prior=hb.PriorSpec.polynomial(1.0), n_grid=(1e2, 1e4),\n"
        "        replications=5, mu0=mu0))\n") == "[]"
