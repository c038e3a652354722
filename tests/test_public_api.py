"""The package's public surface: every exported name resolves, so that a
deleted function cannot stay exported; no file of it imports scipy, and
pyproject.toml declares exactly what it imports; NaN fails its domain
guards."""

import ast
import math
import os
import re
import subprocess
import sys

import pytest

import heatbayes
from heatbayes.asymptotics import (
    LemmaParams,
    crossover_index,
    lemma_norm_sup,
    lemma_series_value,
)


def test_every_exported_name_resolves():
    missing = [name for name in heatbayes.__all__
               if not hasattr(heatbayes, name)]
    assert missing == []
    assert len(set(heatbayes.__all__)) == len(heatbayes.__all__)


def test_star_import():
    namespace = {}
    exec("from heatbayes import *", namespace)
    assert set(heatbayes.__all__) <= set(namespace)


def _imported_modules(path):
    """(module, line) for every absolute import in the file at `path`,
    function bodies included."""
    with open(path, encoding="utf-8") as f:
        tree = ast.parse(f.read())
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, node.lineno
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module, node.lineno


def _package_files():
    package = os.path.dirname(heatbayes.__file__)
    for root, _, names in sorted(os.walk(package)):
        for name in sorted(names):
            if name.endswith(".py"):
                yield os.path.join(root, name)


def test_no_module_level_scipy_import():
    """No file of the package imports scipy, not even inside a function."""
    offenders = [f"{os.path.basename(path)}:{line}"
                 for path in _package_files()
                 for module, line in _imported_modules(path)
                 if module.split(".")[0] == "scipy"]
    assert offenders == []


def test_declared_dependencies_match_imports():
    """[project] dependencies name exactly the third-party modules that the
    package imports; the test extra adds scipy, mpmath and pytest."""
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    root = os.path.dirname(os.path.dirname(os.path.dirname(heatbayes.__file__)))
    with open(os.path.join(root, "pyproject.toml"), "rb") as f:
        project = tomllib.load(f)["project"]

    def names(requirements):
        return {re.split(r"[\s<>=!~;\[]", r, maxsplit=1)[0].lower()
                for r in requirements}

    imported = {module.split(".")[0]
                for path in _package_files()
                for module, _ in _imported_modules(path)}
    third_party = imported - set(sys.stdlib_module_names) - {"heatbayes"}
    assert names(project["dependencies"]) == third_party
    assert {"scipy", "mpmath", "pytest"} <= names(
        project["optional-dependencies"]["test"])


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
        "    0.5))\n"
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


def test_lemma_suite_and_command_load_no_scipy(tmp_path):
    """The lemma suite, through the library and the command line, runs
    without scipy."""
    out = str(tmp_path / "lemmas.csv")
    assert _scipy_modules_after(
        "import contextlib, io\n"
        "from heatbayes import cli\n"
        "from heatbayes.asymptotics import standard_lemma_suite\n"
        "standard_lemma_suite()\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert cli.main(['lemmas', '--out', {out!r}]) == 0\n"
    ) == "[]"


def _posterior_summary():
    nn = 50
    kappa = heatbayes.heat_eigenvalues(0.1, nn)
    mu0 = heatbayes.true_signal_coefficients(nn)
    obs = heatbayes.simulate_observations(mu0, kappa, 1e4, 0)
    return heatbayes.compute_posterior(heatbayes.PriorSpec.polynomial(1.0),
                                       kappa, 1e4, obs)


NAN = math.nan
MU = heatbayes.true_signal_coefficients(20)
NAN_CALLS = {
    "posterior_mean_function-x": lambda: heatbayes.posterior_mean_function(
        _posterior_summary(), [0.5, NAN]),
    "forward_solution-t": lambda: heatbayes.forward_solution(MU, NAN, [0.3]),
    "sobolev_norm-beta": lambda: heatbayes.sobolev_norm(MU, NAN),
    "crossover_index-u": lambda: crossover_index(1e4, NAN, 1.0),
    "lemma_series_value-t": lambda: lemma_series_value(
        LemmaParams(t=NAN, r=1, p=2, v=2), 1e4),
    "lemma_norm_sup-q": lambda: lemma_norm_sup(
        LemmaParams(q=NAN, p=2, v=2), 1e4),
    **{f"default_truncation-T{T}": (
        lambda T=T: heatbayes.default_truncation(1e4, 1.0, T))
       for T in (0.0, -1.0, NAN)},
    **{f"ExperimentConfig-T{T}": (
        lambda T=T: heatbayes.ExperimentConfig(
            prior=heatbayes.PriorSpec.polynomial(1.0), n_grid=(1e4,),
            time_horizon=T))
       for T in (0.0, -1.0, NAN)},
}


@pytest.mark.parametrize("name,call", NAN_CALLS.items(), ids=NAN_CALLS.keys())
def test_invalid_domain_raises_value_error(name, call):
    """NaN fails every guard (none is written as x < 0, which NaN passes),
    and a time horizon T <= 0 is refused as such, before anything divides
    by it or takes its log."""
    match = "time horizon" if "-T" in name else None
    with pytest.raises(ValueError, match=match):
        call()
