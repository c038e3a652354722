"""The library surface the benchmark relies on.

`bench/instrument.py` rebinds the entry points named in its FUNCTIONS and
METHODS tables and reads some of their arguments by name; `bench/checks.py`
and `bench/workloads.py` read attributes of `ExperimentConfig`.  A renamed
function, parameter or field breaks the traced benchmark and no other test,
so these tests read the names from the benchmark's sources with `ast`,
without importing `bench`, and look them up in the library.
"""

import ast
import importlib
import inspect
import os

import pytest

from heatbayes import ExperimentConfig, PriorSpec

BENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                     "bench")

# entry point -> argument names `_count` binds by name
BOUND = {
    "heat_eigenvalues": ("truncation_level",),
    "true_signal_coefficients": ("truncation_level",),
    "basis_matrix": ("x_grid", "truncation_level"),
    "quadratic_form_quantile": ("q",),
    "frequentist_radius": ("prior", "kappa", "n"),
    "point_evaluation_curves": ("x_grid", "weights", "extra_coefficients"),
    "run_ball_coverage": ("cfg",),
    "run_interval_coverage": ("cfg",),
    "run_risk_curve": ("cfg",),
    "write_dataset": ("path",),
    "render_static_plot": ("path",),
}


def _tree(name):
    with open(os.path.join(BENCH, name), encoding="utf-8") as fh:
        return ast.parse(fh.read())


def _constant(tree, name):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise LookupError(name)


def _entry_points():
    tree = _tree("instrument.py")
    functions = _constant(tree, "FUNCTIONS")
    methods = _constant(tree, "METHODS")
    out = []
    for layer, names in functions.items():
        module = importlib.import_module(f"heatbayes.{layer}")
        out += [(f"{layer}.{name}", getattr(module, name, None)) for name in names]
    for layer, pairs in methods.items():
        module = importlib.import_module(f"heatbayes.{layer}")
        for cls, meth in pairs:
            owner = getattr(module, cls, None)
            out.append((f"{layer}.{cls}.{meth}", getattr(owner, meth, None)))
    return out


ENTRY_POINTS = _entry_points()


@pytest.mark.parametrize("label,fn", ENTRY_POINTS,
                         ids=[label for label, _ in ENTRY_POINTS])
def test_traced_entry_point_exists(label, fn):
    assert callable(fn), f"{label} is gone"
    params = inspect.signature(fn).parameters
    for arg in BOUND.get(label.rsplit(".", 1)[-1], ()):
        assert arg in params, f"{label} no longer takes {arg!r}"


def test_bound_names_are_all_listed():
    """Every argument name `_count` subscripts appears in BOUND, so a new
    binding in the benchmark is checked here too."""
    count = next(node for node in _tree("instrument.py").body
                 if isinstance(node, ast.FunctionDef) and node.name == "_count")
    keys = {node.slice.value for node in ast.walk(count)
            if isinstance(node, ast.Subscript)
            and isinstance(node.slice, ast.Constant)
            and isinstance(node.slice.value, str)
            and not (isinstance(node.value, ast.Name) and node.value.id == "c")}
    listed = {arg for args in BOUND.values() for arg in args}
    assert keys <= listed, keys - listed


def test_config_attributes_read_by_the_benchmark():
    cfg = ExperimentConfig(prior=PriorSpec.polynomial(1.0), n_grid=(1e4,))
    read = {node.attr for name in ("checks.py", "workloads.py")
            for node in ast.walk(_tree(name))
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id == "cfg"}
    assert "mc_draws" in read
    missing = {attr for attr in read if not hasattr(cfg, attr)}
    assert not missing, missing
