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


def _heatbayes_calls():
    """(file:line, dotted callee, callee, positional count, keyword names)
    of every call in bench/*.py whose callee is a heatbayes name, resolved
    through the file's imports; starred arguments leave the count open."""
    out = []
    for name in sorted(os.listdir(BENCH)):
        if not name.endswith(".py"):
            continue
        tree = _tree(name)
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module and (
                    node.module.split(".")[0] == "heatbayes"):
                for alias in node.names:
                    imported[alias.asname or alias.name] = (node.module,
                                                            alias.name)
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] == "heatbayes":
                        imported[alias.asname or alias.name] = (alias.name,)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            chain, func = [], node.func
            while isinstance(func, ast.Attribute):
                chain.insert(0, func.attr)
                func = func.value
            if not isinstance(func, ast.Name) or func.id not in imported:
                continue
            module, *attrs = imported[func.id]
            obj = importlib.import_module(module)
            for attr in attrs + chain:
                obj = getattr(obj, attr, None)
            if inspect.ismodule(obj):
                continue
            starred = (any(isinstance(a, ast.Starred) for a in node.args)
                       or any(k.arg is None for k in node.keywords))
            out.append((f"{name}:{node.lineno}", ".".join([func.id] + chain),
                        obj, None if starred else len(node.args),
                        [k.arg for k in node.keywords if k.arg]))
    return out


def test_bench_calls_bind_to_the_library():
    """Every heatbayes call in the benchmark's sources binds to its
    callee's signature: a removed parameter or a renamed keyword fails here,
    not only in a benchmark run."""
    calls = _heatbayes_calls()
    assert any(label == "functionals.LinearFunctional.point_evaluation"
               and npos == 2 for _, label, _, npos, _ in calls)
    for where, label, fn, npos, keywords in calls:
        assert callable(fn), f"{where}: {label} is gone"
        if npos is None:
            continue
        try:
            inspect.signature(fn).bind(*[None] * npos,
                                       **dict.fromkeys(keywords))
        except TypeError as exc:
            pytest.fail(f"{where}: {label} takes no such call: {exc}")
