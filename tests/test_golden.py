"""Golden output pins at seed 7.

Pins the sha256 of every CSV and SVG that `heatbayes figures --fig all
--seed 7` writes and of the lemma-suite CSV, and every row of the
benchmark's `coverage` jobs (fixed-truth balls, prior-draw balls and
intervals, the exp risk curve) with each float as its hex form.  A refactor
that claims unchanged outputs must leave all of them bitwise equal.

After a change that moves outputs on purpose, record the pins again with

    PYTHONPATH=src python tests/test_golden.py

and state in the change why they moved.
"""

import hashlib
import json
import os
import sys

import pytest

from heatbayes.cli import EXIT_OK, main
from heatbayes.experiments import (
    ExperimentConfig,
    Mu0Source,
    run_ball_coverage,
    run_interval_coverage,
    run_risk_curve,
)
from heatbayes.functionals import LinearFunctional
from heatbayes.priors import PriorSpec

SEED = 7
PINS = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                    "golden_seed7.json")


def _config(prior, n_grid, mu0=None):
    return ExperimentConfig(prior=prior, n_grid=n_grid, gamma=0.05,
                            replications=1000, seed=SEED,
                            mu0=mu0 or Mu0Source.test_cubic())


def _coverage_reports():
    """name -> report of the benchmark's coverage workload, in its order."""
    out = {}
    for key, prior in (("poly-a1", PriorSpec.polynomial(1.0)),
                       ("poly-a3", PriorSpec.polynomial(3.0)),
                       ("exp-a5", PriorSpec.exponential(5.0))):
        out[f"ball/{key}"] = run_ball_coverage(_config(prior, (1e4, 1e8)))
    for key, prior in (("poly-a1", PriorSpec.polynomial(1.0)),
                       ("exp-a1", PriorSpec.exponential(1.0))):
        cfg = _config(prior, (1e4,), Mu0Source.prior_draw())
        out[f"ball-prior/{key}"] = run_ball_coverage(cfg)
        out[f"interval-prior/{key}"] = run_interval_coverage(
            cfg, LinearFunctional.point_evaluation(0.5, 100))
    out["risk/exp-a1"] = run_risk_curve(
        _config(PriorSpec.exponential(1.0), (1e2, 1e4, 1e6, 1e8)))
    return out


def _coverage_rows():
    return {name: [[v.hex() if isinstance(v, float) else v for v in row]
                   for row in report.to_table()[1]]
            for name, report in _coverage_reports().items()}


def _file_digests(out_dir):
    """sha256 of every CSV and SVG of the figures and of the lemma suite."""
    assert main(["figures", "--fig", "all", "--seed", str(SEED),
                 "--out", os.path.join(out_dir, "figs")]) == EXIT_OK
    assert main(["lemmas", "--out",
                 os.path.join(out_dir, "figs", "lemma_suite.csv")]) == EXIT_OK
    out = {}
    for name in sorted(os.listdir(os.path.join(out_dir, "figs"))):
        if name.endswith((".csv", ".svg")):
            with open(os.path.join(out_dir, "figs", name), "rb") as fh:
                out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


@pytest.fixture(scope="module")
def pins():
    with open(PINS, encoding="utf-8") as fh:
        return json.load(fh)


def test_figure_and_lemma_files_are_pinned(tmp_path, capsys, pins):
    got = _file_digests(str(tmp_path))
    assert len(got) == 81  # 40 panels as CSV and SVG, and the lemma suite
    assert got == pins["files"]


def test_coverage_rows_are_pinned(pins):
    got = _coverage_rows()
    assert sorted(got) == sorted(pins["coverage"])
    for name, rows in got.items():
        assert rows == pins["coverage"][name], name


if __name__ == "__main__":
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        record = {"files": _file_digests(tmp), "coverage": _coverage_rows()}
    with open(PINS, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    sys.exit(0)
