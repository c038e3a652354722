"""Regenerate reference/lemma_suite.json from the library in ../src.

    python3 bench/make_reference.py

The lemma suite is deterministic and takes no seed, so its table is the one
output the benchmark compares with a stored reference.  Regenerate only when
a change is meant to move these numbers, and say so in CHANGES.md.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from heatbayes.asymptotics import standard_lemma_suite  # noqa: E402

columns, rows = standard_lemma_suite().to_table()
with open(os.path.join(HERE, "reference", "lemma_suite.json"), "w",
          encoding="utf-8") as fh:
    json.dump({"columns": list(columns),
               "rows": [[v if isinstance(v, str) else float(v) for v in row]
                        for row in rows]}, fh, indent=1)
    fh.write("\n")
