"""Determinism guard for the optimizer: a pinned search cell.

The whole search — population generation, CRN seeds, racing, pruning,
promotion — must be bit-reproducible, because the policy table is a
content-addressed artifact.  This guard runs one tiny search cell over a corpus-generated
site and compares the **entire table JSON** (policies, fingerprints,
measured deltas, sha) against a checked-in golden record.

If this fails after an intentional change (new seed derivation, new
mutation move, scoring change), regenerate::

    PYTHONPATH=src python tests/optimizer/test_golden_optimizer.py --regenerate

and say so in the PR — regeneration invalidates every published policy
table.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.experiments.engine import ExperimentEngine
from repro.optimizer import OptimizeConfig, run_optimize
from repro.sites.corpus import TOP_100_PROFILE, generate_corpus

GOLDEN_PATH = Path(__file__).parent / "golden_optimizer_cell.json"


def _evaluate() -> dict:
    spec = generate_corpus(TOP_100_PROFILE, 1, seed=7)[0].spec
    config = OptimizeConfig(
        sites=None,
        conditions=("lossy_dsl",),
        rungs=(2, 3),
        population=4,
        neighbors_per_anchor=1,
        restarts=2,
    )
    result = run_optimize(
        config, engine=ExperimentEngine(cache=None), specs=[spec]
    )
    payload = result.to_json()
    # Wall-clock-free subset only: the full table plus the gap rows.
    return {"table": payload["table"], "oracle_gap": payload["oracle_gap"]}


def test_optimizer_cell_matches_golden_record():
    assert GOLDEN_PATH.exists(), (
        "optimizer golden record missing; generate it with "
        "`python tests/optimizer/test_golden_optimizer.py --regenerate`"
    )
    golden = json.loads(GOLDEN_PATH.read_text())
    actual = _evaluate()
    assert actual["table"]["table_sha"] == golden["table"]["table_sha"], (
        "policy-table sha drifted — the search is no longer "
        "bit-reproducible (seeds, population, scoring, or promotion "
        "changed); regenerate only if the change is intentional"
    )
    assert actual == golden


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser()
    parser.add_argument("--regenerate", action="store_true")
    if parser.parse_args().regenerate:
        GOLDEN_PATH.write_text(
            json.dumps(_evaluate(), indent=2, sort_keys=True) + "\n"
        )
        print(f"wrote {GOLDEN_PATH}")
