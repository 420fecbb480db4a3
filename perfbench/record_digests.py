"""Re-record ``perfbench/digests.json`` from the current source tree.

Run from the repository root, only when a change alters artifacts on
purpose (and says why)::

    PYTHONPATH=src python3 -m perfbench.record_digests

It runs every registry cell the workloads use through a cold campaign
into a temporary directory and stores the sha256 of each artifact JSON,
plus the predictor's :meth:`PredictionModel.digest`.
"""

from __future__ import annotations

import json
import os
import tempfile

from perfbench.workloads import DIGESTS_PATH, REGISTRY_WORKLOADS, sha256_file


def main() -> None:
    from repro import api
    from repro.experiments.campaign import run_campaign

    ids = [cid for sel in REGISTRY_WORKLOADS.values() for cid in sel]
    digests: dict[str, str] = {}
    with tempfile.TemporaryDirectory() as tmp:
        result = run_campaign(ids, jobs=1, cache=False, results_dir=tmp,
                              write_manifest=False)
        if not result.ok:
            raise SystemExit(f"cells failed: {', '.join(result.failed)}")
        for cid in ids:
            digests[cid] = sha256_file(os.path.join(tmp, f"{cid}.json"))
    digests["predictor"] = api.calibrate_predictor(cache_dir=None).digest()
    with open(DIGESTS_PATH, "w") as fh:
        json.dump(digests, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(digests)} digests to {DIGESTS_PATH}")


if __name__ == "__main__":
    main()
