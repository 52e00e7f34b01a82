"""Regenerate golden.json: SHA-256 of every artifact the `flows` workload
writes in its first rounds at the default seed.

    python3 perfbench/golden.py

The `flows` workload compares its artifacts against this file at the default
seed, so a change that alters any artifact byte shows as failed operations.
Regenerate only with a deliberate format change (a FORMATS.md version bump).
"""
from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import workloads
    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="golden-", dir=out))
    try:
        flows = workloads.Flows(workloads.DEFAULT_SEED, workdir)
        rounds = flows.artifact_digests(workloads.Flows.GOLDEN_ROUNDS)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    text = json.dumps({"seed": workloads.DEFAULT_SEED, "rounds": rounds}, indent=1)
    workloads.GOLDEN_PATH.write_text(text + "\n")
    print(f"wrote {workloads.GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
