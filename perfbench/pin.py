"""Rewrite ``pins.json``: exit code, stdout sha256 and instances_checked
of every command on the default seed.

Usage (from the repository root)::

    python3 perfbench/pin.py

Run it only when ordlab's output is meant to change; every command must
first pass its seed-independent checks.
"""

from __future__ import annotations

import json
import os
import sys

import run
from workloads import WORKLOADS


def main() -> int:
    os.makedirs(run.WORK, exist_ok=True)
    env = run.child_env()
    pins = {}
    for workload in WORKLOADS:
        pins[workload] = {}
        for out in run.run_rep(workload, run.DEFAULT_SEED, False, env).outcomes:
            errors = run.verify(out, None)
            if errors:
                sys.stderr.write(f"pin: {workload} [{out.command.name}] fails its checks: {'; '.join(errors)}\n")
                return 1
            doc = json.loads(out.stdout) if out.command.expect_exit == 0 else None
            pins[workload][out.command.name] = {
                "exit": out.exit_code,
                "sha256": out.digest,
                "instances_checked": doc.get("instances_checked") if isinstance(doc, dict) else None,
            }
    with open(run.PINS, "w", encoding="utf-8") as fh:
        json.dump({"seed": run.DEFAULT_SEED, "workloads": pins}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
