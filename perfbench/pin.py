"""
Regenerate ``expected.json``: the reference outputs the checker compares
against (pump cycles and on-steps of ``daylight`` and of ``clouds`` for
seeds 0-99, and the status of every validation-registry row).

Run it only at a commit whose outputs are the reference:

    python3 perfbench/pin.py
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads                                   # noqa: E402
from sunpump import validation                     # noqa: E402
from sunpump.config import parse_config            # noqa: E402
from sunpump.scenario import run_scenario          # noqa: E402

CLOUD_SEEDS = range(100)


def pump_counts(config):
    _, summary = run_scenario(parse_config(config))
    return {"pump1_cycles": summary.pump1_cycles,
            "pump2_cycles": summary.pump2_cycles,
            "pump1_on_steps": summary.pump1_on_steps,
            "pump2_on_steps": summary.pump2_on_steps}


def main():
    work = os.path.join(ROOT, ".perfbench", "pin")
    os.makedirs(work, exist_ok=True)
    expected = {
        "daylight": pump_counts(
            workloads.prepare("daylight", 0, work)["config"]),
        "clouds": {},
        "registry": {r.id: r.status for r in validation.build_report()},
    }
    for seed in CLOUD_SEEDS:
        spec = workloads.prepare("clouds", seed, work)
        expected["clouds"][str(seed)] = pump_counts(spec["config"])
        print(f"clouds seed {seed}: {expected['clouds'][str(seed)]}",
              flush=True)
    with open(os.path.join(HERE, "expected.json"), "w",
              encoding="utf-8") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
