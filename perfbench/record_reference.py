"""Record data/reference.json: the outputs of each workload's reference pass.

    python3 perfbench/record_reference.py

The benchmark compares the first pass of every run with this file: loss
curves within float32 tolerance, evaluation metrics exactly. Record it again
only when a change is meant to alter results, and say so in the change.
"""

import machine  # noqa: F401  (pins BLAS threads before numpy loads)

import json
import sys

import desk
import workloads as wl


def main():
    ref = wl.record_reference(wl.Plan(spec=desk.read_spec()))
    path = wl.DATA_DIR / "reference.json"
    path.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
