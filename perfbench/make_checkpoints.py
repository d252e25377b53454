"""Train the two checkpoints the benchmark loads and store them in data/.

    python3 perfbench/make_checkpoints.py

`base.ckpt` is the desk base agent (flat schedule, no imaginations, the
spec's base_iterations); `imagine.ckpt` is the cosine three-stage finetune
from it (the spec's iterations). Both use the spec's first seed. They are
inputs of the benchmark, not outputs of the code under test, so a later
change to training cannot move the finetune or evaluation workloads' inputs.
On a 2-core x86-64 box this takes about 7 minutes.
"""

import argparse
import sys
from pathlib import Path

import machine  # noqa: F401  (pins BLAS threads before numpy loads)
import desk
from imnav import training as tr

DATA = Path(__file__).resolve().parent / "data"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=DATA)
    args = parser.parse_args(argv)
    spec = desk.read_spec()
    splits = desk.build_splits(spec)
    acfg = desk.agent_config(spec, splits)
    seed = spec["seeds"][0]
    t = spec["train"]
    base, _ = tr.train(splits["train"], acfg, desk.base_config(spec, seed, t["base_iterations"]))
    imagine, _ = tr.train(splits["train"], acfg,
                          desk.finetune_config(spec, seed, t["iterations"], "cosine"),
                          init_values=base.values)
    args.out.mkdir(parents=True, exist_ok=True)
    tr.save_checkpoint(desk.portable(base), args.out / "base.ckpt")
    tr.save_checkpoint(desk.portable(imagine), args.out / "imagine.ckpt")
    print(f"wrote {args.out / 'base.ckpt'} and {args.out / 'imagine.ckpt'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
