#!/usr/bin/env python3
"""Write a small deterministic float checkpoint for experiments and tests."""

import argparse
import json
import os
import sys
from dataclasses import asdict

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from quantloop.runtime import TOY_CONFIG, make_toy_checkpoint, param_count


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("output", help="where to write the .ditf file")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    make_toy_checkpoint(args.output, seed=args.seed)
    print(json.dumps({
        "output": args.output,
        "seed": args.seed,
        "bytes": os.path.getsize(args.output),
        "parameters": param_count(TOY_CONFIG),
        "config": asdict(TOY_CONFIG),
    }, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
