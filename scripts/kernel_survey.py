#!/usr/bin/env python3
"""Run every condition checker over a list of kernel ids and dump JSON."""

import argparse
import json

from scalesq import condition_summary, kernel_from_id
from scalesq.cli import _json_safe

DEFAULT_IDS = [
    "haar",
    "gm:0.75",
    "gm:1",
    "gm:1.25",
    "poisson-q",
    "riesz-diff:0.5:ball",
    "sgn-diff:ball",
]


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--kernels", nargs="+", default=DEFAULT_IDS)
    ap.add_argument("--out", default=None)
    args = ap.parse_args()

    survey = {kid: _json_safe(condition_summary(kernel_from_id(kid))) for kid in args.kernels}
    text = json.dumps(survey, indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
        print(f"wrote {args.out}")
    else:
        print(text)


if __name__ == "__main__":
    main()
