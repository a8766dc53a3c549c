#!/usr/bin/env python3
"""Generate the synthetic LLTN datasets the experiment configs expect.

Writes <out>/fourclass_{images,labels}.lltn (8x8 four-quadrant images) and
<out>/blobs_{images,labels}.lltn (two separable 2-D blobs).
"""

import argparse
from pathlib import Path

from layerlens import data as D


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="data", help="output directory")
    ap.add_argument("--n", type=int, default=256, help="samples per dataset")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--channels", type=int, default=1, choices=(1, 3))
    args = ap.parse_args(argv)

    out = Path(args.out)
    images, labels = D.make_fourclass_images(n=args.n, shape=(args.channels, 8, 8), seed=args.seed)
    ip, lp = D.save_lltn_pair(out / "fourclass", images, labels)
    print(f"wrote {ip} {tuple(images.shape)} and {lp}")

    bx, by = D.make_blobs(n=args.n, seed=args.seed)
    ip, lp = D.save_lltn_pair(out / "blobs", bx, by)
    print(f"wrote {ip} {tuple(bx.shape)} and {lp}")


if __name__ == "__main__":
    main()
