#!/usr/bin/env python3
"""Report whether the MNIST IDX files are where the loader will look.

Lists the directory being searched and which of the four files were
found under either accepted spelling, with basic shape checks for the
ones present.  Exit status 0 when the dataset is usable, 1 otherwise.
"""

from __future__ import annotations

import os
import sys

from descentlab.harness.datasets import (
    DATA_DIR_ENV,
    MNIST_FILES,
    data_dir,
    load_idx,
    mnist_available,
)


def main() -> int:
    directory = data_dir()
    source = f"${DATA_DIR_ENV}" if DATA_DIR_ENV in os.environ else "default"
    print(f"data directory: {directory}  ({source})")

    all_found = True
    for key, names in MNIST_FILES.items():
        role = key.replace("_", " ")
        found = None
        for name in names:
            path = os.path.join(directory, name)
            if os.path.isfile(path):
                found = path
                break
        if found is None:
            print(f"  {role:13s}: MISSING (looked for {' or '.join(names)})")
            all_found = False
            continue
        try:
            arr = load_idx(found)
        except Exception as exc:
            print(f"  {role:13s}: {found} UNREADABLE ({exc})")
            all_found = False
            continue
        if arr.ndim == 3:
            detail = f"{arr.shape[0]} images of {arr.shape[1]}x{arr.shape[2]}"
        else:
            detail = f"{arr.shape[0]} labels, classes {sorted(set(arr.tolist()))}"
        print(f"  {role:13s}: {os.path.basename(found)}  ({detail})")

    print("usable" if mnist_available() else "not usable; rff-sweep with dataset = mnist will fail")
    return 0 if all_found and mnist_available() else 1


if __name__ == "__main__":
    sys.exit(main())
