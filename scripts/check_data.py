#!/usr/bin/env python3
"""Report whether the MNIST IDX files are where the loader will look.

Lists the directory being searched and which of the four files were
found under either accepted spelling, with basic shape checks for the
ones present, then applies the loader's own check that each set holds
images and as many digit labels.  Exit status 0 when the dataset is
usable, 1 otherwise.
"""

from __future__ import annotations

import os
import sys

from descentlab.errors import FormatError
from descentlab.harness.datasets import (
    DATA_DIR_ENV,
    MNIST_FILES,
    _check_mnist,
    _find_mnist,
    data_dir,
    load_idx,
)


def main() -> int:
    directory = data_dir()
    source = f"${DATA_DIR_ENV}" if DATA_DIR_ENV in os.environ else "default"
    print(f"data directory: {directory}  ({source})")

    usable = True
    data = {}
    for key, found in _find_mnist(directory).items():
        role = key.replace("_", " ")
        if found is None:
            print(f"  {role:13s}: MISSING (looked for {' or '.join(MNIST_FILES[key])})")
            usable = False
            continue
        try:
            arr = load_idx(found)
        except FormatError as exc:
            print(f"  {role:13s}: {found} UNREADABLE ({exc})")
            usable = False
            continue
        if arr.ndim == 3:
            detail = f"{arr.shape[0]} images of {arr.shape[1]}x{arr.shape[2]}"
        else:
            detail = f"{arr.shape[0]} labels, classes {sorted(set(arr.tolist()))}"
        print(f"  {role:13s}: {os.path.basename(found)}  ({detail})")
        data[key] = arr

    if usable:
        try:
            _check_mnist(data)
        except FormatError as exc:
            print(f"  {exc}")
            usable = False

    print("usable" if usable else "not usable; rff-sweep with dataset = mnist will fail")
    return 0 if usable else 1


if __name__ == "__main__":
    sys.exit(main())
