"""CSV emission with reproducibility guarantees.

Every output file starts with ``#``-prefixed comment lines echoing the
effective experiment configuration, then a header row, then data rows.
Numbers are written in the shortest decimal form that round-trips to the
same float, infinities as the literal ``inf``, so a rerun with the same
config produces a byte-identical file.  Writes go through a temporary
file in the target directory, created if missing, followed by an atomic
rename; an output location that cannot be created, written or replaced
is a ConfigError, and no temporary file is left behind.
"""

from __future__ import annotations

import math
import os
import tempfile

import numpy as np

from ..errors import ConfigError


def format_value(v) -> str:
    """Canonical text form: ints plain, floats shortest round-trip."""
    if isinstance(v, (bool, np.bool_)):
        return "1" if v else "0"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    f = float(v)
    if math.isinf(f):
        return "inf" if f > 0 else "-inf"
    # repr of a builtin float is the shortest digit string that parses
    # back to the same value; numpy scalars must be unwrapped first.
    return repr(f)


def write_csv(path, comment_lines, columns, rows, trailing_comments=()) -> None:
    """Write comment lines, then the header and rows; atomic via rename.

    ``rows`` is an iterable of sequences matching ``columns``.  Comment
    lines are written with a leading ``"# "``; pass them without the
    marker.
    """
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    try:
        os.makedirs(directory, exist_ok=True)
        fd, tmp_path = tempfile.mkstemp(dir=directory, prefix=".csv-", text=True)
    except OSError as exc:
        raise ConfigError(f"cannot write output {path}: {exc}") from None
    # The runners compute their rows before this call, so an OSError from
    # here on is the write, the close or the rename failing.
    try:
        with os.fdopen(fd, "w", newline="\n") as fh:
            for line in comment_lines:
                fh.write(f"# {line}\n")
            fh.write(",".join(columns) + "\n")
            for row in rows:
                fh.write(",".join(format_value(v) for v in row) + "\n")
            for line in trailing_comments:
                fh.write(f"# {line}\n")
        os.replace(tmp_path, path)
    except BaseException as exc:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        if isinstance(exc, OSError):
            raise ConfigError(f"cannot write output {path}: {exc}") from None
        raise
