"""Check a descentlab CSV against a committed reference.

A CSV is ``#`` comment lines echoing the effective config, a header row and
data rows.  Numbers are compared cell by cell: non-finite values (``inf``,
``-inf``, ``nan``) must match as text, finite values must agree within a
per-column relative tolerance with an absolute floor.  The floor matters
where a column is numerically zero: ``train_mse`` past the interpolation
threshold is about 1e-25 and its digits change with the BLAS thread count.
"""

from __future__ import annotations

import hashlib
import math


def sha256(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def read_csv(path) -> tuple[list[str], list[str], list[list[str]]]:
    """(comment lines without the ``# `` marker, header, rows of cells)."""
    comments, header, rows = [], None, []
    with open(path) as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("#"):
                comments.append(line[1:].strip())
            elif header is None:
                header = line.split(",")
            elif line:
                rows.append(line.split(","))
    return comments, header or [], rows


def config_seed(comments: list[str]) -> int:
    """The seed a CSV's comment lines echo."""
    for line in comments:
        key, _, value = line.partition("=")
        if key.strip() == "seed":
            return int(value)
    raise ValueError("no 'seed = ...' comment line")


def _close(got: str, want: str, rtol: float, atol: float) -> bool:
    try:
        a, b = float(got), float(want)
    except ValueError:
        return got == want
    if not (math.isfinite(a) and math.isfinite(b)):
        return got == want
    return abs(a - b) <= max(rtol * abs(b), atol)


def compare(path, reference, seed: int, tolerance: dict, default_tol, columns=None) -> list[str]:
    """Mismatches of the CSV at ``path`` against ``reference``, as messages.

    ``seed`` is the seed the run was given; the reference's seed comment
    is replaced by it before the comment lines are compared.  ``columns``
    restricts the value comparison to those columns (the ones that do not
    depend on the seed); None compares every column.  ``tolerance`` maps a
    column to ``(rtol, atol)``; other columns use ``default_tol``.
    """
    got_comments, got_header, got_rows = read_csv(path)
    ref_comments, ref_header, ref_rows = read_csv(reference)
    want_comments = [
        f"seed = {seed}" if line.partition("=")[0].strip() == "seed" else line
        for line in ref_comments
    ]
    problems = []
    if got_comments != want_comments:
        problems.append("comment lines differ from the reference")
    if got_header != ref_header:
        return problems + [f"header {got_header} != reference {ref_header}"]
    if len(got_rows) != len(ref_rows):
        return problems + [f"{len(got_rows)} rows, reference has {len(ref_rows)}"]
    for j, name in enumerate(ref_header):
        if columns is not None and name not in columns:
            continue
        rtol, atol = tolerance.get(name, default_tol)
        for i, (got, want) in enumerate(zip(got_rows, ref_rows)):
            if len(got) != len(ref_header) or not _close(got[j], want[j], rtol, atol):
                problems.append(f"row {i} column {name}: {got[j] if j < len(got) else None} != {want[j]}")
    return problems
