"""Small shared helpers: deterministic CSV formatting and atomic writes."""

from __future__ import annotations

import os
import tempfile

import numpy as np


def fmt(x) -> str:
    """Shortest round-trippable decimal for a float."""
    return repr(float(x))


def csv_text(header, rows) -> str:
    """CSV text: the header names, then one line per row. Float cells go
    through ``fmt``, every other cell through ``str``; the cells of an
    ndarray are its ``tolist()`` Python scalars, whose ``repr`` is the
    same text."""
    lines = [",".join(header)]
    if isinstance(rows, np.ndarray):
        lines += [",".join(map(repr, row)) for row in rows.tolist()]
    else:
        lines += [",".join(fmt(c) if isinstance(c, float) else str(c)
                           for c in row) for row in rows]
    return "\n".join(lines) + "\n"


def atomic_write_text(path, text: str) -> None:
    """Write ``text`` to ``path`` via a temp file in the same directory.

    Rename-over keeps readers from ever seeing a half-written artifact.
    """
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
