"""CSV input and output shared by the data readers and writers.

Readers skip blank lines and ``#`` comment lines and check the header;
writers go through a temp file in the target directory and a rename, so
a failed write leaves the target as it was.
"""

from __future__ import annotations

import contextlib
import csv
import os
import secrets


def read_rows(path, header, error):
    """Yield ``(lineno, row)`` for the data rows of a CSV file.

    The first non-comment row must equal ``header`` (cells stripped);
    otherwise ``error`` is raised with the line number.
    """
    with open(path, newline="") as fh:
        seen_header = False
        for lineno, row in enumerate(csv.reader(fh), start=1):
            if not row or row[0].lstrip().startswith("#"):
                continue
            if not seen_header:
                if [c.strip() for c in row] != list(header):
                    raise error(f"{path}: line {lineno}: expected header {','.join(header)}")
                seen_header = True
                continue
            yield lineno, row


@contextlib.contextmanager
def atomic_writer(path):
    """Open ``path`` for CSV writing via a temp file and ``os.replace``.

    Missing parent directories are created.  If the block raises, the
    temp file is removed and ``path`` is left untouched.
    """
    path = os.fspath(path)
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    tmp = os.path.join(directory, f"{os.path.basename(path)}.{secrets.token_hex(8)}.tmp")
    fh = open(tmp, "x", newline="")
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
