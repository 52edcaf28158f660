"""Atomic file output: every file the package writes is complete or absent.

A module of its own, because ``measures`` and ``cli`` both write through
it, and ``fractrans sample`` writes its output without loading
``measures``.
"""

from __future__ import annotations

import os
import tempfile


def atomic_write(path: str, writer):
    """Write via a temp file in the same directory, then rename.

    ``mkstemp`` creates the temp file with mode 0600 and the rename keeps
    it, so the file is given the mode a plain ``open()`` would create it
    with: 0666 minus the umask.
    """
    directory = os.path.dirname(os.path.abspath(path))
    umask = os.umask(0)
    os.umask(umask)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="") as handle:
            os.chmod(tmp, 0o666 & ~umask)
            writer(handle)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
