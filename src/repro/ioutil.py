"""Crash-safe file writes shared across the library.

Artifacts that downstream tooling parses (JSONL timelines, checkpoint
metadata, persisted caches, campaign reports) must never be observable
half-written: a reader racing a writer, or a writer killed mid-write,
must see either the complete previous content or the complete new
content.  POSIX gives exactly that for a write-to-temp-then-
``os.replace`` sequence on the same filesystem, which is what
:func:`atomic_write_text` implements.

The temp file lives next to the target (same directory, hence same
filesystem) and carries a leading dot plus a ``.tmp-`` prefix so no
artifact glob (``*.jsonl``, ``*.md``, ``ckpt-*.npz``) ever matches a
partial file.
"""

from __future__ import annotations

import json
import os
import pathlib
import tempfile
import typing as t


def atomic_write_text(path: str | pathlib.Path, text: str,
                      encoding: str = "utf-8") -> pathlib.Path:
    """Write ``text`` to ``path`` atomically; returns the path.

    The content is flushed and fsynced to a sibling temp file first and
    then moved over the target with :func:`os.replace`, so a crash at
    any instant leaves either the old file or the new file — never a
    truncated mix.  Parent directories are created as needed.
    """
    target = pathlib.Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(
        prefix=f".tmp-{target.name}-", dir=target.parent)
    tmp = pathlib.Path(tmp_name)
    try:
        with os.fdopen(fd, "w", encoding=encoding) as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, target)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return target


def atomic_write_jsonl(path: str | pathlib.Path,
                       records: t.Iterable[object]) -> pathlib.Path:
    """Atomically write one JSON document per line.

    Dict records are serialized with sorted keys so repeated runs of a
    deterministic producer yield byte-identical artifacts; pre-encoded
    strings pass through untouched.
    """
    lines = [record if isinstance(record, str)
             else json.dumps(record, sort_keys=True)
             for record in records]
    return atomic_write_text(path, "\n".join(lines) + ("\n" if lines else ""))
