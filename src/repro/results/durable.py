"""Durable file writes and the JSONL torn-tail reader.

Result stores (JSONL files, columnar shards and their sidecars) and the
service's job journal write every byte they must find intact after a
crash through these functions, so the recovery contract has one
implementation.  ``os.fsync`` is looked up per call, so tests can patch
it.
"""

from __future__ import annotations

import json
import os
from typing import Any, Callable, Iterable, List, Optional, Tuple, Union

from repro.errors import ReproError, ResultStoreError


def jsonl(values: Iterable[Any]) -> str:
    """The JSONL text of ``values``: one JSON document per line."""
    return "".join(json.dumps(value) + "\n" for value in values)


def append(path: str, data: Union[str, bytes], sync: bool = True) -> None:
    """Append ``data`` (str is UTF-8 encoded), flush and fsync it.

    ``sync=False`` skips the fsync, for bytes whose loss in a crash the
    reader already tolerates; the next synced append to the file makes
    them durable too.
    """
    if isinstance(data, str):
        data = data.encode("utf-8")
    with open(path, "ab") as stream:
        stream.write(data)
        stream.flush()
        if sync:
            os.fsync(stream.fileno())


def replace(path: str, data: Union[str, bytes]) -> None:
    """Make ``data`` the whole of ``path``: write ``<path>.tmp``, fsync
    it, then rename it over ``path`` (a crash leaves old or new)."""
    if isinstance(data, str):
        data = data.encode("utf-8")
    tmp_path = f"{path}.tmp"
    with open(tmp_path, "wb") as stream:
        stream.write(data)
        stream.flush()
        os.fsync(stream.fileno())
    os.replace(tmp_path, path)


def truncate(path: str, size: int) -> None:
    """Cut ``path`` to ``size`` bytes and fsync the cut."""
    with open(path, "r+b") as stream:
        stream.truncate(size)
        stream.flush()
        os.fsync(stream.fileno())


def read_jsonl(
    path: str, parse: Callable[[Any], Any], what: str
) -> Tuple[List[Any], Optional[int]]:
    """Parse each non-blank line of ``path`` with ``parse(json_value)``.

    A final line that is unterminated or fails to parse is a torn tail
    (a writer killed mid-append): it is dropped, and the byte length of
    the intact prefix before it is returned beside the parsed lines
    (None when nothing was torn).  A bad line anywhere earlier raises
    :class:`ResultStoreError` naming ``path:lineno`` and ``what`` the
    line holds, because skipping it would misreport what was written.
    """
    with open(path, "rb") as stream:
        raw = stream.read()
    lines = raw.split(b"\n")
    tail = lines.pop()  # the bytes after the last newline: b"" unless torn
    parsed: List[Any] = []
    offset = 0
    for lineno, line in enumerate(lines, start=1):
        if line.strip():
            try:
                parsed.append(parse(json.loads(line.decode("utf-8"))))
            except (ValueError, TypeError, ReproError) as error:
                if lineno == len(lines) and not tail:
                    return parsed, offset
                raise ResultStoreError(
                    f"{path}:{lineno}: corrupt {what}: {error}"
                ) from error
        offset += len(line) + 1
    return parsed, (offset if tail else None)
