"""Find and edit the text header of a saved checkpoint or cache, keeping its payload."""

from __future__ import annotations

from typing import Callable


def payload_start(data: bytes) -> int:
    """The offset of the first payload byte of a saved file's ``data``."""
    return data.index(b"\n", data.index(b"\npayload ") + 1) + 1


def edit_header(path, edit: Callable[[list[str]], list[str]]) -> list[str]:
    """Rewrite the header lines of the file at ``path`` as ``edit`` returns
    them, given the lines as read (without their ``"\\n"``, the ``payload``
    line last). The payload bytes after the header are kept as they are.
    Returns the lines as read."""
    data = path.read_bytes()
    end = payload_start(data)
    lines = data[:end].decode("ascii").split("\n")[:-1]
    path.write_bytes(("\n".join(edit(list(lines))) + "\n").encode("utf-8") + data[end:])
    return lines
