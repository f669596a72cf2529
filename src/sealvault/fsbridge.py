"""Filesystem-bridge adapter: the seam where an OS mount would attach.

The full read path runs through a mount layer at both ends (request in,
decrypted bytes out); this adapter exposes that surface as plain library
calls so the container is testable everywhere. An actual FUSE mount is an
optional integration that would wrap exactly this interface. `open` hands
out the vault's own streaming file objects, so no call here holds a whole
file in memory except `read` of a whole file, which returns it.
"""

from __future__ import annotations

import os
import stat

from .errors import NotFound
from .vault import FileReader, FileWriter, VaultHandle, invert_object_size


class VaultFilesystem:
    """File-like operations over an unlocked vault handle."""

    def __init__(self, handle: VaultHandle):
        self.handle = handle

    def open(self, path: str, mode: str = "rb") -> FileReader | FileWriter:
        """A seekable FileReader ("rb"), or a FileWriter ("wb") that replaces
        the file on close and stores nothing if its `with` body raises."""
        return self.handle.open(path, mode)

    def read(self, path: str, offset: int = 0, length: int | None = None) -> bytes:
        if length is None:
            with self.handle.open(path) as f:
                f.seek(offset)
                return f.readall()
        return self.handle.read_range(path, offset, length)

    def listdir(self, path: str = "/") -> list[str]:
        return [e.name for e in self.handle.list_dir(path) if e.kind != "unreadable"]

    def exists(self, path: str) -> bool:
        return self.handle.exists(path)

    def getsize(self, path: str) -> int:
        """Cleartext size from the object's stat and the size law alone."""
        try:
            st = os.stat(self.handle._physical(path))
            if stat.S_ISREG(st.st_mode):
                return invert_object_size(st.st_size, self.handle.mode.block_overhead)
        except (OSError, ValueError):
            pass
        raise NotFound(f"no such file: {path!r}")

    def makedirs(self, path: str) -> None:
        self.handle.make_dir(path)

    def remove(self, path: str) -> None:
        self.handle.remove_file(path)

    def rename(self, src: str, dst: str) -> None:
        self.handle.rename_file(src, dst)
