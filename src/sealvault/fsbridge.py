"""Filesystem-bridge adapter: the seam where an OS mount would attach.

The full read path runs through a mount layer at both ends (request in,
decrypted bytes out); this adapter exposes that surface as plain library
calls so the container is testable everywhere. An actual FUSE mount is an
optional integration that would wrap exactly this interface.
"""

from __future__ import annotations

import io
import stat

from .errors import NotFound
from .vault import VaultHandle, invert_object_size


class _WriteStream(io.BytesIO):
    """Buffers writes and stores them into the vault on close."""

    def __init__(self, bridge: "VaultFilesystem", path: str):
        super().__init__()
        self._bridge = bridge
        self._path = path

    def close(self) -> None:
        if not self.closed:
            self._bridge.handle.write_file(self._path, self.getvalue())
        super().close()


class VaultFilesystem:
    """File-like operations over an unlocked vault handle."""

    def __init__(self, handle: VaultHandle):
        self.handle = handle

    def open(self, path: str, mode: str = "rb") -> io.BytesIO:
        if mode == "rb":
            stream = io.BytesIO()
            self.handle.read_to(path, stream)
            stream.seek(0)
            return stream
        if mode == "wb":
            return _WriteStream(self, path)
        raise ValueError(f"unsupported mode {mode!r} (use 'rb' or 'wb')")

    def read(self, path: str, offset: int = 0, length: int | None = None) -> bytes:
        if length is None:
            stream = io.BytesIO()
            self.handle.read_to(path, stream, offset)
            return stream.getvalue()
        return self.handle.read_range(path, offset, length)

    def listdir(self, path: str = "/") -> list[str]:
        return [e.name for e in self.handle.list_dir(path) if e.kind != "unreadable"]

    def exists(self, path: str) -> bool:
        return self.handle.exists(path)

    def getsize(self, path: str) -> int:
        """Cleartext size from the object's stat and the size law alone."""
        try:
            st = self.handle.map_path(path).stat()
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
