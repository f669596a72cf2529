"""Filesystem-bridge adapter over an unlocked vault."""

import pytest

from sealvault import modes, vault
from sealvault.errors import NotFound
from sealvault.fsbridge import VaultFilesystem


@pytest.fixture
def fs(make_vault):
    return VaultFilesystem(make_vault(modes.ModeId.V1))


def test_open_write_then_read(fs):
    with fs.open("notes/today.txt", "wb") as f:
        f.write(b"line one\n")
        f.write(b"line two\n")
    with fs.open("notes/today.txt", "rb") as f:
        assert f.read() == b"line one\nline two\n"


def test_failed_write_keeps_old_version(fs):
    fs.handle.write_file("doc.txt", b"old complete version")
    with pytest.raises(RuntimeError):
        with fs.open("doc.txt", "wb") as f:
            f.write(b"half of the new")
            raise RuntimeError("the writer failed")
    assert fs.handle.read_file("doc.txt") == b"old complete version"
    shard = fs.handle.map_path("doc.txt").parent
    assert not [p.name for p in shard.iterdir() if p.name.startswith(vault.TEMP_PREFIX)]
    with fs.open("doc.txt", "wb") as f:
        f.write(b"the new version")
    assert fs.handle.read_file("doc.txt") == b"the new version"


def test_partial_reads(fs):
    with fs.open("blob", "wb") as f:
        f.write(bytes(range(256)) * 200)
    assert fs.read("blob", offset=100, length=16) == (bytes(range(256)) * 200)[100:116]
    assert fs.read("blob", offset=51100) == (bytes(range(256)) * 200)[51100:]


def test_listdir_and_getsize(fs):
    with fs.open("d/a", "wb") as f:
        f.write(b"12345")
    fs.makedirs("d/sub")
    assert sorted(fs.listdir("d")) == ["a", "sub"]
    assert fs.getsize("d/a") == 5
    with pytest.raises(NotFound):
        fs.getsize("d/missing")


def test_remove_rename_exists(fs):
    with fs.open("x", "wb") as f:
        f.write(b"content")
    assert fs.exists("x")
    fs.rename("x", "y")
    assert not fs.exists("x") and fs.exists("y")
    fs.remove("y")
    assert not fs.exists("y")


def test_unsupported_mode(fs):
    with pytest.raises(ValueError):
        fs.open("x", "r+")


def test_getsize_decrypts_no_names(fs, monkeypatch):
    sizes = {"d/a": 5, "d/empty": 0, "d/block": 32768, "d/more": 32769}
    for path, size in sizes.items():
        fs.handle.write_file(path, bytes(size))
    fs.makedirs("d/sub")
    calls = []
    real = modes.decrypt_filename

    def counting(name_key, dir_id, encoded):
        calls.append(encoded)
        return real(name_key, dir_id, encoded)

    monkeypatch.setattr(modes, "decrypt_filename", counting)
    assert {path: fs.getsize(path) for path in sizes} == sizes
    assert calls == []


def test_getsize_not_found(fs):
    fs.makedirs("d/sub")
    fs.handle.map_path("d/bad").write_bytes(bytes(vault.FILE_HEADER_SIZE + 1))
    for path in ("/", "d", "d/sub", "d/missing", "nope/x", "d/bad"):
        with pytest.raises(NotFound):
            fs.getsize(path)
