"""CLI surface: commands, exit codes, secret hygiene."""

import fcntl
import hashlib
import os

import pytest

from sealvault import cli

PASSWORD = "cli test password"


def _file_object(root):
    """The one file object stored in a vault under `root`."""
    (obj,) = [p for p in (root / "d").rglob("*.sc") if p.is_file()]
    return obj


@pytest.fixture
def env(tmp_path, monkeypatch):
    """Password file + platform seed file wired through the environment."""
    pw_file = tmp_path / "pw.txt"
    pw_file.write_text(PASSWORD)
    seed_file = tmp_path / "seed.hex"
    seed_file.write_text("ab" * 32)
    monkeypatch.setenv(cli.PASSWORD_FILE_ENV, str(pw_file))
    monkeypatch.setenv(cli.PLATFORM_SEED_ENV, str(seed_file))
    return tmp_path


def _init(env, name="vault", mode="v1", extra=()):
    return cli.main([
        "init", "--mode", mode, "--vault", str(env / name),
        "--iterations", "500", *extra,
    ])


class TestInit:
    def test_init_then_empty_ls(self, env, capsys):
        assert _init(env) == 0
        assert cli.main(["ls", "--vault", str(env / "vault")]) == 0
        out = capsys.readouterr().out
        assert "initialized" in out
        # listing is empty: no entry lines after the init message
        assert out.strip().splitlines()[-1].startswith("initialized")

    def test_reinit_nonempty_is_exit_2(self, env):
        assert _init(env) == 0
        assert _init(env) == 2

    def test_sealed_without_seed_is_exit_3(self, env, monkeypatch):
        monkeypatch.delenv(cli.PLATFORM_SEED_ENV)
        assert _init(env, name="sv", mode="sealed") == 3

    def test_sealed_init_and_use(self, env):
        assert _init(env, name="sv", mode="sealed") == 0
        src = env / "plain.bin"
        src.write_bytes(os.urandom(5000))
        assert cli.main(["put", str(src), "doc", "--vault", str(env / "sv")]) == 0
        assert cli.main(["get", "doc", str(env / "back.bin"), "--vault", str(env / "sv")]) == 0
        assert (env / "back.bin").read_bytes() == src.read_bytes()

    def test_malformed_seed_file_is_exit_2(self, env):
        bad = env / "bad-seed"
        bad.write_text("not a platform seed")
        extra = ("--platform-seed-file", str(bad))
        assert _init(env, name="sv", mode="sealed", extra=extra) == 2
        assert not (env / "sv").exists()

    def test_sealed_wrong_platform_is_exit_3(self, env, monkeypatch):
        assert _init(env, name="sv", mode="sealed") == 0
        other_seed = env / "other-seed.hex"
        other_seed.write_text("cd" * 32)
        monkeypatch.setenv(cli.PLATFORM_SEED_ENV, str(other_seed))
        assert cli.main(["ls", "--vault", str(env / "sv")]) == 3


class TestFileCommands:
    def test_put_get_roundtrip_digests(self, env):
        _init(env)
        src = env / "src.bin"
        src.write_bytes(os.urandom(123_456))
        vaultdir = str(env / "vault")
        assert cli.main(["put", str(src), "a/b/c.bin", "--vault", vaultdir]) == 0
        assert cli.main(["get", "a/b/c.bin", str(env / "dst.bin"), "--vault", vaultdir]) == 0
        assert (
            hashlib.sha256(src.read_bytes()).digest()
            == hashlib.sha256((env / "dst.bin").read_bytes()).digest()
        )

    def test_get_missing_is_exit_4(self, env):
        _init(env)
        assert cli.main(["get", "nope", str(env / "x"), "--vault", str(env / "vault")]) == 4

    def test_failed_get_leaves_destination_untouched(self, env):
        _init(env)
        vaultdir = str(env / "vault")
        assert cli.main(["get", "nope", str(env / "new" / "x"), "--vault", vaultdir]) == 4
        assert not (env / "new").exists()
        src = env / "src.bin"
        src.write_bytes(b"v")
        assert cli.main(["put", str(src), "f.bin", "--vault", vaultdir]) == 0
        raw = _file_object(env / "vault")
        raw.write_bytes(raw.read_bytes()[:-1] + bytes([raw.read_bytes()[-1] ^ 1]))
        (env / "keep.bin").write_bytes(b"previous")
        assert cli.main(["get", "f.bin", str(env / "keep.bin"), "--vault", vaultdir]) == 3
        assert (env / "keep.bin").read_bytes() == b"previous"
        assert [p.name for p in env.iterdir() if p.name.startswith(".sealvault-get-")] == []

    def test_failed_get_leaves_no_temp_file(self, env):
        _init(env)
        vaultdir = str(env / "vault")
        src = env / "src.bin"
        src.write_bytes(os.urandom(70_000))
        assert cli.main(["put", str(src), "f.bin", "--vault", vaultdir]) == 0
        raw = _file_object(env / "vault")
        data = bytearray(raw.read_bytes())
        data[-1] ^= 1  # the header checks out, so the copy starts before it fails
        raw.write_bytes(bytes(data))
        (env / "out").mkdir()
        assert cli.main(["get", "f.bin", str(env / "out" / "f.bin"), "--vault", vaultdir]) == 3
        assert list((env / "out").iterdir()) == []

    def test_get_under_regular_file_is_exit_1(self, env):
        _init(env)
        vaultdir = str(env / "vault")
        src = env / "src.bin"
        src.write_bytes(b"v")
        assert cli.main(["put", str(src), "f.bin", "--vault", vaultdir]) == 0
        (env / "plain").write_bytes(b"a regular file")
        assert cli.main(["get", "f.bin", str(env / "plain" / "x"), "--vault", vaultdir]) == 1
        assert (env / "plain").read_bytes() == b"a regular file"

    def test_rm_while_locked_is_exit_1(self, env, capsys):
        _init(env)
        vaultdir = env / "vault"
        src = env / "f.bin"
        src.write_bytes(b"content")
        assert cli.main(["put", str(src), "f.bin", "--vault", str(vaultdir)]) == 0
        capsys.readouterr()
        with open(vaultdir / ".lock", "a+") as holder:
            fcntl.flock(holder, fcntl.LOCK_EX | fcntl.LOCK_NB)
            assert cli.main(["rm", "f.bin", "--vault", str(vaultdir)]) == 1
        assert "another command" in capsys.readouterr().err
        assert cli.main(["rm", "f.bin", "--vault", str(vaultdir)]) == 0

    def test_wrong_password_is_exit_3(self, env, monkeypatch):
        _init(env)
        bad = env / "bad.txt"
        bad.write_text("wrong password")
        monkeypatch.setenv(cli.PASSWORD_FILE_ENV, str(bad))
        assert cli.main(["ls", "--vault", str(env / "vault")]) == 3

    def test_ls_rm_mv(self, env, capsys):
        _init(env)
        vaultdir = str(env / "vault")
        src = env / "f.bin"
        src.write_bytes(b"content here")
        cli.main(["put", str(src), "f.bin", "--vault", vaultdir])
        assert cli.main(["ls", "--vault", vaultdir]) == 0
        assert "f.bin" in capsys.readouterr().out
        assert cli.main(["mv", "f.bin", "renamed.bin", "--vault", vaultdir]) == 0
        assert cli.main(["rm", "renamed.bin", "--vault", vaultdir]) == 0
        assert cli.main(["rm", "renamed.bin", "--vault", vaultdir]) == 4

    def test_put_bad_name_is_exit_2(self, env):
        _init(env)
        src = env / "s.bin"
        src.write_bytes(b"x")
        code = cli.main(["put", str(src), "x" * 200, "--vault", str(env / "vault")])
        assert code == 2

    def test_dump_config(self, env, capsys):
        _init(env)
        assert cli.main(["dump-config", "--vault", str(env / "vault")]) == 0
        out = capsys.readouterr().out
        assert "mode:" in out and "v1" in out


class TestSyncCommand:
    def test_sync_twice_prints_zero(self, env, capsys):
        _init(env)
        vaultdir = str(env / "vault")
        src = env / "s.bin"
        src.write_bytes(os.urandom(2000))
        cli.main(["put", str(src), "s.bin", "--vault", vaultdir])
        remote = str(env / "remote")
        assert cli.main(["sync", "--vault", vaultdir, "--remote", remote]) == 0
        capsys.readouterr()
        assert cli.main(["sync", "--vault", vaultdir, "--remote", remote]) == 0
        assert capsys.readouterr().out.strip() == "pushed=0 pulled=0 conflicts=0"

    def test_bad_remote_is_exit_1(self, env):
        _init(env)
        code = cli.main([
            "sync", "--vault", str(env / "vault"),
            "--remote", "http://127.0.0.1:9/store",
        ])
        assert code == 1

    def test_sync_closes_the_store(self, env, monkeypatch):
        closed = []
        real_close = cli.sync_mod.HttpStore.close

        def close(store):
            closed.append(store)
            real_close(store)

        monkeypatch.setattr(cli.sync_mod.HttpStore, "close", close)
        _init(env)
        code = cli.main([
            "sync", "--vault", str(env / "vault"),
            "--remote", "http://127.0.0.1:9/store",
        ])
        assert code == 1 and len(closed) == 1


class TestBenchCommand:
    def test_csv_line_count_formula(self, env, capsys):
        out_csv = env / "bench.csv"
        code = cli.main([
            "bench", "--modes", "plain,v1", "--workload", "single",
            "--directions", "write", "--reps", "2", "--bytes", str(1024 * 1024),
            "--seed", "1", "--staging", str(env / "stage"),
            "--workdir", str(env / "work"), "--out", str(out_csv),
        ])
        assert code == 0
        lines = out_csv.read_text().splitlines()
        assert len(lines) == 1 + 2 * 2  # header + reps * |modes| for one direction
        assert "MB/s" in capsys.readouterr().out


class TestSecretHygiene:
    def test_no_password_in_output(self, env, capsys):
        _init(env)
        vaultdir = str(env / "vault")
        src = env / "s.bin"
        src.write_bytes(b"bytes")
        cli.main(["-v", "put", str(src), "s.bin", "--vault", vaultdir])
        cli.main(["-v", "get", "s.bin", str(env / "o.bin"), "--vault", vaultdir])
        cli.main(["ls", "--vault", vaultdir])
        cli.main(["dump-config", "--vault", vaultdir])
        captured = capsys.readouterr()
        assert PASSWORD not in captured.out
        assert PASSWORD not in captured.err

    def test_no_key_material_in_dump(self, env, capsys):
        from sealvault import vault as vault_mod

        _init(env)
        handle = vault_mod.unlock_vault(env / "vault", PASSWORD)
        name_key = handle._keys().name_key.hex()
        content_key = handle._keys().content_key.hex()
        handle.lock()
        cli.main(["dump-config", "--vault", str(env / "vault")])
        out = capsys.readouterr().out
        assert name_key not in out and content_key not in out
