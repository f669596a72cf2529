"""The benchmark's tracer (perfbench/tracing.py) wraps program functions by
name; installing it fails if one of those names is renamed or removed."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from conftest import TEST_PASSWORD  # noqa: E402
from perfbench.tracing import NAME, TARGETS, Tracer  # noqa: E402
from sealvault import modes, vault  # noqa: E402


def test_tracer_installs_and_removes():
    originals = [getattr(owner, attr) for owner, attr, _name, _tag in TARGETS]
    with Tracer().installed():
        pass
    assert [getattr(owner, attr) for owner, attr, _name, _tag in TARGETS] == originals


def test_sealed_file_keys_pass_through_traced_seal_and_unseal(make_vault, platform):
    """A sealed write seals its file key, and a cold read unseals it, through
    `tee.seal`/`tee.unseal`, so the tracer's per-call metrics see them."""
    writer = make_vault(modes.ModeId.SEALED)
    reader = vault.unlock_vault(writer.root, TEST_PASSWORD, platform=platform)
    try:
        tracer = Tracer()
        with tracer.installed():
            writer.write_file("f", b"sealed file")
            written = len(tracer.spans)
            assert reader.read_file("f") == b"sealed file"
        assert "tee.seal" in {s[NAME] for s in tracer.spans[:written]}
        assert "tee.unseal" in {s[NAME] for s in tracer.spans[written:]}
    finally:
        reader.lock()


def test_sealed_file_derives_one_block_key(make_vault, platform):
    """Through the traced `tee.derive_sealing_key`: a sealed write derives
    one key for its header and one for all its blocks, a cold read the same,
    and a warm re-read none."""
    writer = make_vault(modes.ModeId.SEALED)
    data = bytes(64 * modes.BLOCK_SIZE)
    handles = [vault.unlock_vault(writer.root, TEST_PASSWORD, platform=platform)
               for _ in range(2)]
    try:
        tracer = Tracer()
        with tracer.installed():
            counts = []
            for call in (lambda: handles[0].write_file("f", data),
                         lambda: handles[1].read_file("f"),
                         lambda: handles[1].read_file("f")):
                before = len(tracer.spans)
                call()
                counts.append(sum(1 for s in tracer.spans[before:]
                                  if s[NAME] == "tee.derive_sealing_key"))
        assert counts == [2, 2, 0]
        assert handles[1].read_file("f") == data
    finally:
        for handle in handles:
            handle.lock()
