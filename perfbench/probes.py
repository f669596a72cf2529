"""Direct probes of single layers, reported beside the traced workload so
each layer's cost can be set against the layer below it: the raw AEAD, one
block through `modes` per mode, one sealing-key derivation, the password
KDF, name resolution at depth 1, 4 and 8, the container's peak allocation
when reading a file, and a plain copy and read of the `stream` corpus."""

from __future__ import annotations

import os
import statistics
import time
import tracemalloc
from pathlib import Path

from cryptography.hazmat.primitives.ciphers.aead import AESGCM

from sealvault import modes, tee, vault

from . import wl_stream
from .common import BENCH_PASSWORD, KDF_ITERATIONS, PLATFORM, Recorder, open_vault

BATCHES = 7


def _us_per_call(fn, calls: int) -> float:
    """Median over batches of the mean time of one call, in microseconds."""
    per_batch = max(1, calls // BATCHES)
    means = []
    for _ in range(BATCHES):
        start = time.perf_counter_ns()
        for _ in range(per_batch):
            fn()
        means.append((time.perf_counter_ns() - start) / per_batch / 1e3)
    return statistics.median(means)


def _crypto() -> dict:
    block = os.urandom(modes.BLOCK_SIZE)
    file_id = os.urandom(16)
    aead = AESGCM(os.urandom(32))
    nonce = os.urandom(12)
    out = {"modes.aead.us_per_block": (_us_per_call(lambda: aead.encrypt(nonce, block, file_id), 700), "us")}

    session = modes.init_enclave(
        PLATFORM, vault.VAULT_ENCLAVE_CODE, vault.VAULT_ENCLAVE_SIGNER,
        product_id=vault.VAULT_ENCLAVE_PRODUCT_ID, isv_svn=vault.VAULT_ENCLAVE_ISV_SVN)
    try:
        for mode, keys in ((modes.ModeId.V1, os.urandom(32)), (modes.ModeId.SEALED, session)):
            sealed_block = modes.encrypt_block(mode, keys, file_id, 3, block)
            out[f"modes.encrypt_block.us_per_block.{mode.value}"] = (_us_per_call(
                lambda: modes.encrypt_block(mode, keys, file_id, 3, block), 350), "us")
            out[f"modes.decrypt_block.us_per_block.{mode.value}"] = (_us_per_call(
                lambda: modes.decrypt_block(mode, keys, file_id, 3, sealed_block), 350), "us")
        enclave, key_id = session.identity, os.urandom(32)
        out["tee.derive_sealing_key.us_per_call"] = (_us_per_call(
            lambda: tee.derive_sealing_key(PLATFORM, enclave, tee.SealingPolicy.MRENCLAVE,
                                           key_id, enclave.isv_svn, PLATFORM.cpu_svn), 2100), "us")
    finally:
        session.destroy()

    salt = os.urandom(16)
    kdf = []
    for _ in range(3):
        start = time.perf_counter()
        modes.derive_kek(BENCH_PASSWORD, salt, KDF_ITERATIONS)
        kdf.append(time.perf_counter() - start)
    out["modes.derive_kek.s"] = (statistics.median(kdf), "s")
    return out


def _map_path(work: Path) -> dict:
    h = open_vault(work / "map_path", modes.ModeId.V1)
    try:
        chain = [f"level{i}" for i in range(1, 9)]
        h.make_dir("/".join(chain))
        out = {}
        for depth in (1, 4, 8):
            path = "/".join(chain[:depth]) + "/leaf.bin"
            out[f"vault.map_path.us.d{depth}"] = (_us_per_call(lambda: h.map_path(path), 350), "us")
        return out
    finally:
        h.lock()


def _peak_alloc(work: Path, data: bytes) -> dict:
    h = open_vault(work / "alloc", modes.ModeId.SEALED)
    try:
        h.write_file("probe.bin", data)
        tracemalloc.start()
        try:
            h.read_file("probe.bin")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return {"vault.read_file.peak_alloc_per_byte": (peak / len(data), "ratio")}
    finally:
        h.lock()


def _device(work: Path, contents: list[bytes], rec: Recorder) -> dict:
    """Plain copy with fsync and plain read of the corpus: the floor for
    the container's MB/s on `stream`."""
    directory = work / "plain"
    directory.mkdir()
    writes, reads = [], []
    for rep in range(2):
        for i, data in enumerate(contents):
            path = directory / f"file{i}.{rep}"
            start = time.perf_counter()
            with open(path, "wb") as out:
                out.write(data)
                out.flush()
                os.fsync(out.fileno())
            writes.append(len(data) / 1e6 / (time.perf_counter() - start))
        for i, data in enumerate(contents):
            start = time.perf_counter()
            got = (directory / f"file{i}.{rep}").read_bytes()
            reads.append(len(data) / 1e6 / (time.perf_counter() - start))
            rec.verify(got == data, f"plain read of file{i} returned other bytes")
    return {"device.plain_write_mbps": (statistics.median(writes), "MB/s"),
            "device.plain_read_mbps": (statistics.median(reads), "MB/s")}


def run(work: Path, seed: int, stream_sizes: wl_stream.Sizes, rec: Recorder) -> dict:
    """Every probe: name -> (value, unit). Output checks go to `rec`."""
    work.mkdir(parents=True, exist_ok=True)
    contents = wl_stream.make_inputs(seed, stream_sizes).contents
    return {**_crypto(), **_map_path(work), **_peak_alloc(work, contents[0]),
            **_device(work, contents, rec)}
