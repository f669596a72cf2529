"""Spans around the calls into each layer of the program, and the per-layer
metrics derived from them.

The tracer replaces public functions and methods of `tee`, `modes`, `vault`,
`fsbridge` and `sync` (and `os.fsync`) with timing wrappers while it is
installed, and puts the originals back when it is removed; the program's own
files are not changed. A span is (name, start ns, end ns, parent span, op id,
tag), kept in memory and written out once at the end. Two counters ride on
the innermost open span: bytes hashed by `sync`'s SHA-256 and bytes read by
`Path.read_bytes`. They are counts without spans of their own, so they do not
move any layer's self time.
"""

from __future__ import annotations

import functools
import gzip
import hashlib
import json
import os
import pathlib
import time
from collections import defaultdict
from pathlib import Path

from sealvault import fsbridge, modes, sync, tee, vault

from .common import AUDIT


def _mode_arg(args):
    return args[0].value


def _handle_mode(args):
    return args[0].mode.value


def _blob_len(args):
    return len(args[1])


_VAULT_METHODS = ("write_file", "read_file", "read_range", "list_dir", "map_path",
                  "exists", "make_dir", "remove_file", "rename_file")
_BRIDGE_METHODS = ("getsize", "read", "listdir", "exists", "makedirs", "remove", "rename")
_STORE_METHODS = ("list", "put_object", "get_object", "delete")

# (owner, attribute, span name, tag function)
TARGETS = (
    [(tee, f, f"tee.{f}", None) for f in ("seal", "unseal", "derive_sealing_key")]
    + [(modes, f, f"modes.{f}", _mode_arg) for f in ("encrypt_block", "decrypt_block")]
    + [(modes, f, f"modes.{f}", None) for f in (
        "encrypt_filename", "decrypt_filename", "derive_kek", "wrap_key", "unwrap_key")]
    + [(vault.VaultHandle, m, f"vault.{m}", _handle_mode) for m in _VAULT_METHODS]
    + [(vault, f, f"vault.{f}", None) for f in ("create_vault", "unlock_vault")]
    + [(fsbridge.VaultFilesystem, m, f"fsbridge.{m}", None) for m in _BRIDGE_METHODS]
    + [(sync, "sync", "sync.sync", None),
       (sync.SyncState, "save", "sync.state_save", None)]
    + [(sync.LocalDirStore, m, f"store.{m}", None) for m in _STORE_METHODS]
    + [(sync.OpacityIndex, "__init__", "opacity.index_build", None),
       (sync.OpacityIndex, "leaks", "opacity.leaks", _blob_len),
       (sync, "scan_tree_opacity", "opacity.scan_tree", None),
       (sync, "verify_remote_opacity", "opacity.scan_remote", None),
       (os, "fsync", "device.fsync", None)]
)

NAME, START, END, PARENT, OP, TAG = range(6)


class Tracer:
    """In-memory span recorder; use `with tracer.installed():`."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[tuple[int, str], int] = defaultdict(int)
        self.op: int | None = None  # set by the Recorder around each op
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, tag_of):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0, 0, stack[-1] if stack else -1, self.op,
                    tag_of(args) if tag_of else None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()

        return traced

    def count(self, counter: str, n: int) -> None:
        if self._stack:
            self.counts[(self._stack[-1], counter)] += n

    def installed(self):
        return _Installed(self)

    def _install(self) -> None:
        for owner, attr, name, tag_of in TARGETS:
            self._replace(owner, attr, self._wrap(name, getattr(owner, attr), tag_of))
        tracer = self

        class CountingSha256:
            def __init__(self, data=b""):
                self._h = hashlib.sha256()
                if data:
                    self.update(data)

            def update(self, data):
                tracer.count("hashed", len(data))
                self._h.update(data)

            def digest(self):
                return self._h.digest()

            def hexdigest(self):
                return self._h.hexdigest()

        read_bytes = pathlib.Path.read_bytes

        def counting_read_bytes(path):
            data = read_bytes(path)
            tracer.count("read", len(data))
            return data

        self._replace(sync, "sha256", CountingSha256)
        self._replace(pathlib.Path, "read_bytes", counting_read_bytes)

    def _replace(self, owner, attr, new) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def _uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def write(self, path: Path, ops, extra: dict) -> None:
        """Write ops, spans and counters as gzip-compressed JSON."""
        doc = dict(extra)
        doc["ops"] = [list(o) for o in ops]
        doc["span_fields"] = ["name", "start_ns", "end_ns", "parent", "op", "tag"]
        doc["spans"] = self.spans
        doc["counts"] = [[span, counter, n] for (span, counter), n in self.counts.items()]
        with gzip.open(path, "wt", compresslevel=1) as out:
            json.dump(doc, out, separators=(",", ":"))


class _Installed:
    def __init__(self, tracer: Tracer):
        self.tracer = tracer

    def __enter__(self) -> Tracer:
        self.tracer._install()
        return self.tracer

    def __exit__(self, *exc) -> None:
        self.tracer._uninstall()


# -- derivation ----------------------------------------------------------------

LAYERS = ("device", "tee", "modes", "vault", "fsbridge", "sync", "store")


def _windows(n: int) -> int:
    """8-byte windows the opacity index looks up for an n-byte blob."""
    return sum((n - a) // 8 for a in range(8)) if n >= 8 else 0


def _ratio(num: float, den: float) -> float:
    """A layer the workload never calls reads 0."""
    return num / den if den else 0.0


def derive(tracer: Tracer, ops, counters: dict) -> dict:
    """Per-layer metrics from the spans of one traced run: name -> (value, unit)."""
    spans = tracer.spans
    n = len(spans)
    self_ns = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            self_ns[s[PARENT]] -= s[END] - s[START]

    op_kind = [o[0] for o in ops]
    op_depth = [o[3] for o in ops]
    loop = [k != AUDIT for k in op_kind]
    n_loop = sum(loop)
    loop_ns = sum(o[2] - o[1] for o, in_loop in zip(ops, loop) if in_loop)
    ops_by_kind = defaultdict(int)
    for k in op_kind:
        ops_by_kind[k] += 1

    calls = defaultdict(int)        # name -> spans
    dur = defaultdict(int)          # name -> ns
    own = defaultdict(int)          # name -> self ns
    loop_calls = defaultdict(int)   # name -> spans inside loop ops
    loop_dur = defaultdict(int)
    layer_self = defaultdict(int)   # layer -> self ns inside loop ops
    by_tag_dur = defaultdict(int)   # (name, tag) -> ns
    by_tag_self = defaultdict(int)
    by_kind_calls = defaultdict(int)   # (name, op kind) -> spans
    by_depth_calls = defaultdict(int)  # (name, op depth) -> spans
    for i, s in enumerate(spans):
        name, d = s[NAME], s[END] - s[START]
        calls[name] += 1
        dur[name] += d
        own[name] += self_ns[i]
        by_tag_dur[(name, s[TAG])] += d
        by_tag_self[(name, s[TAG])] += self_ns[i]
        op = s[OP]
        if op is not None:
            by_kind_calls[(name, op_kind[op])] += 1
            if loop[op]:
                loop_calls[name] += 1
                loop_dur[name] += d
                by_depth_calls[(name, op_depth[op])] += 1
                layer_self[name.split(".", 1)[0]] += self_ns[i]

    def ancestor_named(i: int, name: str) -> int:
        p = spans[i][PARENT]
        while p >= 0 and spans[p][NAME] != name:
            p = spans[p][PARENT]
        return p

    range_blocks = sum(1 for i in range(n) if spans[i][NAME] == "modes.decrypt_block"
                       and ancestor_named(i, "vault.read_range") >= 0)
    getsize_names = sum(1 for i in range(n) if spans[i][NAME] == "modes.decrypt_filename"
                        and ancestor_named(i, "fsbridge.getsize") >= 0)
    top_list = [s[END] - s[START] for s in spans if s[NAME] == "vault.list_dir" and s[PARENT] < 0]
    sealed_blocks_in_loop = sum(
        1 for s in spans if s[NAME] in ("modes.encrypt_block", "modes.decrypt_block")
        and s[TAG] == "sealed" and s[OP] is not None and loop[s[OP]])

    counted = defaultdict(int)  # (span name, counter, op kind) -> n
    for (i, counter), value in tracer.counts.items():
        op = spans[i][OP]
        counted[(spans[i][NAME], counter, op_kind[op] if op is not None else None)] += value

    sync_runs = sum(v for k, v in ops_by_kind.items() if k.startswith("sync."))
    transfers = sum(by_kind_calls[(f"store.{m}", k)] for m in ("put_object", "get_object")
                    for k in ops_by_kind if k.startswith("sync."))
    windows = sum(_windows(s[TAG]) for s in spans if s[NAME] == "opacity.leaks")

    def per_depth(d: int) -> float:
        n_ops = sum(1 for k, dep, in_loop in zip(op_kind, op_depth, loop) if in_loop and dep == d)
        return _ratio(by_depth_calls[("modes.encrypt_filename", d)], n_ops)

    def self_share(name: str, tag: str) -> float:
        return _ratio(by_tag_self[(name, tag)], by_tag_dur[(name, tag)])

    out = {
        "device.fsync.calls_per_op": (_ratio(loop_calls["device.fsync"], n_loop), "count"),
        "device.fsync.ms_share": (_ratio(loop_dur["device.fsync"], loop_ns), "ratio"),
        "tee.derive_sealing_key.calls_per_block": (
            _ratio(loop_calls["tee.derive_sealing_key"], sealed_blocks_in_loop), "count"),
        "tee.seal.self_us_per_call": (_ratio(own["tee.seal"], calls["tee.seal"]) / 1e3, "us"),
        "tee.unseal.self_us_per_call": (_ratio(own["tee.unseal"], calls["tee.unseal"]) / 1e3, "us"),
        "tee.unseal.calls_per_op": (_ratio(loop_calls["tee.unseal"], n_loop), "count"),
        "modes.encrypt_filename.calls_per_op": (
            _ratio(loop_calls["modes.encrypt_filename"], n_loop), "count"),
        "modes.encrypt_filename.calls_per_op.d1": (per_depth(1), "count"),
        "modes.encrypt_filename.calls_per_op.d8": (per_depth(8), "count"),
        "modes.encrypt_filename.us_per_call": (
            _ratio(dur["modes.encrypt_filename"], calls["modes.encrypt_filename"]) / 1e3, "us"),
        "modes.decrypt_filename.calls_per_op": (
            _ratio(loop_calls["modes.decrypt_filename"], n_loop), "count"),
        "vault.write_file.self_share.v1": (self_share("vault.write_file", "v1"), "ratio"),
        "vault.write_file.self_share.sealed": (self_share("vault.write_file", "sealed"), "ratio"),
        "vault.read_file.self_share.v1": (self_share("vault.read_file", "v1"), "ratio"),
        "vault.read_file.self_share.sealed": (self_share("vault.read_file", "sealed"), "ratio"),
        "vault.read_range.blocks_per_call": (_ratio(range_blocks, calls["vault.read_range"]), "count"),
        "vault.list_dir.us_per_call": (_ratio(sum(top_list), len(top_list)) / 1e3, "us"),
        "fsbridge.getsize.names_decrypted_per_call": (
            _ratio(getsize_names, calls["fsbridge.getsize"]), "count"),
        "sync.local_bytes_hashed_per_run": (
            _ratio(counted[("sync.sync", "hashed", "sync.noop")], ops_by_kind["sync.noop"]), "B"),
        "store.list.bytes_read_per_run": (
            _ratio(sum(v for (name, c, _k), v in counted.items()
                       if name == "store.list" and c == "read"), sync_runs), "B"),
        "store.list.ms": (_ratio(dur["store.list"], calls["store.list"]) / 1e6, "ms"),
        "store.put_object.calls_per_run": (
            _ratio(by_kind_calls[("store.put_object", "sync.push")], ops_by_kind["sync.push"]), "count"),
        "store.get_object.calls_per_run": (
            _ratio(by_kind_calls[("store.get_object", "sync.pull")], ops_by_kind["sync.pull"]), "count"),
        "sync.useful_transfer_ratio": (
            _ratio(transfers, 2 * counters.get("objects_changed", 0)), "ratio"),
        "opacity.index_build_s": (
            _ratio(dur["opacity.index_build"], calls["opacity.index_build"]) / 1e9, "s"),
        "opacity.lookup_ns_per_window": (_ratio(dur["opacity.leaks"], windows), "ns"),
    }
    for layer in LAYERS:
        out[f"layer.{layer}.self_share"] = (_ratio(layer_self[layer], loop_ns), "ratio")
    return out
