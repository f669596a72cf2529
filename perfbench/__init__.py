"""Benchmark of the sealvault program: three closed-loop, single-client
workloads (`stream`, `namespace`, `sync`) driven through the public API, an
untraced run for the end-to-end metrics and a traced run for the per-layer
ones. Entry point: `python3 perfbench/run.py --help`."""
