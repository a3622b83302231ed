#!/usr/bin/env sh
# bench.sh — record the repository's performance trajectory (`make bench`).
#
# Runs cmd/bench, which measures the GF(2^8) kernel throughput against the
# retained scalar reference, the RSE encode/decode packet rates at the
# paper's k=7,h=7 and k=20,h=5 operating points, the sparse Monte-Carlo
# engines (NoFEC and Layered at R = 1e4 and 1e6, p = 0.01) against the
# retained dense pre-PR engines, the NP loopback sender throughput
# (pipelined encode-ahead + pooled frames + batched transmit against the
# retained pre-PR serial transmit path, at the paper's k=20, h=5, 1 KiB
# operating point), the per-core encode scaling sweep (GOMAXPROCS 1/2/4/8,
# capped at the host's CPU count, with row-sharded parallel encode),
# measured syscalls/pkt on a real
# multicast socket (sendmmsg vs per-frame write), the receiver-field tier
# (full NP transfers fronting R = 1e4..1e6 simulated receivers through one
# struct-of-arrays field.Field, in receivers/s against a per-instance
# core.Receiver baseline), the codec-portfolio tier (XOR rectangular
# codes against Reed-Solomon encode cost, network-coded repair against the
# parity carousel), and one end-to-end `figures -quick` regeneration. The
# snapshot goes to BENCH_PR10.json (median of several passes; see
# cmd/bench). Compare snapshots across PRs to catch codec, protocol or
# simulation regressions.
set -eu
cd "$(dirname "$0")/.."

ncpu=$(nproc 2>/dev/null || getconf _NPROCESSORS_ONLN 2>/dev/null || echo 2)
if [ "$ncpu" -lt 2 ]; then
    echo 'bench.sh: single-CPU host: the per-core encode scaling sweep will be' >&2
    echo 'bench.sh: skipped (np_scaling_skipped = skipped_insufficient_cpus in the' >&2
    echo 'bench.sh: snapshot) — the sweep stops at the CPU count, so one CPU leaves' >&2
    echo 'bench.sh: no curve; rerun on a multi-core host for that tier' >&2
fi

go run ./cmd/bench "$@"
