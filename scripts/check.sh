#!/usr/bin/env sh
# check.sh — the repository's single verification entry point (`make check`).
#
# Tiers, cheapest first so failures surface fast:
#   1. gofmt            formatting drift
#   2. go vet           the stock analyzer suite (asmdecl included, which
#                       checks the gf256 AVX2 assembly against its Go
#                       declarations), plus a second pass with an extended
#                       -unusedresult function list, plus a GOARCH=arm64
#                       pass over the GF(2^8) codec packages so the
#                       portable (non-amd64) kernel build keeps compiling
#   3. go build         everything compiles
#   4. rmlint           project invariants (env-discipline, no-goroutines,
#                       float-eq, mutex-discipline, doc-comment, and the
#                       dataflow rules hotpath-alloc, buffer-ownership,
#                       metrics-discipline) — see internal/lint. The tier
#                       also asserts -json emits an empty array on a clean
#                       tree and that `rmlint -metrics-schema` reproduces
#                       scripts/metrics_schema.txt byte for byte
#   5. go test          full test suite
#   6. go test -race    short-mode tests of the concurrent packages under
#                       the race detector (udpcast transport, simnet
#                       scheduler, core engines driven by both, the mcrun
#                       parallel Monte-Carlo runner, the encode-ahead
#                       pipeline pool, the row-sharded rse/rse16/rect
#                       parallel encode, the receiver field, whose
#                       NAK-schedule determinism contract runs under mcrun
#                       parallelism, and the adaptive FEC controller driven
#                       by the core engines' pipelined scenario tests)
#   7. field smoke      one reduced-scale receiver-field transfer — a full
#                       NP session fronting R = 1e5 simulated receivers
#                       through one struct-of-arrays field.Field with
#                       aggregated NAK feedback — reconciled against the
#                       paper's closed form (the R = 1e6 acceptance run
#                       stays in the full `go test ./...` tier above)
#   8a. bench smoke     one 1-pass NP loopback drain through cmd/bench
#                       -np-only, so the end-to-end throughput tiers
#                       (including the per-core scaling sweep, which skips
#                       itself with skipped_insufficient_cpus on 1-CPU
#                       hosts, and the sendmmsg syscall tier) compile and
#                       both sender paths drain to idle; plus one 1-pass
#                       -codec-only run: the codec-portfolio tier (rect vs
#                       RS encode cost) and the NC-vs-carousel repair
#                       scenario, which hard-fails if either field scenario
#                       leaves the population incomplete
#   9. transcripts      the sender transcript hash of a fixed transfer,
#                       twice at pipeline depth 0, once pipelined, and
#                       once pipelined with sharded parallel encode:
#                       depth 0 must be deterministic run-to-run and every
#                       pipelined wire sequence byte-identical to serial
#  10. figures diff     two `figures -quick` runs at different -parallel
#                       values must produce byte-identical TSV output for
#                       every simulated figure (the mcrun determinism
#                       contract, end to end; fig 1 measures this
#                       machine's coder throughput, so it is excluded)
#  11. metrics smoke    start npsend -metrics-addr, scrape /metrics,
#                       project the exposed series onto their static IDs
#                       (drop _bucket, fold _sum/_count into the histogram
#                       base name) and diff against the sender-side slice
#                       of scripts/metrics_schema.txt — a renamed or
#                       dropped series breaks dashboards silently, so the
#                       schema is pinned (skipped when multicast or curl
#                       is unavailable, like the udpcast tests)
set -eu
cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

echo '== gofmt'
fmt=$(gofmt -l .)
if [ -n "$fmt" ]; then
    echo "gofmt needed on:" >&2
    echo "$fmt" >&2
    exit 1
fi

echo '== go vet ./...'
go vet ./...
# Second, stricter pass: naming an analyzer disables the rest, so the
# extended unusedresult function list needs its own invocation.
go vet -unusedresult \
    -unusedresult.funcs='errors.New,errors.Unwrap,fmt.Errorf,fmt.Sprint,fmt.Sprintf,fmt.Sprintln,sort.Reverse,context.WithValue,strings.Join,strings.Repeat,strings.ToLower,strings.ToUpper,strings.TrimSpace' \
    ./...
# Cross-vet the non-amd64 build of the kernels and their callers.
GOARCH=arm64 go vet ./internal/gf256/ ./internal/rse/ ./internal/rect/

echo '== go build ./...'
go build ./...

echo '== rmlint ./...'
go run ./cmd/rmlint ./...
json=$(go run ./cmd/rmlint -json ./...)
if [ "$json" != "[]" ]; then
    echo "rmlint -json on a clean tree must emit an empty array, got: $json" >&2
    exit 1
fi
go run ./cmd/rmlint -metrics-schema > "$tmp/schema.derived"
if ! cmp -s "$tmp/schema.derived" scripts/metrics_schema.txt; then
    echo 'rmlint -metrics-schema disagrees with scripts/metrics_schema.txt:' >&2
    diff scripts/metrics_schema.txt "$tmp/schema.derived" >&2 || true
    exit 1
fi

echo '== go test ./...'
go test ./...

echo '== go test -race -short (concurrent packages)'
go test -race -short ./internal/udpcast/ ./internal/simnet/ ./internal/core/ ./internal/mcrun/ ./internal/pipeline/ ./internal/rse/ ./internal/rse16/ ./internal/rect/ ./internal/field/ ./internal/adapt/

echo '== receiver field smoke (R=1e5 full transfer vs closed form, -short)'
go test -short -count=1 -run 'TestFieldSmokeR100k|TestFieldEMReconciliation' ./internal/field/

echo '== NP loopback bench smoke (cmd/bench -np-only, 1 pass)'
go run ./cmd/bench -np-only -runs 1 -np-groups 40 -out - > /dev/null

echo '== codec portfolio smoke (cmd/bench -codec-only: rect vs RS, NC vs carousel)'
go run ./cmd/bench -codec-only -runs 1 -out - > /dev/null

echo '== adaptive FEC smoke (cmd/bench -adapt-scenario: loss-shift convergence)'
go run ./cmd/bench -adapt-scenario -adapt-out "$tmp/adapt"

echo '== sender transcript determinism (depth 0 x2, pipelined x1, sharded x1)'
t0a=$(go run ./cmd/bench -transcript -depth 0)
t0b=$(go run ./cmd/bench -transcript -depth 0)
t8=$(go run ./cmd/bench -transcript -depth 8)
t8s=$(go run ./cmd/bench -transcript -depth 8 -shards 4)
if [ "$t0a" != "$t0b" ]; then
    echo "serial sender transcript not deterministic: $t0a vs $t0b" >&2
    exit 1
fi
if [ "$t0a" != "$t8" ]; then
    echo "pipelined sender transcript differs from serial: $t0a vs $t8" >&2
    exit 1
fi
if [ "$t0a" != "$t8s" ]; then
    echo "sharded-encode sender transcript differs from serial: $t0a vs $t8s" >&2
    exit 1
fi

echo '== figures determinism (-parallel 1 vs 8, simulated figures)'
go build -o "$tmp/figures" ./cmd/figures
for fig in 11 12 14 15 16; do
    "$tmp/figures" -fig "$fig" -quick -seed 7 -parallel 1 >> "$tmp/p1.tsv"
    "$tmp/figures" -fig "$fig" -quick -seed 7 -parallel 8 >> "$tmp/p8.tsv"
done
if ! cmp -s "$tmp/p1.tsv" "$tmp/p8.tsv"; then
    echo "figures output differs between -parallel 1 and -parallel 8" >&2
    diff "$tmp/p1.tsv" "$tmp/p8.tsv" >&2 || true
    exit 1
fi

echo '== metrics endpoint smoke (npsend -metrics-addr vs scripts/metrics_schema.txt)'
if ! command -v curl >/dev/null 2>&1; then
    echo 'metrics smoke: curl not available, skipping'
else
    go build -o "$tmp/npsend" ./cmd/npsend
    head -c 100000 /dev/urandom > "$tmp/payload.bin"
    "$tmp/npsend" -file "$tmp/payload.bin" -metrics-addr 127.0.0.1:0 -linger 8s \
        > "$tmp/npsend.out" 2>&1 &
    np_pid=$!
    addr=''
    for _ in $(seq 1 50); do
        addr=$(sed -n 's#npsend: metrics on http://\([^/]*\)/metrics#\1#p' "$tmp/npsend.out")
        [ -n "$addr" ] && break
        if ! kill -0 "$np_pid" 2>/dev/null; then break; fi
        sleep 0.1
    done
    if [ -z "$addr" ]; then
        echo 'metrics smoke: npsend did not start (multicast unavailable?), skipping'
        cat "$tmp/npsend.out"
    else
        # Project runtime series onto their static IDs: histogram expansion
        # (_bucket{le=...}, _sum, _count) folds back into the base name.
        curl -sf "http://$addr/metrics" | grep -v '^#' | awk '{print $1}' \
            | grep -v '_bucket{' \
            | sed -e 's/_sum$//' -e 's/_count$//' \
            | LC_ALL=C sort -u > "$tmp/schema.txt"
        # npsend runs the sender half only; slice the pinned schema down to
        # the series a sender process registers (np_codec_nc_rx_* is the
        # receiver half of the NC instruments).
        grep -E '^(np_sender_|np_pipeline_|np_codec_|rse_|udpcast_)' scripts/metrics_schema.txt \
            | grep -v '^np_codec_nc_rx_' \
            > "$tmp/schema.want"
        if ! cmp -s "$tmp/schema.txt" "$tmp/schema.want"; then
            echo 'metrics series set drifted from scripts/metrics_schema.txt:' >&2
            diff "$tmp/schema.want" "$tmp/schema.txt" >&2 || true
            kill "$np_pid" 2>/dev/null || true
            exit 1
        fi
        # Liveness: the sender must have transmitted by now.
        datatx=$(curl -sf "http://$addr/metrics" | awk '$1 == "np_sender_tx_packets_total{kind=\"data\"}" {print $2}')
        if [ "${datatx:-0}" -eq 0 ]; then
            echo "metrics smoke: np_sender data tx = ${datatx:-unset}, expected > 0" >&2
            kill "$np_pid" 2>/dev/null || true
            exit 1
        fi
        # JSON and trace endpoints answer too.
        curl -sf "http://$addr/metrics.json" > /dev/null
        curl -sf "http://$addr/debug/trace" > /dev/null
    fi
    kill "$np_pid" 2>/dev/null || true
    wait "$np_pid" 2>/dev/null || true
fi

echo 'check.sh: all tiers passed'
