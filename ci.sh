#!/usr/bin/env bash
# CI pipeline for the flagship2 workspace. Fully offline: the workspace is
# hermetic (zero external crates — see tests/hermetic.rs), so every step
# works without registry access.
#
#   ./ci.sh            # run every stage (local pre-push gate)
#   ./ci.sh <stage>    # one stage: build|test|style|golden|trace|perf|
#                      #            campaign|serve|obs|perfbench
#
# The GitHub workflow (.github/workflows/ci.yml) runs the same stages as
# named steps with per-step timeouts, and uploads the /tmp/f2-*.json
# artifacts on failure — which is why per-stage invocations leave those
# files behind and only a full local `all` run cleans them up.
set -euo pipefail
cd "$(dirname "$0")"

STAGE="${1:-all}"
F2="./target/release/f2"
PORT_FILE=/tmp/f2-serve.port
SERVE_PID=""
SERVE_ADDR=""

# On every exit: never leak a server process; on full local runs, also
# sweep the scratch artifacts (CI keeps them for upload-on-failure).
cleanup() {
    if [[ -n "$SERVE_PID" ]] && kill -0 "$SERVE_PID" 2>/dev/null; then
        echo "cleanup: killing leftover f2 serve (pid $SERVE_PID)"
        kill "$SERVE_PID" 2>/dev/null || true
        wait "$SERVE_PID" 2>/dev/null || true
    fi
    if [[ "$STAGE" == all ]]; then
        rm -f /tmp/f2-*.json "$PORT_FILE"
    fi
}
trap cleanup EXIT

run() {
    echo
    echo "==> $*"
    "$@"
}

# boot_server <who> [serve flags...]: start `f2 serve` on an ephemeral
# port in the background and wait for its port file; sets SERVE_PID and
# SERVE_ADDR. Fails (messages prefixed with <who>) if the server dies or
# never binds.
boot_server() {
    local who="$1"
    shift
    rm -f "$PORT_FILE"
    "$F2" serve --addr 127.0.0.1:0 --port-file "$PORT_FILE" --threads 2 "$@" &
    SERVE_PID=$!
    for _ in $(seq 1 100); do
        [[ -s "$PORT_FILE" ]] && break
        if ! kill -0 "$SERVE_PID" 2>/dev/null; then
            echo "$who: server died before binding" >&2
            exit 1
        fi
        sleep 0.1
    done
    if [[ ! -s "$PORT_FILE" ]]; then
        echo "$who: server never wrote $PORT_FILE" >&2
        exit 1
    fi
    SERVE_ADDR="$(tr -d '[:space:]' < "$PORT_FILE")"
}

# stop_server <who>: shut the server down through the protocol and demand
# that it exits 0.
stop_server() {
    local who="$1"
    run timeout 10 "$F2" loadgen --addr "$SERVE_ADDR" --shutdown
    local code=0
    wait "$SERVE_PID" || code=$?
    SERVE_PID=""
    if [[ "$code" -ne 0 ]]; then
        echo "$who: server exited with status $code" >&2
        exit 1
    fi
}

# Tier-1 verify: release build + full workspace test suite.
stage_build() {
    run cargo build --release --offline --workspace --all-targets
}

stage_test() {
    run cargo test --quiet --offline --workspace
}

# Style gates, for the workspace and for the benchmark package (a
# workspace of its own that calls the public APIs).
stage_style() {
    run cargo fmt --all -- --check
    run cargo clippy --offline --workspace --all-targets -- -D warnings
    run cargo fmt --all --manifest-path perfbench/Cargo.toml -- --check
    run cargo clippy --offline --all-targets --manifest-path perfbench/Cargo.toml \
        -- -D warnings
}

# Experiment smoke: run the whole registry at quick fidelity on 1, 2 and
# 8 worker threads and pipe each pass's KPI reports through the golden
# comparator (tests/golden/*.json): the reports must be bit-identical at
# every width. The whole registry is also pinned at full fidelity
# (tests/golden/full). The sparse-dataflow explorer is additionally gated
# alone, by name, so a registry wiring regression cannot silently drop it
# from `all`.
stage_golden() {
    for threads in 1 2 8; do
        run bash -c "$F2 run all --quick --json --threads $threads | $F2 check"
    done
    run bash -c "$F2 run all --json --threads 2 | $F2 check --golden tests/golden/full"
    run bash -c "$F2 run hls/spdataflow --quick --json | $F2 check"
}

# Observability smoke: a traced quick run must produce a well-formed
# Chrome trace with one span per registered experiment, per-worker
# executor spans, finite `exec.chunk_imbalance` gauges (--threads 8
# exercises the work-stealing path on the skewed experiment sweeps), and
# the ISS block-cache series (scf.bb.* counters + block-length histogram).
stage_trace() {
    local trace=/tmp/f2-trace.json
    run bash -c "$F2 run all --quick --threads 8 --trace $trace > /dev/null"
    run "$F2" check-trace "$trace" --require-experiments --require-workers \
        --require-scf-bb
}

# Perf smoke: re-run the curated hot-kernel suite at the baseline's own
# quick/samples/threads configuration and compare p10 times against the
# committed baseline, like with like. Wall-clock numbers
# are machine-dependent (never KPIs), so the threshold stays well above
# run-to-run noise — months of green runs sat far below 20%, so the
# original 50% ratchets down to catch real (not just order-of-magnitude)
# regressions. The baseline's `max_p10_ns` records also hold the two scf
# labels to the block engine's frozen 5x limits (the retired
# per-instruction-dispatch p10s, 37125 and 132790 ns, divided by 5).
stage_perf() {
    run "$F2" check-bench BENCH_PR10.json --max-regress 20
}

# Campaign smoke: expand the 32-scenario manifest, sweep it, and gate the
# merged per-KPI distributions on the committed dist golden. Then prove
# resumability: truncate the checkpoint journal mid-line and demand the
# resumed sweep merge to a bit-identical report. Two more manifests are
# gated on their own goldens: the sparse-dataflow sweep and a seed-axis
# sweep that replays seedless sections.
stage_campaign() {
    local out=/tmp/f2-campaign.json ckpt=/tmp/f2-campaign-ckpt.jsonl
    local manifest=tests/campaign/smoke.json
    rm -f "$out" "$ckpt"
    run timeout 120 "$F2" campaign "$manifest" --out "$out" \
        --checkpoint "$ckpt" --threads 4 --golden tests/campaign/smoke.golden.json
    cp "$out" /tmp/f2-campaign-first.json
    # Keep the header plus five result lines and most of the sixth —
    # exactly what a kill -9 mid-append leaves behind.
    head -c "$(( $(head -n 7 "$ckpt" | wc -c) - 20 ))" "$ckpt" > "$ckpt.tmp"
    mv "$ckpt.tmp" "$ckpt"
    rm -f "$out"
    run timeout 120 "$F2" campaign "$manifest" --out "$out" \
        --checkpoint "$ckpt" --resume --threads 2 \
        --golden tests/campaign/smoke.golden.json
    run cmp /tmp/f2-campaign-first.json "$out"
    rm -f /tmp/f2-campaign-first.json "$ckpt"
    echo "    resumed campaign merged bit-identically"

    # Sparse-dataflow sweep: dataflow × pattern × tiling × buffer, gated on
    # its own dist golden (adaptive-vs-fixed ratios are part of the gate).
    rm -f "$out" "$ckpt"
    run timeout 120 "$F2" campaign tests/campaign/spdataflow.json \
        --out "$out" --checkpoint "$ckpt" --threads 4 \
        --golden tests/campaign/spdataflow.golden.json

    # Seed axis × size of the experiments built from seedless sections:
    # each section runs once per distinct non-seed key and the other seeds
    # replay it. The golden predates the sections, and the report must be
    # the same at one worker and at four.
    local first=/tmp/f2-campaign-seedless-t1.json
    rm -f "$out" "$ckpt" "$first"
    run timeout 120 "$F2" campaign tests/campaign/seedless.json \
        --out "$first" --checkpoint "$ckpt" --threads 1 \
        --golden tests/campaign/seedless.golden.json
    rm -f "$ckpt"
    run timeout 120 "$F2" campaign tests/campaign/seedless.json \
        --out "$out" --checkpoint "$ckpt" --threads 4 \
        --golden tests/campaign/seedless.golden.json
    run cmp "$first" "$out"
    rm -f "$out" "$ckpt" "$first"
}

# Serve smoke: boot the real daemon on an ephemeral port, drive it with
# the load generator, and demand a clean shutdown. Every client step is
# wrapped in `timeout` so a hung accept loop fails the job fast instead
# of stalling the workflow until the job-level timeout.
stage_serve() {
    echo
    echo "==> f2 serve + f2 loadgen smoke (ephemeral port)"
    boot_server "serve smoke"
    local addr="$SERVE_ADDR"
    echo "    listening on $addr (pid $SERVE_PID)"

    # Mixed burst over ten distinct keys: zero failures, bodies
    # bit-identical per key.
    run timeout 60 "$F2" loadgen --addr "$addr" --wait 10 --mix sweep \
        --rps 40 --duration 2 --out /tmp/f2-loadgen.json

    # A repeated identical request after one warmup round must be served
    # 100% from the result cache.
    run timeout 60 "$F2" loadgen --addr "$addr" --mix cached --rps 40 \
        --duration 1 --warmup 1 --expect-all-hits \
        --out /tmp/f2-loadgen-cached.json

    # The service-level bench labels exist and measure a live stack (the
    # bench boots its own in-process server).
    run bash -c "timeout 120 $F2 bench --quick --filter serve/ \
        --out /tmp/f2-bench-serve.json > /dev/null"
    run grep -q '"label":"serve/p99_latency"' /tmp/f2-bench-serve.json
    run grep -q '"label":"serve/throughput"' /tmp/f2-bench-serve.json

    # Clean shutdown through the protocol; the daemon must exit 0.
    stop_server "serve smoke"
    echo "    server shut down cleanly"
}

# Request-scoped observability smoke: boot the daemon with a structured
# access log, drive traced traffic (loadgen stamps X-F2-Trace-Id on every
# /run and fails on any un-echoed id), scrape the /debug/recent flight
# recorder, validate both artifacts with `f2 check-log`, and assert a
# campaign sweep emits progress heartbeats ending at done == total.
stage_obs() {
    local log=/tmp/f2-serve-log.json recent=/tmp/f2-serve-recent.json
    rm -f "$log" "$recent"
    echo
    echo "==> observability smoke (serve --log, /debug/recent, check-log)"
    boot_server "obs smoke" --log "$log"
    local addr="$SERVE_ADDR"
    echo "    listening on $addr (pid $SERVE_PID, access log $log)"

    run timeout 60 "$F2" loadgen --addr "$addr" --wait 10 --mix sweep \
        --rps 40 --duration 1 --recent "$recent" \
        --out /tmp/f2-loadgen-obs.json

    stop_server "obs smoke"

    # Both the access log and the flight-recorder dump hold well-formed
    # f2-serve-log-v1 records.
    run "$F2" check-log "$log"
    run "$F2" check-log "$recent"
    run grep -q '"trace_id":"lg-' "$log"

    # Campaign progress heartbeats: the journal ends with done == total
    # and every event carries the progress schema.
    local out=/tmp/f2-campaign-obs.json ckpt=/tmp/f2-campaign-obs-ckpt.json
    local progress=/tmp/f2-campaign-progress.json
    rm -f "$out" "$ckpt" "$progress"
    run timeout 120 "$F2" campaign tests/campaign/smoke.json --out "$out" \
        --checkpoint "$ckpt" --threads 4 --progress "$progress"
    run grep -q '"schema":"f2-campaign-progress-v1"' "$progress"
    if ! tail -n 1 "$progress" | grep -q '"done":32,"total":32'; then
        echo "obs smoke: final progress event does not cover the sweep:" >&2
        tail -n 1 "$progress" >&2
        exit 1
    fi
    rm -f "$out" "$ckpt"
    echo "    access log, flight recorder and progress heartbeats verified"
}

# End-to-end benchmark self-tests: perfbench is a workspace of its own
# that the stages above never compile, and it drives the public serve,
# campaign and scenario APIs.
stage_perfbench() {
    run cargo test --offline --manifest-path perfbench/Cargo.toml
}

case "$STAGE" in
    build) stage_build ;;
    test) stage_test ;;
    style) stage_style ;;
    golden) stage_golden ;;
    trace) stage_trace ;;
    perf) stage_perf ;;
    campaign) stage_campaign ;;
    serve) stage_serve ;;
    obs) stage_obs ;;
    perfbench) stage_perfbench ;;
    all)
        stage_build
        stage_test
        stage_style
        stage_golden
        stage_trace
        stage_perf
        stage_campaign
        stage_serve
        stage_obs
        stage_perfbench
        echo
        echo "CI OK"
        ;;
    *)
        echo "usage: ci.sh [build|test|style|golden|trace|perf|campaign|serve|obs|perfbench|all]" >&2
        exit 2
        ;;
esac
