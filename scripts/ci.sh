#!/usr/bin/env sh
# Tier-1 gate: formatting, lints, build, tests. Run from the repo root.
set -eu

echo "== cargo fmt --check =="
cargo fmt --all -- --check

echo "== cargo clippy (deny warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo check (missing_docs promoted to deny) =="
# The workspace lint table sets missing_docs = "warn"; CI refuses it.
RUSTFLAGS="-D missing_docs" cargo check --workspace --all-targets

echo "== cargo doc (deny warnings) =="
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

echo "== cargo build --release =="
cargo build --release --workspace

echo "== cargo test =="
cargo test -q --workspace

echo "== sweep smoke: ablate_walk --jobs 2 =="
# A 5-point sweep fanned over 2 workers; exercises the parallel engine and
# the shape checks end-to-end in well under a second.
cargo run -q --release -p microscope-bench --bin ablate_walk -- --jobs 2

echo "== analyzer smoke: sec8_analyze --audit-defenses =="
# Static plans for all 8 victims, simulator confirmation for 4, and the
# fence audit (zero open windows + no replay amplification) — the
# binary's own shape checks gate the exit code.
cargo run -q --release -p microscope-bench --bin sec8_analyze -- --audit-defenses --jobs 2

echo "== analyzer soundness property =="
cargo test -q --release --test analyze_soundness

echo "== perf bench smoke + BENCH_replay.json schema =="
# Shrunken workloads of the perf-regression harness, written to a scratch
# path so CI never dirties the committed baseline, then schema-validated.
# A missing or malformed emit fails the build; the full-size run (and the
# 3x replays/sec regression gate) is scripts/bench.sh.
BENCH_TMP="${TMPDIR:-/tmp}/BENCH_replay.smoke.json"
rm -f "$BENCH_TMP"
cargo run -q --release -p microscope-bench --bin perf_bench -- --smoke --out "$BENCH_TMP"
test -s "$BENCH_TMP" || { echo "perf_bench emitted nothing" >&2; exit 1; }
cargo run -q --release -p microscope-bench --bin perf_bench -- --validate "$BENCH_TMP"

echo "== checkpoint capture regression gate (3x vs committed baseline) =="
# Capture throughput is footprint-independent (the whole point of the CoW
# engine), so even the smoke run must land within 3x of the committed
# full-mode baseline; a bigger gap means capture went O(footprint) again.
extract_capture_rate() {
    awk -F': ' '/"checkpoint_capture_per_sec"/ { gsub(/[ ,]/, "", $2); print $2 }' "$1"
}
committed=$(extract_capture_rate BENCH_replay.json)
smoke=$(extract_capture_rate "$BENCH_TMP")
test -n "$committed" || { echo "BENCH_replay.json lacks checkpoint_capture_per_sec" >&2; exit 1; }
test -n "$smoke" || { echo "smoke emit lacks checkpoint_capture_per_sec" >&2; exit 1; }
awk -v c="$committed" -v s="$smoke" 'BEGIN {
    if (s * 3 < c) {
        printf "error: smoke checkpoint_capture_per_sec %.0f is more than 3x below the committed %.0f\n", s, c
        exit 1
    }
    printf "capture rate ok: smoke %.0f/s vs committed %.0f/s\n", s, c
}' || exit 1

echo "== checkpoint capture flatness gate (>= 0.5) =="
# capture_flatness_8x is capture throughput with 8x the resident pages over
# throughput at the base footprint: about 1 while capture is O(dirty pages),
# about 0.125 if it degrades to O(pages). It is a ratio of two rates taken
# in the same run, so host speed cancels out.
flatness=$(awk -F': ' '/"capture_flatness_8x"/ { gsub(/[ ,]/, "", $2); print $2 }' "$BENCH_TMP")
test -n "$flatness" || { echo "smoke emit lacks capture_flatness_8x" >&2; exit 1; }
awk -v f="$flatness" 'BEGIN {
    if (f < 0.5) {
        printf "error: smoke capture_flatness_8x %.3f is below 0.5: capture cost grows with resident pages\n", f
        exit 1
    }
    printf "capture flatness ok: %.3f\n", f
}' || exit 1
rm -f "$BENCH_TMP"
# The committed baseline at the repo root must stay parseable too.
cargo run -q --release -p microscope-bench --bin perf_bench -- --validate BENCH_replay.json

echo "== bench emit gate rejects malformed JSON =="
# The same file with a leading zero in one number ("iters": 06), which
# RFC 8259 forbids: the gate must refuse it, not read it as 6.
BENCH_BAD="${TMPDIR:-/tmp}/BENCH_replay.leading-zero.json"
sed 's/"iters": 6,/"iters": 06,/' BENCH_replay.json > "$BENCH_BAD"
grep -q '"iters": 06,' "$BENCH_BAD" || { echo "BENCH_replay.json has no \"iters\": 6 to rewrite" >&2; exit 1; }
if cargo run -q --release -p microscope-bench --bin perf_bench -- --validate "$BENCH_BAD" 2>/dev/null; then
    echo "error: perf_bench --validate accepted a number with a leading zero" >&2
    exit 1
fi
echo "leading-zero emit rejected"
rm -f "$BENCH_BAD"

echo "== perfbench build =="
# perfbench is a package of its own outside the workspace, so the steps
# above never compile it; a probe or core API change could break it unseen.
cargo build --release --offline --manifest-path perfbench/Cargo.toml

echo "== perfbench smoke: fig10_traced =="
# One second of traced Figure-10 ops. Every op checks its report and its
# Chrome-trace export against the set-up's references byte for byte, and
# the last line says whether all of them held.
perfbench_last=$(cargo run -q --release --offline --manifest-path perfbench/Cargo.toml -- \
    --workload fig10_traced --seed 1 --seconds 1 --trace 0 | tail -n 1)
case "$perfbench_last" in
    *'"correct":true'*) echo "perfbench smoke ok" ;;
    *)
        echo "error: perfbench fig10_traced smoke failed: $perfbench_last" >&2
        exit 1
        ;;
esac

echo "== perfbench smoke: fig10_sample =="
# One second of Figure-10 replays from the armed checkpoint, each an
# execute(from_checkpoint().until_monitor_done()) call through the
# session's run driver. Every op checks its report against the set-up's
# reference, and the last line says whether all of them held.
perfbench_last=$(cargo run -q --release --offline --manifest-path perfbench/Cargo.toml -- \
    --workload fig10_sample --seed 1 --seconds 1 --trace 0 | tail -n 1)
case "$perfbench_last" in
    *'"correct":true'*) echo "perfbench smoke ok" ;;
    *)
        echo "error: perfbench fig10_sample smoke failed: $perfbench_last" >&2
        exit 1
        ;;
esac

echo "== perfbench smoke: aes_extract =="
# One second of AES extractions, the workload whose time goes to the OS
# module's Prime+Probe handler. Every op checks the decryption and the
# extraction's recall and precision, and op 0 must equal the set-up's
# reference report.
perfbench_last=$(cargo run -q --release --offline --manifest-path perfbench/Cargo.toml -- \
    --workload aes_extract --seed 1 --seconds 1 --trace 0 | tail -n 1)
case "$perfbench_last" in
    *'"correct":true'*) echo "perfbench smoke ok" ;;
    *)
        echo "error: perfbench aes_extract smoke failed: $perfbench_last" >&2
        exit 1
        ;;
esac

echo "CI OK"
