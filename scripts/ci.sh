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

echo "== perfbench build =="
# perfbench is a package of its own outside the workspace, so the steps
# above never compile it; a probe or core API change could break it unseen.
cargo build --release --offline --manifest-path perfbench/Cargo.toml

# One second of each benchmark workload; the last line says whether every
# op held its checks:
# - fig10_sample: Figure-10 replays from the armed checkpoint, each report
#   checked against the set-up's reference;
# - fig10_traced: the same with the recorder on, each report and its
#   Chrome-trace export checked byte for byte;
# - aes_extract: AES extractions, the workload whose time goes to the OS
#   module's Prime+Probe handler, each checked for the decryption and the
#   extraction's recall and precision.
for workload in fig10_sample fig10_traced aes_extract; do
    echo "== perfbench smoke: $workload =="
    perfbench_last=$(cargo run -q --release --offline --manifest-path perfbench/Cargo.toml -- \
        --workload "$workload" --seed 1 --seconds 1 --trace 0 | tail -n 1)
    case "$perfbench_last" in
        *'"correct":true'*) echo "perfbench $workload smoke ok" ;;
        *)
            echo "error: perfbench $workload smoke failed: $perfbench_last" >&2
            exit 1
            ;;
    esac
done

echo "CI OK"
