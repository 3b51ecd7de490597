#!/usr/bin/env bash
# Local mirror of .github/workflows/ci.yml — run before pushing.
# Any command failing fails the script, exactly like the CI gate.
set -euo pipefail

cd "$(dirname "$0")/.."

echo "==> cargo fmt --all -- --check"
cargo fmt --all -- --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings -W clippy::undocumented_unsafe_blocks"
cargo clippy --workspace --all-targets -- -D warnings -W clippy::undocumented_unsafe_blocks

echo "==> apsq-lint: fixture suite + repo-invariant walk"
cargo test -q --release -p apsq-lint
cargo run -p apsq-lint --release

echo "==> cargo doc --workspace --no-deps  (RUSTDOCFLAGS=-D warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "==> cargo build --release --workspace"
cargo build --release --workspace

echo "==> cargo build --examples"
cargo build --examples

echo "==> cargo build --release --offline --manifest-path perfbench/Cargo.toml  (benchmark package, outside the workspace)"
cargo build --release --offline --manifest-path perfbench/Cargo.toml

echo "==> cargo test -q --workspace"
cargo test -q --workspace

echo "==> cargo test -q --release -p apsq-nn --lib  (release-gated QAT tests)"
cargo test -q --release -p apsq-nn --lib

echo "==> cargo test -q --release -p apsq-nn --test proptest_int8  (int8 == fake-quant bit-identity)"
cargo test -q --release -p apsq-nn --test proptest_int8

echo "==> cargo test -q --release -p apsq-tensor  (engine kernels at release opt)"
cargo test -q --release -p apsq-tensor

echo "==> exhaustive exp/tanh/quantize_i8 sweeps: AVX2 builds == scalar bodies on all 2^32 inputs"
cargo test -q --release -p apsq-tensor --lib -- --ignored exp_and_tanh_avx2_builds_are_the_body_on_every_input quantize_i8_avx2_build_is_the_body_on_every_input

echo "==> overflow-checked release: tensor kernels, APSQ fold (i32 lane + i64 fallback), fused Int8Linear proof + int8 datapath wrap loudly"
RUSTFLAGS="-C overflow-checks" cargo test -q --release -p apsq-tensor
RUSTFLAGS="-C overflow-checks" cargo test -q --release -p apsq-quant
RUSTFLAGS="-C overflow-checks" cargo test -q --release -p apsq-core
RUSTFLAGS="-C overflow-checks" cargo test -q --release -p apsq-rae
RUSTFLAGS="-C overflow-checks" cargo test -q --release -p apsq-nn --test proptest_int8
RUSTFLAGS="-C overflow-checks" cargo test -q --release -p apsq-nn --test proptest_paged
RUSTFLAGS="-C overflow-checks" cargo test -q --release -p apsq-nn --test proptest_decode
RUSTFLAGS="-C overflow-checks" cargo test -q --release -p apsq-nn --lib -- int8 decode::

echo "==> scalar-forced backend: tensor, APSQ, simulator, prefill + int8 suites on the portable fallback"
APSQ_KERNEL_BACKEND=scalar cargo test -q --release -p apsq-tensor
APSQ_KERNEL_BACKEND=scalar cargo test -q --release -p apsq-quant
APSQ_KERNEL_BACKEND=scalar cargo test -q --release -p apsq-core
APSQ_KERNEL_BACKEND=scalar cargo test -q --release -p apsq-rae
APSQ_KERNEL_BACKEND=scalar cargo test -q --release -p apsq-accel
APSQ_KERNEL_BACKEND=scalar cargo test -q --release -p apsq-models
APSQ_KERNEL_BACKEND=scalar cargo test -q --release -p apsq-nn --test proptest_int8
APSQ_KERNEL_BACKEND=scalar cargo test -q --release -p apsq-nn --test proptest_paged
APSQ_KERNEL_BACKEND=scalar cargo test -q --release -p apsq-nn --test proptest_decode
APSQ_KERNEL_BACKEND=scalar cargo test -q --release -p apsq-nn --lib -- int8 decode::

echo "==> SSE2-forced backend: tensor (incl. exp/tanh bodies), APSQ, simulator, prefill, int8 + paged suites, pinned fingerprints"
APSQ_KERNEL_BACKEND=sse2 cargo test -q --release -p apsq-tensor
APSQ_KERNEL_BACKEND=sse2 cargo test -q --release -p apsq-core
APSQ_KERNEL_BACKEND=sse2 cargo test -q --release -p apsq-accel
APSQ_KERNEL_BACKEND=sse2 cargo test -q --release -p apsq-models
APSQ_KERNEL_BACKEND=sse2 cargo test -q --release -p apsq-nn --test proptest_int8
APSQ_KERNEL_BACKEND=sse2 cargo test -q --release -p apsq-nn --test proptest_paged
APSQ_KERNEL_BACKEND=sse2 cargo test -q --release -p apsq-nn --test proptest_decode
APSQ_KERNEL_BACKEND=sse2 cargo test -q --release -p apsq-nn --lib -- int8 decode::
APSQ_KERNEL_BACKEND=sse2 cargo test -q --release -p apsq-serve --test determinism

echo "==> cargo test -q --release -p apsq-serve  (server, scheduler, determinism + overload suites at release opt)"
cargo test -q --release -p apsq-serve

echo "==> block-pool contention: stress + determinism at 8 workers, overflow-checked"
RUSTFLAGS="-C overflow-checks" APSQ_STRESS_WORKERS=8 cargo test -q --release -p apsq-serve --test stress_concurrent
RUSTFLAGS="-C overflow-checks" APSQ_STRESS_WORKERS=8 cargo test -q --release -p apsq-serve --test determinism
RUSTFLAGS="-C overflow-checks" cargo test -q --release -p apsq-nn --lib -- paged decode::
RUSTFLAGS="-C overflow-checks" cargo test -q --release -p apsq-nn --test proptest_paged

echo "==> bench smoke: engine_speedup --quick (writes BENCH_matmul.json)"
cargo run -q --release -p apsq-bench --bin engine_speedup -- --quick --out target/BENCH_matmul.smoke.json

echo "==> bench smoke: serve_bench --quick (writes BENCH_serve.json)"
cargo run -q --release -p apsq-bench --bin serve_bench -- --quick --out target/BENCH_serve.smoke.json

echo "==> bench smoke: overload_bench --quick (open-loop SLO sweep + knee/accounting asserts)"
cargo run -q --release -p apsq-bench --bin overload_bench -- --quick --out target/BENCH_overload.smoke.json

echo "==> bench smoke: quant_bench --quick (writes BENCH_quant.json)"
cargo run -q --release -p apsq-bench --bin quant_bench -- --quick --out target/BENCH_quant.smoke.json

echo "==> serve example smoke (with the overload burst demo)"
cargo run -q --release --example serve_traffic -- --quick --overload

echo "All checks passed."
