//! Rule scoping: which paths each rule applies to in this repository.
//!
//! The scoping table is part of the lint's contract and is documented in
//! `docs/ARCHITECTURE.md` ("Statically-enforced invariants"). Fixture
//! tests run with [`LintConfig::fixture`], which puts every rule in
//! scope everywhere so rules can be exercised from standalone files.

/// How the engine scopes rules to paths.
#[derive(Clone, Copy, Debug)]
pub struct LintConfig {
    /// `true` for the real repository walk (path scoping + skip lists
    /// active); `false` for fixture files (every rule everywhere).
    pub repo_scoped: bool,
}

impl LintConfig {
    /// The configuration the `apsq-lint` binary runs with.
    pub fn repo() -> Self {
        LintConfig { repo_scoped: true }
    }

    /// Fixture mode: all rules apply to any path.
    pub fn fixture() -> Self {
        LintConfig { repo_scoped: false }
    }

    /// Directories the workspace walk never descends into: build output,
    /// the vendored dependency stubs (external API mirrors, not our
    /// invariants), and the lint fixtures (intentional violations).
    pub fn skip_dir(component_path: &str) -> bool {
        component_path == "target"
            || component_path == ".git"
            || component_path == "crates/vendor"
            || component_path == "crates/lint/tests/fixtures"
    }

    /// Test/bench/example/bin context by path: determinism rules guard
    /// the serving datapath, not the harnesses that measure it.
    fn is_harness_path(rel: &str) -> bool {
        rel.starts_with("tests/")
            || rel.starts_with("examples/")
            || rel.contains("/tests/")
            || rel.contains("/benches/")
            || rel.contains("/examples/")
            || rel.contains("/src/bin/")
    }

    /// Whether `rule` applies to the file at `rel` at all. Inline
    /// `#[cfg(test)]` regions are additionally skipped per-rule by the
    /// engine (see [`crate::rules::skipped`]).
    pub fn in_scope(&self, rule: &str, rel: &str) -> bool {
        if !self.repo_scoped {
            return true;
        }
        match rule {
            // Unsafe hygiene and intrinsics gating hold everywhere,
            // tests included: a test with an undocumented unsafe block
            // or an ungated intrinsic is as wrong as library code.
            "undocumented-unsafe" | "intrinsics-gating" => true,
            // Float reductions: library code only, and never inside the
            // pinned-reduction-order modules — the kernel backends and
            // the axis-reduction module are where the one blessed
            // accumulation order lives.
            "float-reduction-outside-kernels" => {
                !Self::is_harness_path(rel)
                    && !rel.starts_with("crates/tensor/src/kernels/")
                    && rel != "crates/tensor/src/reduce.rs"
            }
            // Platform-rounded libm calls: library code only, outside the
            // kernel modules that define the workspace's own `exp`/`tanh`
            // (their provenance tests compare against libm on purpose).
            "libm-transcendental" => {
                !Self::is_harness_path(rel) && !rel.starts_with("crates/tensor/src/kernels/")
            }
            // Hash collections are banned where iteration order could
            // reach a response, a fingerprint, or an eviction decision:
            // the whole serve scheduler/session/traffic layer plus the
            // paged-KV hash-consing module.
            "nondeterministic-collections" => {
                (rel.starts_with("crates/serve/src/") || rel == "crates/nn/src/paged.rs")
                    && !Self::is_harness_path(rel)
            }
            // The block-pool mutation lock must never be held across a
            // GEMM/gather/decode; serve and nn are where pool guards and
            // execution entry points coexist.
            "lock-hold-discipline" => {
                (rel.starts_with("crates/serve/src/") || rel.starts_with("crates/nn/src/"))
                    && !Self::is_harness_path(rel)
            }
            // Wall-clock reads are banned in the virtual-time scheduling
            // path: the scheduler state machine and its thread driver,
            // batcher, session manager, block pool. (The closed-loop
            // loadgen and open-loop trafficgen pace real time by design
            // and are out of scope.)
            "wall-clock-in-scheduling" => matches!(
                rel,
                "crates/serve/src/scheduler.rs"
                    | "crates/serve/src/server.rs"
                    | "crates/serve/src/batcher.rs"
                    | "crates/serve/src/session.rs"
                    | "crates/nn/src/paged.rs"
            ),
            _ => true,
        }
    }
}
