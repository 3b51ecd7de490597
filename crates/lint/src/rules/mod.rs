//! The rule registry. Each rule walks one file's [`FileCtx`]; the
//! intrinsics rule additionally aggregates crate-wide facts for its
//! feature-coverage check.

use crate::diag::Diagnostic;
use crate::engine::FileCtx;
use std::collections::{BTreeMap, BTreeSet};

pub mod collections;
pub mod float_reduction;
pub mod intrinsics;
pub mod libm;
pub mod lock_discipline;
pub mod unsafe_doc;
pub mod wall_clock;

/// One registered rule.
pub struct Rule {
    /// Stable name, used in diagnostics, allow directives, and docs.
    pub name: &'static str,
    /// One-line description (`--list-rules`, docs table).
    pub desc: &'static str,
    /// Whether inline `#[cfg(test)]`/`#[test]` regions are exempt.
    pub skips_tests: bool,
    /// The per-file check.
    pub check: fn(&FileCtx, &mut Vec<Diagnostic>),
}

/// All rules, in documentation order.
pub const RULES: &[Rule] = &[
    Rule {
        name: "undocumented-unsafe",
        desc: "every `unsafe` block/fn/impl carries a `// SAFETY:` (or doc `# Safety`) comment",
        skips_tests: false,
        check: unsafe_doc::check,
    },
    Rule {
        name: "float-reduction-outside-kernels",
        desc: "f32/f64 sum()/additive-fold/`+=`-in-loop reductions only in pinned-order kernel \
               modules or explicitly annotated helpers",
        skips_tests: true,
        check: float_reduction::check,
    },
    Rule {
        name: "nondeterministic-collections",
        desc: "no std HashMap/HashSet in fingerprint-affecting modules — BTreeMap/BTreeSet or a \
               per-site allow proving iteration never escapes",
        skips_tests: true,
        check: collections::check,
    },
    Rule {
        name: "lock-hold-discipline",
        desc: "no gather/decode/GEMM/execute call while a block-pool mutation guard is live",
        skips_tests: true,
        check: lock_discipline::check,
    },
    Rule {
        name: "wall-clock-in-scheduling",
        desc: "Instant::now/.elapsed()/SystemTime forbidden in virtual-time scheduling paths \
               (metrics sampling allowlisted per site)",
        skips_tests: true,
        check: wall_clock::check,
    },
    Rule {
        name: "intrinsics-gating",
        desc: "every core::arch intrinsic call sits in a #[target_feature] fn whose feature has \
               a runtime is_x86_feature_detected! dispatch site in the same crate",
        skips_tests: false,
        check: intrinsics::check,
    },
    Rule {
        name: "libm-transcendental",
        desc: "no libm exp/exp_m1/tanh/ln/ln_1p/sin/cos in library code outside the kernel \
               modules — the tensor kernels' exp/tanh are the same on every host",
        skips_tests: true,
        check: libm::check,
    },
];

/// Whether `name` names a registered rule (or the directive meta-rule).
pub fn is_known_rule(name: &str) -> bool {
    name == "allow-directive" || RULES.iter().any(|r| r.name == name)
}

/// Crate-wide facts for the intrinsics feature-coverage check:
/// which `#[target_feature]` features each crate enables (with an
/// anchor site) and which it runtime-detects.
#[derive(Default)]
pub struct CrateScan {
    /// crate key -> feature -> first (file, line) that enables it.
    pub enabled: BTreeMap<String, BTreeMap<String, (String, u32)>>,
    /// crate key -> features with an `is_x86_feature_detected!` site.
    pub detected: BTreeMap<String, BTreeSet<String>>,
}

/// The crate a workspace-relative path belongs to (`crates/<name>` or
/// the façade root).
pub fn crate_of(rel: &str) -> String {
    if let Some(rest) = rel.strip_prefix("crates/") {
        if let Some(slash) = rest.find('/') {
            return format!("crates/{}", &rest[..slash]);
        }
    }
    String::new()
}

/// Shared helper: whether the code position should be skipped for a
/// rule (test region if the rule exempts them, macro_rules! body
/// always).
pub fn skipped(ctx: &FileCtx, rule: &Rule, code_pos: usize) -> bool {
    ctx.in_macro_def[code_pos] || (rule.skips_tests && ctx.in_test[code_pos])
}

/// Looks up the registry entry by name (rules reference their own
/// metadata through this to share the skip policy).
pub fn by_name(name: &str) -> &'static Rule {
    RULES
        .iter()
        .find(|r| r.name == name)
        .expect("rule registered")
}
