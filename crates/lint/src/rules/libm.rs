//! Rule `libm-transcendental`: `f32::exp` and its kin call the platform
//! libm, and libms round them differently, so a value that reaches a
//! fingerprint through one is only reproducible on hosts whose libm
//! matches. The workspace's `exp` and `tanh` are the tensor kernels'
//! (`apsq_tensor::lanes::{exp_f32, tanh_f32}`), bit for bit the same on
//! every host, so the rule flags
//!
//! 1. method calls `.exp()`, `.exp_m1()`, `.tanh()`, `.ln()`,
//!    `.ln_1p()`, `.sin()`, `.cos()`;
//! 2. the paths `f32::exp`, `f64::ln`, … to the same functions.
//!
//! Correctly rounded operations (`sqrt`, `mul_add`) and the power-of-two
//! helpers (`exp2`, `log2`) are not flagged. The libm calls that remain
//! (`ln`/`cos` in weight init and traffic, `ln` in the losses) carry
//! per-site allows until they get kernels of their own.

use crate::diag::Diagnostic;
use crate::engine::FileCtx;
use crate::lexer::TokenKind;

const RULE: &str = "libm-transcendental";

/// The flagged functions.
const NAMES: &[&str] = &["exp", "exp_m1", "tanh", "ln", "ln_1p", "sin", "cos"];

pub fn check(ctx: &FileCtx, out: &mut Vec<Diagnostic>) {
    let rule = crate::rules::by_name(RULE);
    let n = ctx.code_len();
    for i in 1..n {
        if crate::rules::skipped(ctx, rule, i) {
            continue;
        }
        let t = ctx.ct(i);
        if t.kind != TokenKind::Ident || !NAMES.contains(&t.text.as_str()) {
            continue;
        }
        let prev = ctx.ct(i - 1);
        let method = prev.is_punct(".") && i + 1 < n && ctx.ct(i + 1).is_punct("(");
        let path = prev.is_punct("::")
            && i >= 2
            && (ctx.ct(i - 2).is_ident("f32") || ctx.ct(i - 2).is_ident("f64"));
        if method || path {
            out.push(Diagnostic {
                file: ctx.rel.clone(),
                line: t.line,
                rule: RULE,
                message: format!(
                    "libm `{}` rounds per platform — use `apsq_tensor::lanes::{{exp_f32, \
                     tanh_f32}}` or allow the site with the reason it may stay on libm",
                    t.text
                ),
            });
        }
    }
}
