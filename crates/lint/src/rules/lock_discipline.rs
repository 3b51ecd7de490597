//! Rule `lock-hold-discipline`: the block-pool mutation lock is a
//! *short* lock — holding it across a gather, a decode step, or any
//! GEMM serializes every worker behind one matmul (and calling a
//! `BlockPool` entry point that re-locks internally deadlocks).
//!
//! The rule finds every `.lock()` call, derives the guard's live range
//! (a `let`-bound guard lives to the end of its enclosing block or an
//! explicit `drop(guard)`; a temporary dies at the statement's `;`),
//! and flags execution-entry-point calls inside that range:
//! identifiers starting with `gather_`, `decode_`, `execute_`,
//! `forward_`, or one of the `ExecEngine` compute methods' prefixes
//! (`gemm`, `matmul`, `int8_matmul`, `im2col`, `conv2d`) that are
//! invoked (next token `(`).

use crate::diag::Diagnostic;
use crate::engine::FileCtx;
use crate::lexer::TokenKind;

const RULE: &str = "lock-hold-discipline";

const BANNED_PREFIXES: &[&str] = &[
    "gather_",
    "decode_",
    "execute_",
    "forward_",
    // Every `ExecEngine` compute method: `gemm`, `gemm_k_tiles`,
    // `matmul{,_bt,_at}`, `int8_matmul{,_bt}`, `im2col`, `conv2d_i8_gemm`.
    "gemm",
    "matmul",
    "int8_matmul",
    "im2col",
    "conv2d",
];

pub fn check(ctx: &FileCtx, out: &mut Vec<Diagnostic>) {
    let rule = crate::rules::by_name(RULE);
    let n = ctx.code_len();
    let tok = |i: usize| ctx.ct(i);

    for i in 0..n {
        if crate::rules::skipped(ctx, rule, i) {
            continue;
        }
        // Match `.lock()`.
        if !(tok(i).is_punct(".")
            && i + 3 < n
            && tok(i + 1).is_ident("lock")
            && tok(i + 2).is_punct("(")
            && tok(i + 3).is_punct(")"))
        {
            continue;
        }
        let lock_line = tok(i + 1).line;

        // Walk back to the statement start to see whether the guard is
        // `let`-bound (lives to end of scope) or temporary (dies at `;`).
        let mut s = i;
        while s > 0 {
            let t = tok(s - 1);
            if t.is_punct(";") || t.is_punct("{") || t.is_punct("}") || t.is_punct(",") {
                break;
            }
            s -= 1;
        }
        let is_let = tok(s).is_ident("let");
        let bound_name = if is_let {
            let mut j = s + 1;
            if j < n && tok(j).is_ident("mut") {
                j += 1;
            }
            (j < n && tok(j).kind == TokenKind::Ident).then(|| tok(j).text.clone())
        } else {
            None
        };

        // Guard live range (code positions).
        let start = i + 4;
        let mut end = if is_let {
            let open = ctx.enclosing_open[i];
            if open == usize::MAX {
                n.saturating_sub(1)
            } else {
                ctx.close_of(open)
            }
        } else {
            let mut j = start;
            let mut depth = 0isize;
            while j < n {
                let t = tok(j);
                if t.is_punct("(") || t.is_punct("[") || t.is_punct("{") {
                    depth += 1;
                } else if t.is_punct(")") || t.is_punct("]") || t.is_punct("}") {
                    depth -= 1;
                    if depth < 0 {
                        break;
                    }
                } else if t.is_punct(";") && depth == 0 {
                    break;
                }
                j += 1;
            }
            j
        };

        // An explicit `drop(guard)` ends a let-bound guard early.
        if let Some(name) = &bound_name {
            for j in start..end.min(n.saturating_sub(3)) {
                if tok(j).is_ident("drop")
                    && tok(j + 1).is_punct("(")
                    && tok(j + 2).is_ident(name)
                    && tok(j + 3).is_punct(")")
                {
                    end = j;
                    break;
                }
            }
        }

        // Flag execution entry points invoked inside the live range.
        for j in start..end.min(n) {
            let t = tok(j);
            if t.kind != TokenKind::Ident {
                continue;
            }
            let banned = BANNED_PREFIXES.iter().any(|p| t.text.starts_with(p));
            if !banned {
                continue;
            }
            let is_call = j + 1 < n && tok(j + 1).is_punct("(");
            let is_decl = j > 0 && tok(j - 1).is_ident("fn");
            if is_call && !is_decl {
                out.push(Diagnostic {
                    file: ctx.rel.clone(),
                    line: t.line,
                    rule: RULE,
                    message: format!(
                        "`{}(…)` called while the pool guard from line {} is live — release the \
                         mutation lock before gathers/GEMMs/decode (scope the guard or `drop` it)",
                        t.text, lock_line
                    ),
                });
            }
        }
    }
}
