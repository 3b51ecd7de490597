//! Rule `wall-clock-in-scheduling`: the virtual-time scheduling path
//! must be a pure function of the seed — a stray `Instant::now()`, an
//! `.elapsed()` (which reads the clock too), or any `SystemTime` read
//! makes a scheduling decision depend on real time. Scheduling code takes `now` as a parameter; the allowlisted
//! exceptions are metrics sampling and wall-clock-mode-only branches,
//! each with a per-site reason.

use crate::diag::Diagnostic;
use crate::engine::FileCtx;
use crate::lexer::TokenKind;

const RULE: &str = "wall-clock-in-scheduling";

pub fn check(ctx: &FileCtx, out: &mut Vec<Diagnostic>) {
    let rule = crate::rules::by_name(RULE);
    for i in 0..ctx.code_len() {
        if crate::rules::skipped(ctx, rule, i) {
            continue;
        }
        let t = ctx.ct(i);
        if t.kind != TokenKind::Ident {
            continue;
        }
        if t.text == "Instant"
            && i + 2 < ctx.code_len()
            && ctx.ct(i + 1).is_punct("::")
            && ctx.ct(i + 2).is_ident("now")
        {
            out.push(diag(ctx, t.line, "`Instant::now()` in a scheduling path — take `now` as a parameter (virtual time) or allow the site as metrics/wall-clock-mode-only"));
        }
        if t.text == "elapsed"
            && i > 0
            && ctx.ct(i - 1).is_punct(".")
            && i + 1 < ctx.code_len()
            && ctx.ct(i + 1).is_punct("(")
        {
            out.push(diag(ctx, t.line, "`.elapsed()` reads the wall clock in a scheduling path — subtract from a `now` parameter instead, or allow the site as metrics-only"));
        }
        if t.text == "SystemTime" {
            out.push(diag(
                ctx,
                t.line,
                "`SystemTime` in a scheduling path — wall-clock time must never reach a \
                 scheduling decision",
            ));
        }
    }
}

fn diag(ctx: &FileCtx, line: u32, message: &str) -> Diagnostic {
    Diagnostic {
        file: ctx.rel.clone(),
        line,
        rule: RULE,
        message: message.to_string(),
    }
}
