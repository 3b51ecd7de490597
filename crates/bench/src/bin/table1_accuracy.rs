//! Regenerates paper Table I: accuracy of the W8A8 baseline vs INT8 APSQ
//! at gs = 1..4 on the six GLUE stand-in tasks and the two segmentation
//! stand-ins.
//!
//! Default protocol: one FP teacher + one W8A8 QAT student per task, with
//! the APSQ columns evaluated post-training on the shared student, which
//! isolates the PSUM noise at a third of the compute and upper-bounds the
//! paper's degradation (`apsq_bench::experiments::table1_glue`). Flags:
//! `--quick` reduces the budget, `--steps N` overrides it,
//! `--qat-per-method` restores the paper's full protocol (a separate QAT
//! run per column, ~3× slower).

use apsq_bench::experiments::{table1_glue, table1_glue_qat_per_method, table1_seg, Method};
use apsq_bench::report::{f, Table};
use apsq_nn::GlueTask;

fn main() {
    let opts = apsq_bench::accuracy_options_from_args();
    println!("Table I — Baseline vs APSQ accuracy (synthetic stand-in tasks)");
    println!(
        "config: {} steps x {} sequences, eval {} examples",
        opts.steps, opts.batch, opts.eval_examples
    );
    println!("paper shape: gs=1 lowest; grouping recovers; baseline highest\n");

    let qat_per_method = std::env::args().any(|a| a == "--qat-per-method");
    let glue_rows = if qat_per_method {
        table1_glue_qat_per_method(&opts, &GlueTask::ALL)
    } else {
        table1_glue(&opts, &GlueTask::ALL)
    };
    let mut t = Table::new(&["task", "Baseline", "gs=1", "gs=2", "gs=3", "gs=4"]);
    for row in glue_rows {
        t.row(
            std::iter::once(row.task.clone())
                .chain(row.scores.iter().map(|s| f(*s, 2)))
                .collect(),
        );
        print!("\x1b[2K\r{} done", row.task);
        println!();
    }
    for row in table1_seg(&opts) {
        t.row(
            std::iter::once(format!("{} (mIoU)", row.task))
                .chain(row.scores.iter().map(|s| f(*s, 2)))
                .collect(),
        );
        println!("{} done", row.task);
    }
    println!();
    print!("{}", t.render());
    println!("\ncolumns: {:?}", Method::ALL.map(|m| m.label()));
}
