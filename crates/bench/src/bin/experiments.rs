//! Regenerates the paper's tables and figures.
//!
//! Usage: `cargo run --release -p memscale-bench --bin experiments [NAME…]`
//!
//! With no names, runs every experiment and regenerates `EXPERIMENTS.md`.
//! With names (`table1`, `fig5`, `slo_diurnal`, …), prints only those
//! tables to stdout.

use memscale_bench::exp::{self, HeadlineDataset, PolicyDataset};
use memscale_bench::Table;
use std::cell::OnceCell;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

/// The datasets several experiments share, each built on first use.
#[derive(Default)]
struct Datasets {
    headline: OnceCell<HeadlineDataset>,
    policies: OnceCell<PolicyDataset>,
}

impl Datasets {
    fn headline(&self) -> &HeadlineDataset {
        self.headline.get_or_init(exp::headline_dataset)
    }

    fn policies(&self) -> &PolicyDataset {
        self.policies.get_or_init(exp::policy_dataset)
    }
}

/// Builds one experiment's table.
type Stage = fn(&Datasets) -> Table;

/// Every experiment, in the order `EXPERIMENTS.md` lists them.
const STAGES: &[(&str, Stage)] = &[
    ("table1", |_| exp::table1()),
    ("table2", |_| exp::table2()),
    ("fig2", |_| exp::fig2()),
    ("fig5", |d| exp::fig5(d.headline())),
    ("fig6", |d| exp::fig6(d.headline())),
    ("fig7", |_| exp::fig7()),
    ("fig8", |_| exp::fig8()),
    ("fig9", |d| exp::fig9(d.policies())),
    ("fig10", |d| exp::fig10(d.policies())),
    ("fig11", |d| exp::fig11(d.policies())),
    ("fig12", |_| exp::fig12()),
    ("fig13", |_| exp::fig13()),
    ("fig14", |_| exp::fig14()),
    ("fig15", |_| exp::fig15()),
    ("sens_epoch", |_| exp::sens_epoch()),
    ("sens_cores", |_| exp::sens_cores()),
    ("ext_per_channel", |_| exp::ext_per_channel()),
    ("generations", |_| exp::generations()),
    ("fault_sweep", |_| exp::fault_sweep()),
    ("ablation_row_policy", |_| exp::ablation_row_policy()),
    ("ablation_slack", |_| exp::ablation_slack()),
    ("slo_diurnal", |_| exp::slo_diurnal()),
];

fn main() -> ExitCode {
    let mut stages = Vec::new();
    for name in std::env::args().skip(1) {
        let Some(stage) = STAGES.iter().find(|(stage, _)| *stage == name) else {
            let names: Vec<&str> = STAGES.iter().map(|(stage, _)| *stage).collect();
            eprintln!(
                "error: unknown experiment {name}\n\
                 usage: experiments [NAME...]\n\
                 names: {}",
                names.join(" ")
            );
            return ExitCode::from(2);
        };
        stages.push(stage);
    }
    let all = stages.is_empty();
    if all {
        stages.extend(STAGES);
    }

    let started = Instant::now();
    let datasets = Datasets::default();
    let tables: Vec<Table> = stages
        .into_iter()
        .map(|(name, run)| {
            let t = run(&datasets);
            eprintln!("[{:>7.1?}] {name} done", started.elapsed());
            println!("{}", t.to_markdown());
            t
        })
        .collect();
    if all {
        write_report(&tables);
    }
    eprintln!(
        "total generation time: {:.1} s (single-threaded)",
        started.elapsed().as_secs_f64()
    );
    ExitCode::SUCCESS
}

/// Writes every table to `EXPERIMENTS.md`, under a pass/miss summary. The
/// file depends on the code alone, so a rerun that changes it has changed
/// a reproduced number.
fn write_report(tables: &[Table]) {
    let mut md = String::new();
    let _ = writeln!(md, "# MemScale — Reproduced Experiments\n");
    let _ = writeln!(
        md,
        "Generated by `cargo run --release -p memscale-bench --bin experiments`."
    );
    let _ = writeln!(
        md,
        "Every table/figure of the paper's evaluation is regenerated below; \
         `PASS`/`MISS` notes record whether the paper's qualitative *shape* \
         (who wins, rough factors, crossovers) holds in this reproduction. \
         Absolute values differ from the paper's testbed by design — see \
         DESIGN.md for the substitutions.\n"
    );
    let passes = tables.iter().filter(|t| t.all_checks_pass()).count();
    let _ = writeln!(
        md,
        "**Shape summary: {passes}/{} artifacts pass all their checks.**\n",
        tables.len()
    );
    for t in tables {
        let _ = writeln!(md, "{}", t.to_markdown());
    }
    std::fs::write("EXPERIMENTS.md", md).expect("write EXPERIMENTS.md");
    eprintln!(
        "wrote EXPERIMENTS.md ({passes}/{} artifacts pass)",
        tables.len()
    );
}
