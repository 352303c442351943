//! `repro` — regenerates the paper's figures, tables and ablations from
//! the [`experiments::repro`] registry.
//!
//! `repro <id>… | all [flags]` prints each artefact's detail tables, then
//! its EXPERIMENTS.md summary row; under `--quiet` only the rows, so
//! `repro all --quiet` prints that table. An unknown id or flag exits 2.

use experiments::context::{is_flag, ExpOptions, FLAGS};
use experiments::report::banner;
use experiments::repro::{find, ARTEFACTS, SUMMARY_HEADER};

fn usage() -> String {
    let ids: Vec<&str> = ARTEFACTS.iter().map(|a| a.id).collect();
    format!(
        "usage: repro <id>… | all [--quick | --tiny] [--threads=N] [--quiet] \
         [--telemetry=<dir>]\nids: {}\n",
        ids.join(" ")
    )
}

fn usage_error(message: &str) -> ! {
    eprint!("error: {message}\n{}", usage());
    std::process::exit(2);
}

fn main() {
    let mut selected = Vec::new();
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--help" | "-h" => {
                print!("{}", usage());
                return;
            }
            "all" => selected.extend(ARTEFACTS),
            flag if flag.starts_with('-') && !is_flag(flag, &FLAGS) => {
                usage_error(&format!("unknown flag `{flag}`"))
            }
            flag if flag.starts_with('-') => {}
            id => selected.push(find(id).unwrap_or_else(|| {
                usage_error(&format!("unknown artefact `{id}`"));
            })),
        }
    }
    if selected.is_empty() {
        usage_error("no artefact selected");
    }
    let opts = ExpOptions::from_args();
    let mut rows = Vec::new();
    for artefact in selected {
        let report = (artefact.run)(&opts);
        if !opts.quiet {
            banner(artefact.id, artefact.artefact);
            println!("{}", report.detail);
        }
        rows.push(artefact.summary_row(&report));
    }
    println!("{SUMMARY_HEADER}\n{}", rows.join("\n"));
}
