//! `seqdet` — command-line front end.
//!
//! ```text
//! seqdet gen      --profile bpi_2013 [--scale N] [--seed S] --out log.csv|log.xes
//! seqdet gen      --random TRACES,EVENTS,ACTS [--seed S] --out log.csv
//! seqdet index    --input log.csv|log.xes --store DIR [--policy sc|stnm]
//!                 [--threads N] [--partition-period P]
//! seqdet info     --store DIR
//! seqdet detect   --store DIR --pattern A,B,C [--any-match]
//! seqdet stats    --store DIR --pattern A,B,C [--all-pairs]
//! seqdet continue --store DIR --pattern A,B --method accurate|fast|hybrid
//!                 [--k N] [--max-gap G]
//! seqdet audit    --store DIR [--json]
//! ```
//!
//! The store directory is a persistent [`seqdet_storage::DiskStore`]; the
//! `index` subcommand can be re-run with new batches of the same log to
//! exercise the paper's incremental update path.

#![forbid(unsafe_code)]

mod args;
mod commands;

use std::process::ExitCode;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match args::parse(&argv) {
        Ok(cmd) => match commands::run(cmd) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        },
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!();
            eprintln!("{}", args::USAGE);
            ExitCode::from(2)
        }
    }
}
