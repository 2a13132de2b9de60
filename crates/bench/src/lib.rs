//! # seqdet-bench — the evaluation harness
//!
//! Regenerates every table and figure of the paper's evaluation (§5). Each
//! experiment is a function returning a formatted text table, callable
//! from the `experiments` binary:
//!
//! ```text
//! cargo run -p seqdet-bench --release --bin experiments -- all --scale 10
//! ```
//!
//! | Id       | Paper artifact                                             |
//! |----------|------------------------------------------------------------|
//! | `fig2`   | dataset distributions (events & activities per trace)      |
//! | `table5` | STNM indexing flavors on all Table-4 datasets              |
//! | `fig3`   | STNM flavor scaling on random logs (3 sweeps)              |
//! | `table6` | preprocessing: \[19\] vs Strict vs Indexing vs ES-like       |
//! | `table7` | SC query response vs \[19\] (pattern length 2 / 10)          |
//! | `fig4`   | response time vs pattern length                            |
//! | `table8` | STNM queries: ES-like vs SASE-like vs ours (len 2/5/10)    |
//! | `fig5`   | continuation Accurate vs Fast vs pattern length            |
//! | `fig6`   | continuation response time vs topK                         |
//! | `fig7`   | Hybrid accuracy vs topK                                    |
//!
//! `--scale N` divides every dataset's trace count by `N` (default 10) so
//! the full suite completes on a laptop; `--scale 1` reproduces the paper's
//! dataset sizes. Timings are averaged over [`timing::REPS`] runs as in the
//! paper ("each experiment is repeated 5 times and the average time is
//! presented").

#![forbid(unsafe_code)]

pub mod datasets;
pub mod exp_continuation;
pub mod exp_datasets;
pub mod exp_indexing;
pub mod exp_preprocess;
pub mod exp_query;
pub mod table;
pub mod timing;

use std::fmt::Write as _;

/// All experiment ids, in paper order.
pub const EXPERIMENTS: [&str; 10] =
    ["fig2", "table5", "fig3", "table6", "table7", "fig4", "table8", "fig5", "fig6", "fig7"];

/// Run one experiment by id at the given scale divisor; returns the
/// formatted report. Unknown ids return `None`.
pub fn run_experiment(id: &str, scale: usize) -> Option<String> {
    let mut data = datasets::Datasets::new(scale);
    let out = match id {
        "fig2" => exp_datasets::fig2(&mut data),
        "table5" => exp_indexing::table5(&mut data),
        "fig3" => exp_indexing::fig3(scale),
        "table6" => exp_preprocess::table6(&mut data),
        "table7" => exp_query::table7(&mut data),
        "fig4" => exp_query::fig4(&mut data),
        "table8" => exp_query::table8(&mut data),
        "fig5" => exp_continuation::fig5(&mut data),
        "fig6" => exp_continuation::fig6(&mut data),
        "fig7" => exp_continuation::fig7(&mut data),
        _ => return None,
    };
    let mut report = String::new();
    let _ = writeln!(report, "==> {id} (scale 1/{scale})");
    let _ = writeln!(report, "{out}");
    Some(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_experiment_is_none() {
        assert!(run_experiment("nope", 100).is_none());
    }

    #[test]
    fn experiment_ids_are_unique() {
        let mut ids = EXPERIMENTS.to_vec();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), EXPERIMENTS.len());
    }
}
