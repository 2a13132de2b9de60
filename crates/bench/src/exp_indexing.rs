//! Table 5 and Figure 3: comparing the STNM pair-indexing flavors.

use crate::datasets::Datasets;
use crate::table::{secs, TextTable};
use crate::timing::mean_time_warm;
use seqdet_core::pairs::{total_occurrences, CreatePairs, STNM_FLAVORS};
use seqdet_datagen::RandomLogSpec;
use seqdet_log::EventLog;
use std::fmt::Write as _;

/// Pair creation only — the flavor-specific phase of the build. Table 5
/// and Figure 3 time this in isolation: the index builds with one flavor,
/// and the KV write path, byte-identical across the three, would mask the
/// differences the experiments exist to show on this embedded single-node
/// substrate anyway (the paper's Spark/Cassandra pipeline overlaps storage
/// with computation).
fn create_only(log: &EventLog, create: CreatePairs) -> usize {
    log.traces().map(|t| total_occurrences(&create(t.events()))).sum()
}

/// Table 5: pair-creation time of Indexing / Parsing / State on every
/// Table-4 dataset profile.
pub fn table5(data: &mut Datasets) -> String {
    let mut table = TextTable::new(&["log file", "Indexing", "Parsing", "State"]);
    for name in Datasets::names().collect::<Vec<_>>() {
        let log = data.get(name);
        let mut cells = vec![name.to_string()];
        for (_, create) in STNM_FLAVORS {
            let d = mean_time_warm(crate::timing::REPS, |_| create_only(log, create));
            cells.push(secs(d));
        }
        table.row(cells);
    }
    table.render()
}

/// One Figure-3 sweep: index the given random logs with all three methods.
fn sweep(
    out: &mut String,
    title: &str,
    axis_name: &str,
    specs: &[(usize, RandomLogSpec)],
    reps: usize,
) {
    let _ = writeln!(out, "{title}");
    let mut table = TextTable::new(&[axis_name, "events", "Indexing", "Parsing", "State"]);
    for &(axis, spec) in specs {
        let log = spec.generate();
        let mut cells = vec![axis.to_string(), log.num_events().to_string()];
        for (_, create) in STNM_FLAVORS {
            let d = mean_time_warm(reps, |_| create_only(&log, create));
            cells.push(secs(d));
        }
        table.row(cells);
    }
    out.push_str(&table.render());
    out.push('\n');
}

/// Figure 3: three scaling sweeps over random (non-process) logs.
///
/// At scale 1 the sweeps are the paper's (up to 4M / 5M events); `scale`
/// divides trace counts, per-trace lengths and (for the first two sweeps)
/// the alphabet so the suite stays laptop-sized. Note that shrinking the
/// per-trace length compresses the third plot's high-alphabet end: once
/// traces are shorter than the alphabet, the number of *distinct*
/// activities per trace — what the Parsing flavor actually degrades with —
/// saturates.
pub fn fig3(scale: usize) -> String {
    let s = scale.max(1);
    let div = |x: usize| (x / s).max(1);
    let reps = if s >= 10 { 3 } else { 2 };
    let mut out = String::new();

    // Plot 1: vary events per trace; 1000 traces, 500 activities.
    let events_axis = [100, 500, 1000, 2000, 4000];
    let specs: Vec<(usize, RandomLogSpec)> = events_axis
        .iter()
        .map(|&e| (div(e), RandomLogSpec::new(div(1000), div(e), div(500))))
        .collect();
    sweep(
        &mut out,
        "plot 1: events per trace (1000 traces, 500 activities)",
        "events/trace",
        &specs,
        reps,
    );

    // Plot 2: vary number of traces; 1000 events/trace, 100 activities.
    let traces_axis = [100, 500, 1000, 2500, 5000];
    let specs: Vec<(usize, RandomLogSpec)> = traces_axis
        .iter()
        .map(|&t| (div(t), RandomLogSpec::new(div(t), div(1000), div(100))))
        .collect();
    sweep(
        &mut out,
        "plot 2: number of traces (1000 events/trace, 100 activities)",
        "traces",
        &specs,
        reps,
    );

    // Plot 3: vary distinct activities; 500 traces, 500 events/trace.
    // The per-trace length is divided by at most 2 here (only the trace
    // count absorbs the scale): Parsing's superlinear dependence on the
    // number of *distinct activities per trace* — the effect this plot
    // exists to show — disappears if traces get shorter than the alphabet.
    let acts_axis = [4, 20, 100, 500, 2000];
    let events3 = (500 / s.min(2)).max(1);
    let specs: Vec<(usize, RandomLogSpec)> =
        acts_axis.iter().map(|&a| (a, RandomLogSpec::new(div(500), events3, a))).collect();
    sweep(
        &mut out,
        "plot 3: distinct activities (500 traces, 500 events/trace)",
        "activities",
        &specs,
        reps,
    );

    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table5_covers_all_profiles() {
        let mut data = Datasets::new(500);
        let report = table5(&mut data);
        for name in Datasets::names() {
            assert!(report.contains(name));
        }
    }

    #[test]
    fn fig3_has_three_plots() {
        let report = fig3(100);
        assert!(report.contains("plot 1"));
        assert!(report.contains("plot 2"));
        assert!(report.contains("plot 3"));
    }

    #[test]
    fn all_flavors_create_the_same_pair_count() {
        let log = RandomLogSpec::new(20, 30, 8).generate();
        let counts = STNM_FLAVORS.map(|(_, create)| create_only(&log, create));
        assert!(counts[0] > 0);
        assert!(counts.iter().all(|&c| c == counts[0]), "{counts:?}");
    }
}
