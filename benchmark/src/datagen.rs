//! Inputs from the seed: event logs as CSV batches, query lists, and the
//! in-memory log the baselines' oracles scan.
//!
//! The *process* behind a workload (which activity may follow which) is
//! part of the workload's identity, so it is fixed: the transition graph is
//! the one the repository's own Table-4 replica uses
//! (`DatasetProfile::generate`). The seed draws what a new day of traffic
//! changes — the cases, their lengths, timestamps and attribute values.
//! Seeding the graph too would make one workload name cover stores whose
//! row counts differ severalfold.
//!
//! The short query lists (`bulk_hot`, `rich_verify`, `trickle_mixed`) are
//! fixed per workload as well: a few hundred statements whose costs span
//! three orders of magnitude are too small a sample to redraw per seed —
//! measured over ten seeds, redrawing moved `query_p50_us` by 14-26 % and
//! `query_p95_us` by 10-19 %, several times the run-to-run noise, while the
//! store underneath changed by 2 %. The questions asked of a process stay,
//! the cases change. `wide_cold`'s 5000 patterns average out and are drawn
//! per seed over the pairs that seed's log actually holds.

use crate::spec::Workload;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use seqdet_datagen::random::activity_name;
use seqdet_datagen::{DatasetProfile, MarkovProcess};
use seqdet_log::{Activity, EventLog, EventLogBuilder};
use seqdet_storage::FxHasher;
use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::hash::Hasher;

/// Seed of the process graph `DatasetProfile::generate()` simulates.
const PROCESS_SEED: u64 = 0xBEEF ^ 0x51ED;

/// Seed of the query lists that do not depend on `--seed`.
const QUERY_SEED: u64 = 0x5155_4552_5945_5321;

/// First timestamp any case may start at (2020-09-13, epoch seconds).
const BASE_TS: u64 = 1_600_000_000;

/// One event before it becomes a CSV row.
#[derive(Debug, Clone, Copy)]
struct RawEvent {
    act: usize,
    ts: u64,
    amount: i64,
}

#[derive(Debug, Clone)]
struct RawTrace {
    name: String,
    events: Vec<RawEvent>,
}

/// One ingest unit: CSV text as a log shipper would deliver it.
#[derive(Debug, Clone)]
pub struct Batch {
    pub csv: Vec<u8>,
    pub events: usize,
}

/// Everything one run feeds the system, a pure function of
/// `(workload, seed, shrink)`.
#[derive(Debug)]
pub struct Inputs {
    /// Bulk ingest batches. For `trickle_mixed` these build the base store
    /// and are not part of the ingest metric.
    pub base: Vec<Batch>,
    /// `trickle_mixed` only: the small commits, one per round.
    pub rounds: Vec<Batch>,
    /// The fixed query list every pass, burst and HTTP loop cycles through.
    pub queries: Vec<String>,
    /// The log once every batch is in; what the oracles scan.
    pub oracle: EventLog,
}

impl Inputs {
    /// Events in the batches the ingest metric times.
    pub fn timed_events(&self) -> usize {
        self.timed_batches().iter().map(|b| b.events).sum()
    }

    /// CSV bytes in the batches the ingest metric times.
    pub fn timed_csv_bytes(&self) -> usize {
        self.timed_batches().iter().map(|b| b.csv.len()).sum()
    }

    pub fn timed_batches(&self) -> &[Batch] {
        if self.rounds.is_empty() {
            &self.base
        } else {
            &self.rounds
        }
    }

    /// A hash over every input byte: equal inputs, equal fingerprint.
    pub fn fingerprint(&self) -> u64 {
        let mut h = FxHasher::default();
        for b in self.base.iter().chain(&self.rounds) {
            h.write(&b.csv);
            h.write_u8(0xff);
        }
        for q in &self.queries {
            h.write(q.as_bytes());
            h.write_u8(0xff);
        }
        h.finish()
    }
}

/// Sizes of one workload at full scale.
struct Shape {
    profile: &'static str,
    /// Divisor applied to the profile's trace count.
    divisor: usize,
    /// Ingest batches the log is cut into.
    batches: usize,
    /// Length of the query list.
    queries: usize,
    /// `trickle_mixed`: rounds of (small commit, query burst).
    rounds: usize,
    with_amount: bool,
}

fn shape(workload: Workload) -> Shape {
    match workload {
        Workload::BulkHot => Shape {
            profile: "bpi_2017",
            divisor: 10,
            batches: BULK_BATCHES,
            queries: 400,
            rounds: 0,
            with_amount: false,
        },
        Workload::WideCold => Shape {
            profile: "max_10000",
            divisor: 8,
            batches: BULK_BATCHES,
            // 5000 patterns read ~7500 rows per pass, ~6000 of them distinct:
            // 1.5x the 4096-entry posting cache, so a cycling pass keeps
            // evicting what it will need again.
            queries: 5000,
            rounds: 0,
            with_amount: false,
        },
        Workload::RichVerify => Shape {
            profile: "bpi_2017",
            divisor: 20,
            batches: BULK_BATCHES,
            queries: 200,
            rounds: 0,
            with_amount: true,
        },
        Workload::TrickleMixed => Shape {
            profile: "bpi_2017",
            divisor: 20,
            batches: 10,
            queries: 100,
            rounds: 90,
            with_amount: false,
        },
    }
}

/// Batches a bulk log is cut into. The count is part of the workload: every
/// commit rewrites whole `Count`/`LastChecked` rows, so the same log in 120
/// batches ingests at a third of the rate it does in 40.
const BULK_BATCHES: usize = 40;

/// Whole new cases each trickle round brings besides extending known ones.
const NEW_TRACES_PER_ROUND: usize = 2;

/// Share of a known case's events already in the base store before the
/// trickle rounds extend it.
const BASE_PREFIX_SHARE: f64 = 0.55;

/// Generate the inputs of `workload` for `seed`. `shrink` divides every
/// size (1 = the benchmark's size; the smoke tests use a toy size).
pub fn generate(workload: Workload, seed: u64, shrink: usize) -> Inputs {
    let shrink = shrink.max(1);
    let shape = shape(workload);
    let profile = DatasetProfile::by_name(shape.profile)
        .expect("workload shapes name Table-4 profiles")
        .scaled(shape.divisor * shrink);
    let rounds = if shape.rounds == 0 { 0 } else { (shape.rounds / shrink).max(3) };
    // Never fewer traces than the trickle split needs.
    let traces = profile.traces.max(rounds * (NEW_TRACES_PER_ROUND + 1) + 8);
    let process = MarkovProcess::generate(profile.activities, PROCESS_SEED);
    let raw = generate_traces(&process, &profile, traces, seed);
    let oracle = build_log(&raw, shape.with_amount);
    let (base, rounds) = if rounds == 0 {
        (cut_batches(&raw, shape.batches, shape.with_amount), Vec::new())
    } else {
        trickle_batches(&raw, shape.batches, rounds)
    };
    let count = (shape.queries / shrink).max(12);
    let queries = {
        let mut fixed = StdRng::seed_from_u64(QUERY_SEED);
        let mut patterns = walk_pattern(&process, &profile, &oracle, &mut fixed);
        match workload {
            Workload::BulkHot | Workload::TrickleMixed => {
                let mut list = mixed_queries(count, &mut patterns);
                list.shuffle(&mut StdRng::seed_from_u64(QUERY_SEED));
                list
            }
            Workload::RichVerify => rich_queries(count, &mut patterns),
            Workload::WideCold => {
                pair_queries(&oracle, count, &mut StdRng::seed_from_u64(seed ^ QUERY_SEED))
            }
        }
    };
    Inputs { base, rounds, queries, oracle }
}

/// Cases of the profile's process: lengths from the profile's clamped
/// log-normal (the calibration `DatasetProfile::generate_seeded` uses),
/// activities from a walk of the fixed transition graph, minutes-apart
/// timestamps and a uniform `amount` per event.
fn generate_traces(
    process: &MarkovProcess,
    profile: &DatasetProfile,
    traces: usize,
    seed: u64,
) -> Vec<RawTrace> {
    let mut rng = StdRng::seed_from_u64(seed);
    let sigma: f64 = 0.6;
    let mu = profile.mean_len.max(1.0).ln() - sigma * sigma / 2.0;
    let (lo, hi) = (profile.min_len.max(1) as i64, profile.max_len.max(1) as i64);
    (0..traces)
        .map(|t| {
            let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
            let u2: f64 = rng.gen_range(0.0..1.0);
            let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
            let len = ((mu + sigma * z).exp().round() as i64).clamp(lo, hi) as usize;
            let mut ts = BASE_TS + rng.gen_range(0..30 * 86_400u64);
            let events = process
                .walk(len, &mut rng)
                .into_iter()
                .map(|act| {
                    ts += rng.gen_range(60..=1800u64);
                    RawEvent { act, ts, amount: rng.gen_range(0..1000i64) }
                })
                .collect();
            RawTrace { name: format!("case-{t}"), events }
        })
        .collect()
}

fn build_log(raw: &[RawTrace], with_amount: bool) -> EventLog {
    let mut b = EventLogBuilder::new();
    for t in raw {
        for e in &t.events {
            b.add(&t.name, &activity_name(e.act), e.ts);
            if with_amount {
                b.attr("amount", e.amount);
            }
        }
    }
    b.build()
}

fn csv_rows(out: &mut String, trace: &RawTrace, events: &[RawEvent], with_amount: bool) {
    for e in events {
        let _ = write!(out, "{},{},{}", trace.name, activity_name(e.act), e.ts);
        if with_amount {
            let _ = write!(out, ",amount={}", e.amount);
        }
        out.push('\n');
    }
}

const CSV_HEADER: &str = "trace,activity,timestamp\n";

/// Cut the log into `batches` batches of whole traces with (nearly) equal
/// event counts.
fn cut_batches(raw: &[RawTrace], batches: usize, with_amount: bool) -> Vec<Batch> {
    let total: usize = raw.iter().map(|t| t.events.len()).sum();
    let batches = batches.clamp(1, raw.len().max(1));
    let mut out = Vec::with_capacity(batches);
    let (mut csv, mut events, mut done) = (String::from(CSV_HEADER), 0usize, 0usize);
    for t in raw {
        csv_rows(&mut csv, t, &t.events, with_amount);
        events += t.events.len();
        // Close the batch once the running total reaches its equal share.
        if done + events >= total * (out.len() + 1) / batches && out.len() + 1 < batches {
            done += events;
            out.push(Batch { csv: std::mem::replace(&mut csv, CSV_HEADER.into()).into(), events });
            events = 0;
        }
    }
    if events > 0 {
        out.push(Batch { csv: csv.into(), events });
    }
    out
}

/// Split the log for `trickle_mixed`: the base store holds the first part
/// of every known case; round `r` then appends the rest of every
/// `rounds`-th known case plus a few whole new cases.
fn trickle_batches(
    raw: &[RawTrace],
    base_batches: usize,
    rounds: usize,
) -> (Vec<Batch>, Vec<Batch>) {
    let known = &raw[..raw.len() - rounds * NEW_TRACES_PER_ROUND];
    let fresh = &raw[known.len()..];
    let cut = |t: &RawTrace| ((t.events.len() as f64 * BASE_PREFIX_SHARE).ceil() as usize).max(1);
    let prefixes: Vec<RawTrace> = known
        .iter()
        .map(|t| RawTrace { name: t.name.clone(), events: t.events[..cut(t)].to_vec() })
        .collect();
    let base = cut_batches(&prefixes, base_batches, false);
    let rounds = (0..rounds)
        .map(|r| {
            let mut csv = String::from(CSV_HEADER);
            let mut events = 0;
            for t in known.iter().skip(r).step_by(rounds) {
                let tail = &t.events[cut(t)..];
                csv_rows(&mut csv, t, tail, false);
                events += tail.len();
            }
            for t in &fresh[r * NEW_TRACES_PER_ROUND..(r + 1) * NEW_TRACES_PER_ROUND] {
                csv_rows(&mut csv, t, &t.events, false);
                events += t.events.len();
            }
            Batch { csv: csv.into(), events }
        })
        .collect();
    (base, rounds)
}

fn arrows(names: &[String]) -> String {
    names.join(" -> ")
}

/// Activity names of a pattern that a case of this process can contain:
/// `len` events, in order, of a fresh walk of the mean case length. A walk
/// through an activity that this seed's log happens not to hold is drawn
/// again (the statement would be refused as a typo); at benchmark size every
/// reachable activity occurs, so the list is the same for every seed.
fn walk_pattern<'a>(
    process: &'a MarkovProcess,
    profile: &DatasetProfile,
    log: &'a EventLog,
    rng: &'a mut StdRng,
) -> impl FnMut(usize) -> Vec<String> + 'a {
    let case_len = (profile.mean_len as usize).max(1);
    move |len| loop {
        let walk = process.walk(case_len.max(len), rng);
        let mut at: Vec<usize> = (0..walk.len()).collect();
        at.shuffle(rng);
        at.truncate(len);
        at.sort_unstable();
        let names: Vec<String> = at.into_iter().map(|i| activity_name(walk[i])).collect();
        if names.iter().all(|n| log.activity(n).is_some()) {
            return names;
        }
    }
}

/// The `bulk_hot` mix: 70 % plain `DETECT` of patterns of length 2-5, 15 %
/// `STATS`, 15 % `CONTINUE … USING hybrid`. Lengths cycle rather than being
/// drawn.
fn mixed_queries(count: usize, pattern: &mut impl FnMut(usize) -> Vec<String>) -> Vec<String> {
    let stats = count * 15 / 100;
    let cont = count * 15 / 100;
    let detect = count - stats - cont;
    let mut out = Vec::with_capacity(count);
    for i in 0..detect {
        out.push(format!("DETECT {}", arrows(&pattern(2 + i % 4))));
    }
    for i in 0..stats {
        out.push(format!("STATS {}", arrows(&pattern(2 + i % 3))));
    }
    for i in 0..cont {
        out.push(format!("CONTINUE {} USING hybrid", arrows(&pattern(1 + i % 3))));
    }
    out
}

/// The `wide_cold` list: distinct length-2 and length-3 `DETECT` patterns
/// drawn uniformly over the pairs the index holds (every ordered pair that
/// occurs in some trace), so each query reads rows that exist and few reads
/// repeat.
fn pair_queries(log: &EventLog, count: usize, rng: &mut StdRng) -> Vec<String> {
    let n = log.num_activities();
    let mut seen = vec![false; n * n];
    for t in log.traces() {
        let ev = t.events();
        for (i, a) in ev.iter().enumerate() {
            for b in &ev[i + 1..] {
                seen[a.activity.index() * n + b.activity.index()] = true;
            }
        }
    }
    let pairs: Vec<(usize, usize)> =
        (0..n * n).filter(|&i| seen[i]).map(|i| (i / n, i % n)).collect();
    let successors: Vec<Vec<usize>> =
        (0..n).map(|a| (0..n).filter(|&b| seen[a * n + b]).collect()).collect();
    let mut chosen: BTreeSet<Vec<usize>> = BTreeSet::new();
    let mut out = Vec::with_capacity(count);
    // Bounded: a toy log may hold fewer distinct patterns than asked for.
    for attempt in 0..count * 20 {
        if out.len() == count || pairs.is_empty() {
            break;
        }
        let &(a, b) = pairs.choose(rng).expect("non-empty");
        let mut acts = vec![a, b];
        if attempt % 2 == 1 {
            match successors[b].choose(rng) {
                Some(&c) => acts.push(c),
                None => continue,
            }
        }
        if chosen.insert(acts.clone()) {
            let names: Vec<String> = acts
                .into_iter()
                .map(|a| log.activity_name(Activity(a as u32)).unwrap_or("?").to_owned())
                .collect();
            out.push(format!("DETECT {}", arrows(&names)));
        }
    }
    out
}

/// The `rich_verify` list: four rich shapes over triples, each through
/// `DETECT` and through `ANY MATCH`.
fn rich_queries(count: usize, pattern: &mut impl FnMut(usize) -> Vec<String>) -> Vec<String> {
    (0..count)
        .map(|i| {
            let p = pattern(3);
            let (a, b, c) = (&p[0], &p[1], &p[2]);
            let body = match i % 4 {
                0 => format!("{a} {b}+ {c}"),
                1 => format!("{a} !{b} {c}"),
                2 => format!("{a} -> {b} -> {c} WITHIN 2h"),
                _ => format!("{a}[amount>500] -> {b}"),
            };
            let any = if (i / 4) % 2 == 1 { " ANY MATCH" } else { "" };
            format!("DETECT {body}{any}")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batches_cover_the_log_once() {
        for w in Workload::ALL {
            let inputs = generate(w, 3, 40);
            let events: usize = inputs.base.iter().chain(&inputs.rounds).map(|b| b.events).sum();
            assert_eq!(events, inputs.oracle.num_events(), "{}", w.name());
            assert!(!inputs.queries.is_empty());
            assert!(inputs.timed_events() > 0);
        }
    }

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        for w in Workload::ALL {
            let a = generate(w, 11, 40).fingerprint();
            assert_eq!(a, generate(w, 11, 40).fingerprint(), "{}", w.name());
            assert_ne!(a, generate(w, 12, 40).fingerprint(), "{}", w.name());
        }
    }

    #[test]
    fn trickle_rounds_extend_known_cases() {
        let inputs = generate(Workload::TrickleMixed, 5, 10);
        assert!(inputs.rounds.len() >= 3);
        let base_text: String =
            inputs.base.iter().map(|b| String::from_utf8_lossy(&b.csv).into_owned()).collect();
        let round = String::from_utf8_lossy(&inputs.rounds[0].csv).into_owned();
        let extended = round
            .lines()
            .skip(1)
            .filter(|l| {
                let case = l.split(',').next().unwrap();
                base_text.contains(&format!("\n{case},"))
            })
            .count();
        assert!(extended * 2 > round.lines().count(), "most rows extend cases in the base");
    }
}
