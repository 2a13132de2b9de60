//! Command execution.

use crate::args::Command;
use seqdet_core::{IndexConfig, Indexer};
use seqdet_datagen::{DatasetProfile, RandomLogSpec};
use seqdet_log::{csv, xes, EventLog, Pattern};
use seqdet_query::{ContinuationMethod, QueryEngine};
use seqdet_storage::{DiskOptions, DiskStore, DurabilityPolicy, KvStore, StoreMetrics};
use std::fs::File;
use std::io::{BufReader, BufWriter};
use std::sync::Arc;

/// Boxed error for the CLI surface.
pub type CliError = Box<dyn std::error::Error>;

/// Execute one parsed command.
pub fn run(cmd: Command) -> Result<(), CliError> {
    match cmd {
        Command::Gen { profile, random, scale, seed, out } => {
            gen(profile, random, scale, seed, &out)
        }
        Command::Index {
            input,
            store,
            policy,
            threads,
            partition_period,
            durability,
            retain_segments,
        } => {
            let log = load_log(&input)?;
            let mut cfg = IndexConfig::new(policy).with_threads(threads);
            if let Some(p) = partition_period {
                cfg = cfg.with_partition_period(p);
            }
            let disk = Arc::new(open_store(&store, durability, None, retain_segments)?);
            let mut indexer = Indexer::with_store(disk.clone(), cfg)?;
            // Runs written by size-triggered compaction get real zone maps.
            seqdet_core::install_zone_extractor(&disk);
            let start = std::time::Instant::now();
            let stats = indexer.index_log(&log)?;
            disk.flush()?;
            println!(
                "indexed {} traces / {} new events ({} skipped as duplicates), {} new pairs in {:.3}s",
                stats.traces,
                stats.new_events,
                stats.skipped_events,
                stats.new_pairs,
                start.elapsed().as_secs_f64()
            );
            Ok(())
        }
        Command::Info { store } => {
            let disk = Arc::new(DiskStore::open(&store)?);
            let engine = QueryEngine::new(disk.clone())?;
            println!("store: {store}");
            println!("activities: {}", engine.catalog().num_activities());
            println!("traces: {}", engine.catalog().num_traces());
            let stats = seqdet_core::IndexStats::collect(disk.as_ref())?;
            println!("open traces (Seq rows): {} ({} bytes)", stats.seq_rows, stats.seq_bytes);
            println!(
                "indexed pairs: {} ({} postings, {:.1} per pair, {} bytes, {} partition(s))",
                stats.index_rows,
                stats.postings,
                stats.avg_postings_per_pair(),
                stats.index_bytes,
                stats.partitions
            );
            println!("count rows: {} / reverse {}", stats.count_rows, stats.reverse_count_rows);
            println!("last-checked pairs: {}", stats.last_checked_rows);
            println!("segments on disk: {}", disk.num_segments()?);
            println!("runs on disk: {}", disk.num_runs());
            print_health(&disk);
            Ok(())
        }
        Command::Detect { store, pattern, any_match } => {
            let disk = Arc::new(DiskStore::open(&store)?);
            let engine = QueryEngine::new(disk)?;
            let names: Vec<&str> = pattern.iter().map(String::as_str).collect();
            let p: Pattern = engine.pattern(&names)?;
            if any_match {
                let r = engine.detect_any_match(&p, 3)?;
                println!("{} embeddings in {} traces", r.total(), r.num_traces());
                for t in r.traces.iter().take(20) {
                    println!(
                        "  {}: {} embeddings, e.g. {:?}",
                        engine.catalog().trace_name(t.trace).unwrap_or("?"),
                        t.count,
                        t.examples.first().map(Vec::as_slice).unwrap_or(&[])
                    );
                }
            } else {
                let r = engine.detect(&p)?;
                println!("{} completions in {} traces", r.total_completions(), r.traces().len());
                for m in r.matches.iter().take(20) {
                    println!(
                        "  {} @ {:?}",
                        engine.catalog().trace_name(m.trace).unwrap_or("?"),
                        m.timestamps
                    );
                }
                if r.total_completions() > 20 {
                    println!("  … ({} more)", r.total_completions() - 20);
                }
            }
            Ok(())
        }
        Command::Stats { store, pattern, all_pairs } => {
            let disk = Arc::new(DiskStore::open(&store)?);
            let engine = QueryEngine::new(disk)?;
            let names: Vec<&str> = pattern.iter().map(String::as_str).collect();
            let p: Pattern = engine.pattern(&names)?;
            let s = if all_pairs { engine.stats_all_pairs(&p)? } else { engine.stats(&p)? };
            for ps in &s.pairs {
                println!(
                    "  ({}, {}): {} completions, avg duration {:.2}, last at {:?}",
                    engine.catalog().activity_name(ps.pair.0).unwrap_or("?"),
                    engine.catalog().activity_name(ps.pair.1).unwrap_or("?"),
                    ps.completions,
                    ps.avg_duration,
                    ps.last_completion
                );
            }
            println!("whole-pattern completions ≤ {}", s.max_completions);
            println!("estimated whole-pattern duration ≈ {:.2}", s.est_duration);
            Ok(())
        }
        Command::Audit { store, json } => {
            let outcome = seqdet_core::audit_disk(std::path::Path::new(&store))?;
            if json {
                println!("{}", outcome.to_json());
            } else {
                print!("{}", outcome.to_text());
            }
            if outcome.ok() {
                Ok(())
            } else {
                Err("audit found violations".into())
            }
        }
        Command::Compact { store, retention, retain_segments } => {
            let disk = open_store(&store, DurabilityPolicy::default(), None, retain_segments)?;
            seqdet_core::install_zone_extractor(&disk);
            let start = std::time::Instant::now();
            disk.compact()?;
            println!(
                "compacted into {} run(s) ({} segment(s) remain) in {:.3}s",
                disk.num_runs(),
                disk.num_segments()?,
                start.elapsed().as_secs_f64()
            );
            if let Some(ttl) = retention {
                match seqdet_core::expire_runs(&disk, ttl)? {
                    Some(e) => println!(
                        "retention: dropped {} run(s) older than {} (newest {}, ttl {ttl})",
                        e.dropped, e.cutoff, e.newest
                    ),
                    None => println!("retention: no runs carry time zones; nothing to expire"),
                }
            }
            Ok(())
        }
        Command::Scrub { store } => {
            let disk = DiskStore::open(&store)?;
            let start = std::time::Instant::now();
            let outcome = disk.scrub();
            println!(
                "scrubbed {} run(s), {} newly quarantined in {:.3}s",
                outcome.runs_checked,
                outcome.newly_quarantined,
                start.elapsed().as_secs_f64()
            );
            print_health(&disk);
            // Nonzero exit while *any* quarantine is live, not just fresh
            // ones: open() already quarantines damage it finds, and a cron
            // invocation must keep failing until the store is repaired.
            if !disk.quarantine().is_empty() {
                Err("store has quarantined runs (see above; run `seqdet repair`)".into())
            } else {
                Ok(())
            }
        }
        Command::Repair { store, retain_segments } => {
            let disk = open_store(&store, DurabilityPolicy::default(), None, retain_segments)?;
            seqdet_core::install_zone_extractor(&disk);
            let start = std::time::Instant::now();
            let outcome = disk.repair()?;
            if outcome.repaired > 0 {
                // Repair changes query-visible contents: invalidate
                // generation-stamped caches, exactly like retention drops.
                seqdet_core::indexer::bump_index_generation(&disk)?;
            }
            println!(
                "repaired {} quarantined run(s) ({}) in {:.3}s",
                outcome.repaired,
                if outcome.full_history {
                    "lossless: rebuilt from the full segment history"
                } else {
                    "bounded loss: rebuilt from surviving runs and the live delta"
                },
                start.elapsed().as_secs_f64()
            );
            print_health(&disk);
            Ok(())
        }
        Command::Query { store, statement } => {
            let disk = Arc::new(DiskStore::open(&store)?);
            let engine = QueryEngine::new(disk.clone())?;
            let catalog = seqdet_core::Catalog::load(disk.as_ref())?;
            let output = seqdet_query::lang::run(&engine, &statement)?;
            print!("{}", seqdet_server::render::render(&catalog, &output));
            Ok(())
        }
        Command::Serve {
            store,
            addr,
            workers,
            queue,
            timeout_ms,
            max_requests_per_conn,
            durability,
            scrub_interval_ms,
            retain_segments,
        } => {
            // Share one metrics handle between the store and the server so
            // `/stats/server` reports real batch/fsync/degraded counters.
            let metrics = Arc::new(StoreMetrics::new());
            let disk = Arc::new(open_store(
                &store,
                durability,
                Some(Arc::clone(&metrics)),
                retain_segments,
            )?);
            seqdet_core::install_zone_extractor(&disk);
            // Background scrubber (off by default): periodically re-reads
            // every run so bit rot surfaces as quarantine between queries,
            // not inside one. The handle stops the thread on shutdown.
            let _scrubber = if scrub_interval_ms > 0 {
                Some(DiskStore::spawn_scrubber(
                    Arc::clone(&disk),
                    std::time::Duration::from_millis(scrub_interval_ms),
                    std::time::Duration::from_millis(1),
                )?)
            } else {
                None
            };
            let timeout = std::time::Duration::from_millis(timeout_ms);
            let config = seqdet_server::ServeConfig {
                workers,
                queue_depth: queue,
                read_timeout: timeout,
                write_timeout: timeout,
                max_requests_per_conn,
                ..seqdet_server::ServeConfig::default()
            };
            let n_workers = config.effective_workers();
            let server = seqdet_server::QueryServer::bind_with_metrics(
                addr.as_str(),
                disk,
                config,
                metrics,
            )?;
            println!("seqdet query service listening on {}", server.local_addr()?);
            println!("workers={n_workers} queue={queue} timeout={timeout_ms}ms");
            println!("try: curl 'http://{addr}/query?q=DETECT%20a%20-%3E%20b'");
            server.serve_forever()?;
            Ok(())
        }
        Command::Continue { store, pattern, method, k, max_gap } => {
            let disk = Arc::new(DiskStore::open(&store)?);
            let engine = QueryEngine::new(disk)?;
            let names: Vec<&str> = pattern.iter().map(String::as_str).collect();
            let p: Pattern = engine.pattern(&names)?;
            let m = match method.as_str() {
                "fast" => ContinuationMethod::Fast,
                "hybrid" => ContinuationMethod::Hybrid { k, max_gap },
                _ => ContinuationMethod::Accurate { max_gap },
            };
            let props = engine.continuations(&p, m)?;
            println!("{:<20} {:>12} {:>12} {:>10}", "activity", "completions", "avg dur", "score");
            for pr in props.iter().take(15) {
                println!(
                    "{:<20} {:>12} {:>12.2} {:>10.4}",
                    engine.catalog().activity_name(pr.activity).unwrap_or("?"),
                    pr.completions,
                    pr.avg_duration,
                    pr.score()
                );
            }
            Ok(())
        }
    }
}

fn gen(
    profile: Option<String>,
    random: Option<(usize, usize, usize)>,
    scale: usize,
    seed: u64,
    out: &str,
) -> Result<(), CliError> {
    let log = match (profile, random) {
        (Some(name), None) => {
            let p = DatasetProfile::by_name(&name)
                .ok_or_else(|| format!("unknown profile {name:?}"))?;
            p.scaled(scale).generate_seeded(seed)
        }
        (None, Some((traces, events, acts))) => {
            RandomLogSpec { traces, events_per_trace: events, activities: acts, seed }.generate()
        }
        _ => unreachable!("parser enforces exactly one source"),
    };
    save_log(&log, out)?;
    println!(
        "wrote {} traces / {} events / {} activities to {out}",
        log.num_traces(),
        log.num_events(),
        log.num_activities()
    );
    Ok(())
}

fn open_store(
    dir: &str,
    durability: DurabilityPolicy,
    metrics: Option<Arc<StoreMetrics>>,
    retain_segments: bool,
) -> Result<DiskStore, CliError> {
    Ok(DiskStore::open_with(
        dir,
        DiskOptions { durability, metrics, retain_segments, ..DiskOptions::default() },
    )?)
}

/// Print the store's failure state: the sticky degraded reason (writes
/// refused) and the quarantine ledger (answers narrowed), or a single
/// healthy line when neither applies.
fn print_health(disk: &DiskStore) {
    let degraded = KvStore::degraded(disk);
    let quarantine = disk.quarantine();
    if degraded.is_none() && quarantine.is_empty() {
        println!("health: ok (full coverage)");
        return;
    }
    if let Some(reason) = degraded {
        println!("health: DEGRADED (writes refused): {reason}");
    }
    if !quarantine.is_empty() {
        println!(
            "health: NARROWED — {} run(s) quarantined; answers may be missing rows \
             until `seqdet repair`",
            quarantine.len()
        );
        for e in quarantine.entries() {
            let records = e
                .records
                .map(|n| format!("{n} record(s)"))
                .unwrap_or_else(|| "unknown record count".to_owned());
            println!(
                "  table {} run {:06}: {} ({records}) at {}",
                e.table.0,
                e.id,
                e.reason,
                e.path.display()
            );
        }
    }
}

fn load_log(path: &str) -> Result<EventLog, CliError> {
    let reader = BufReader::new(File::open(path)?);
    if path.ends_with(".xes") {
        Ok(xes::read_xes(reader)?)
    } else {
        Ok(csv::read_csv(reader)?)
    }
}

fn save_log(log: &EventLog, path: &str) -> Result<(), CliError> {
    let writer = BufWriter::new(File::create(path)?);
    if path.ends_with(".xes") {
        xes::write_xes(log, writer)?;
    } else {
        csv::write_csv(log, writer)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use seqdet_core::catalog::put_meta;
    use seqdet_core::{CoreError, Policy};
    use seqdet_query::QueryError;

    #[test]
    fn info_refuses_a_legacy_posting_format_store() {
        let dir = std::env::temp_dir().join(format!("seqdet-cli-legacy-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let disk = DiskStore::open(&dir).unwrap();
            put_meta(&disk, "config:policy", Policy::SkipTillNextMatch.name()).unwrap();
            put_meta(&disk, "config:posting_format", "v1").unwrap();
            disk.flush().unwrap();
        }
        let err = run(Command::Info { store: dir.to_string_lossy().into_owned() }).unwrap_err();
        assert!(
            matches!(
                err.downcast_ref::<QueryError>(),
                Some(QueryError::Core(CoreError::ConfigMismatch { .. }))
            ),
            "{err}"
        );
        assert!(err.to_string().contains("re-index from the source log"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
