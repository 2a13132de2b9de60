//! Hand-rolled argument parsing (no external CLI crate is available).

use seqdet_core::Policy;
use seqdet_storage::DurabilityPolicy;

/// Usage text printed on parse errors and `--help`.
pub const USAGE: &str = "\
usage:
  seqdet gen      --profile NAME [--scale N] [--seed S] --out FILE.{csv,xes}
  seqdet gen      --random TRACES,EVENTS,ACTS [--seed S] --out FILE.{csv,xes}
  seqdet index    --input FILE.{csv,xes} --store DIR [--policy sc|stnm]
                  [--threads N] [--partition-period P]
                  [--durability always|batch|os] [--retain-segments]
  seqdet info     --store DIR
  seqdet detect   --store DIR --pattern A,B,C [--any-match]
  seqdet stats    --store DIR --pattern A,B,C [--all-pairs]
  seqdet continue --store DIR --pattern A,B --method accurate|fast|hybrid
                  [--k N] [--max-gap G]
  seqdet query    --store DIR \"DETECT a -> b [WITHIN n] [ANY MATCH]\"
  seqdet audit    --store DIR [--json]
  seqdet compact  --store DIR [--retention TTL] [--retain-segments]
  seqdet scrub    --store DIR
  seqdet repair   --store DIR [--retain-segments]
  seqdet serve    --store DIR [--addr 127.0.0.1:7878] [--workers N]
                  [--queue N] [--timeout-ms T] [--max-requests-per-conn N]
                  [--durability always|batch|os] [--scrub-interval-ms T]
                  [--retain-segments]
profiles: max_100 max_500 med_5000 max_5000 max_1000 max_10000 min_10000
          bpi_2013 bpi_2020 bpi_2017";

/// Parsed command.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Generate a dataset.
    Gen {
        /// Table-4 profile name (mutually exclusive with `random`).
        profile: Option<String>,
        /// `(traces, events_per_trace, activities)` random-log spec.
        random: Option<(usize, usize, usize)>,
        /// Trace-count divisor for profiles.
        scale: usize,
        /// RNG seed.
        seed: u64,
        /// Output path (`.csv` or `.xes`).
        out: String,
    },
    /// Index (or incrementally extend) a store from a log file.
    Index {
        /// Input log path.
        input: String,
        /// Store directory.
        store: String,
        /// SC or STNM.
        policy: Policy,
        /// Worker threads (0 = all).
        threads: usize,
        /// Optional §3.1.3 partition period.
        partition_period: Option<u64>,
        /// Fsync policy of the store's write path.
        durability: DurabilityPolicy,
        /// Keep compaction-superseded segments as a repair log, making
        /// `seqdet repair` lossless at the cost of disk space.
        retain_segments: bool,
    },
    /// Print store summary.
    Info {
        /// Store directory.
        store: String,
    },
    /// Pattern detection.
    Detect {
        /// Store directory.
        store: String,
        /// Comma-separated activity names.
        pattern: Vec<String>,
        /// Use skip-till-any-match instead of the index policy.
        any_match: bool,
    },
    /// Statistics query.
    Stats {
        /// Store directory.
        store: String,
        /// Comma-separated activity names.
        pattern: Vec<String>,
        /// Use the all-pairs (tighter) bound.
        all_pairs: bool,
    },
    /// Verify segment checksums and the five-table invariants of a store.
    Audit {
        /// Store directory.
        store: String,
        /// Emit the report as JSON instead of text.
        json: bool,
    },
    /// Compact a store's segments into sorted immutable runs, optionally
    /// dropping runs whose newest timestamp has aged past a TTL.
    Compact {
        /// Store directory.
        store: String,
        /// Optional retention TTL (same unit as event timestamps): runs
        /// entirely older than `newest run timestamp − TTL` are dropped.
        retention: Option<u64>,
        /// Keep the superseded segments on disk as a repair log instead of
        /// deleting them once their rows are in runs.
        retain_segments: bool,
    },
    /// Re-verify every live run file against its checksum, quarantining
    /// any that rotted at rest.
    Scrub {
        /// Store directory.
        store: String,
    },
    /// Rebuild the run tier after quarantine events (lossless when the
    /// full segment history was retained, bounded-loss otherwise).
    Repair {
        /// Store directory.
        store: String,
        /// Keep superseded segments from now on, so future repairs are
        /// lossless.
        retain_segments: bool,
    },
    /// Run a query-language statement.
    Query {
        /// Store directory.
        store: String,
        /// The statement text.
        statement: String,
    },
    /// Start the HTTP query service.
    Serve {
        /// Store directory.
        store: String,
        /// Listen address.
        addr: String,
        /// Worker-pool size (0 = all cores).
        workers: usize,
        /// Bounded connection-queue depth (overflow sheds with 503).
        queue: usize,
        /// Read/write deadline per connection, in milliseconds.
        timeout_ms: u64,
        /// Keep-alive request cap per connection.
        max_requests_per_conn: usize,
        /// Fsync policy of the store's write path.
        durability: DurabilityPolicy,
        /// Background scrub cadence in milliseconds (`0` disables the
        /// scrubber thread).
        scrub_interval_ms: u64,
        /// Keep compaction-superseded segments as a repair log.
        retain_segments: bool,
    },
    /// Pattern continuation.
    Continue {
        /// Store directory.
        store: String,
        /// Comma-separated activity names.
        pattern: Vec<String>,
        /// accurate | fast | hybrid.
        method: String,
        /// `topK` for hybrid.
        k: usize,
        /// Optional max gap for accurate/hybrid.
        max_gap: Option<u64>,
    },
}

/// Parse failure with a human-readable message.
pub type ParseError = String;

struct Cursor<'a> {
    args: &'a [String],
    i: usize,
}

impl<'a> Cursor<'a> {
    fn value(&mut self, flag: &str) -> Result<String, ParseError> {
        self.i += 1;
        self.args.get(self.i).cloned().ok_or_else(|| format!("flag {flag} expects a value"))
    }
}

fn parse_usize(s: &str, what: &str) -> Result<usize, ParseError> {
    s.parse().map_err(|_| format!("invalid {what}: {s:?}"))
}

fn parse_u64(s: &str, what: &str) -> Result<u64, ParseError> {
    s.parse().map_err(|_| format!("invalid {what}: {s:?}"))
}

fn split_pattern(s: &str) -> Vec<String> {
    s.split(',').map(|p| p.trim().to_string()).filter(|p| !p.is_empty()).collect()
}

/// Parse the full argument vector (without the program name).
pub fn parse(args: &[String]) -> Result<Command, ParseError> {
    let sub = args.first().ok_or_else(|| "missing subcommand".to_string())?;
    let mut cur = Cursor { args, i: 0 };
    match sub.as_str() {
        "gen" => {
            let (mut profile, mut random, mut scale, mut seed, mut out) =
                (None, None, 1usize, 42u64, None);
            while cur.i + 1 < args.len() {
                cur.i += 1;
                match args[cur.i].as_str() {
                    "--profile" => profile = Some(cur.value("--profile")?),
                    "--random" => {
                        let v = cur.value("--random")?;
                        let parts: Vec<&str> = v.split(',').collect();
                        if parts.len() != 3 {
                            return Err("--random expects TRACES,EVENTS,ACTS".into());
                        }
                        random = Some((
                            parse_usize(parts[0], "traces")?,
                            parse_usize(parts[1], "events per trace")?,
                            parse_usize(parts[2], "activities")?,
                        ));
                    }
                    "--scale" => scale = parse_usize(&cur.value("--scale")?, "scale")?,
                    "--seed" => seed = parse_u64(&cur.value("--seed")?, "seed")?,
                    "--out" => out = Some(cur.value("--out")?),
                    other => return Err(format!("unknown flag {other} for gen")),
                }
            }
            if profile.is_some() == random.is_some() {
                return Err("gen needs exactly one of --profile / --random".into());
            }
            let out = out.ok_or_else(|| "gen requires --out".to_string())?;
            Ok(Command::Gen { profile, random, scale: scale.max(1), seed, out })
        }
        "index" => {
            let (mut input, mut store) = (None, None);
            let mut policy = Policy::SkipTillNextMatch;
            let mut threads = 0usize;
            let mut partition_period = None;
            let mut durability = DurabilityPolicy::default();
            let mut retain_segments = false;
            while cur.i + 1 < args.len() {
                cur.i += 1;
                match args[cur.i].as_str() {
                    "--input" => input = Some(cur.value("--input")?),
                    "--retain-segments" => retain_segments = true,
                    "--store" => store = Some(cur.value("--store")?),
                    "--policy" => {
                        policy = match cur.value("--policy")?.as_str() {
                            "sc" => Policy::StrictContiguity,
                            "stnm" => Policy::SkipTillNextMatch,
                            other => return Err(format!("unknown policy {other:?}")),
                        }
                    }
                    "--threads" => threads = parse_usize(&cur.value("--threads")?, "threads")?,
                    "--partition-period" => {
                        partition_period =
                            Some(parse_u64(&cur.value("--partition-period")?, "period")?)
                    }
                    "--durability" => durability = parse_durability(&cur.value("--durability")?)?,
                    other => return Err(format!("unknown flag {other} for index")),
                }
            }
            Ok(Command::Index {
                input: input.ok_or_else(|| "index requires --input".to_string())?,
                store: store.ok_or_else(|| "index requires --store".to_string())?,
                policy,
                threads,
                partition_period,
                durability,
                retain_segments,
            })
        }
        "query" => {
            let (mut store, mut statement) = (None, None);
            while cur.i + 1 < args.len() {
                cur.i += 1;
                match args[cur.i].as_str() {
                    "--store" => store = Some(cur.value("--store")?),
                    other if statement.is_none() && !other.starts_with("--") => {
                        statement = Some(other.to_owned())
                    }
                    other => return Err(format!("unknown flag {other} for query")),
                }
            }
            Ok(Command::Query {
                store: store.ok_or_else(|| "query requires --store".to_string())?,
                statement: statement.ok_or_else(|| "query requires a statement".to_string())?,
            })
        }
        "compact" => {
            let (mut store, mut retention) = (None, None);
            let mut retain_segments = false;
            while cur.i + 1 < args.len() {
                cur.i += 1;
                match args[cur.i].as_str() {
                    "--store" => store = Some(cur.value("--store")?),
                    "--retention" => {
                        retention = Some(parse_u64(&cur.value("--retention")?, "retention TTL")?)
                    }
                    "--retain-segments" => retain_segments = true,
                    other => return Err(format!("unknown flag {other} for compact")),
                }
            }
            Ok(Command::Compact {
                store: store.ok_or_else(|| "compact requires --store".to_string())?,
                retention,
                retain_segments,
            })
        }
        "scrub" => {
            let mut store = None;
            while cur.i + 1 < args.len() {
                cur.i += 1;
                match args[cur.i].as_str() {
                    "--store" => store = Some(cur.value("--store")?),
                    other => return Err(format!("unknown flag {other} for scrub")),
                }
            }
            Ok(Command::Scrub { store: store.ok_or_else(|| "scrub requires --store".to_string())? })
        }
        "repair" => {
            let (mut store, mut retain_segments) = (None, false);
            while cur.i + 1 < args.len() {
                cur.i += 1;
                match args[cur.i].as_str() {
                    "--store" => store = Some(cur.value("--store")?),
                    "--retain-segments" => retain_segments = true,
                    other => return Err(format!("unknown flag {other} for repair")),
                }
            }
            Ok(Command::Repair {
                store: store.ok_or_else(|| "repair requires --store".to_string())?,
                retain_segments,
            })
        }
        "audit" => {
            let (mut store, mut json) = (None, false);
            while cur.i + 1 < args.len() {
                cur.i += 1;
                match args[cur.i].as_str() {
                    "--store" => store = Some(cur.value("--store")?),
                    "--json" => json = true,
                    other => return Err(format!("unknown flag {other} for audit")),
                }
            }
            Ok(Command::Audit {
                store: store.ok_or_else(|| "audit requires --store".to_string())?,
                json,
            })
        }
        "serve" => {
            let (mut store, mut addr) = (None, "127.0.0.1:7878".to_owned());
            let (mut workers, mut queue) = (0usize, 256usize);
            let mut timeout_ms = 10_000u64;
            let mut max_requests_per_conn = 1000usize;
            let mut durability = DurabilityPolicy::default();
            let mut scrub_interval_ms = 0u64;
            let mut retain_segments = false;
            while cur.i + 1 < args.len() {
                cur.i += 1;
                match args[cur.i].as_str() {
                    "--store" => store = Some(cur.value("--store")?),
                    "--addr" => addr = cur.value("--addr")?,
                    "--workers" => workers = parse_usize(&cur.value("--workers")?, "workers")?,
                    "--queue" => {
                        queue = parse_usize(&cur.value("--queue")?, "queue depth")?;
                        if queue == 0 {
                            return Err("--queue must be at least 1".into());
                        }
                    }
                    "--timeout-ms" => {
                        timeout_ms = parse_u64(&cur.value("--timeout-ms")?, "timeout")?;
                        if timeout_ms == 0 {
                            return Err("--timeout-ms must be at least 1".into());
                        }
                    }
                    "--max-requests-per-conn" => {
                        max_requests_per_conn =
                            parse_usize(&cur.value("--max-requests-per-conn")?, "request cap")?;
                        if max_requests_per_conn == 0 {
                            return Err("--max-requests-per-conn must be at least 1".into());
                        }
                    }
                    "--durability" => durability = parse_durability(&cur.value("--durability")?)?,
                    "--scrub-interval-ms" => {
                        scrub_interval_ms =
                            parse_u64(&cur.value("--scrub-interval-ms")?, "scrub interval")?;
                    }
                    "--retain-segments" => retain_segments = true,
                    other => return Err(format!("unknown flag {other} for serve")),
                }
            }
            Ok(Command::Serve {
                store: store.ok_or_else(|| "serve requires --store".to_string())?,
                addr,
                workers,
                queue,
                timeout_ms,
                max_requests_per_conn,
                durability,
                scrub_interval_ms,
                retain_segments,
            })
        }
        "info" | "detect" | "stats" | "continue" => {
            let (mut store, mut pattern) = (None, Vec::new());
            let mut any_match = false;
            let mut all_pairs = false;
            let mut method = "accurate".to_string();
            let mut k = 5usize;
            let mut max_gap = None;
            while cur.i + 1 < args.len() {
                cur.i += 1;
                match args[cur.i].as_str() {
                    "--store" => store = Some(cur.value("--store")?),
                    "--pattern" => pattern = split_pattern(&cur.value("--pattern")?),
                    "--any-match" => any_match = true,
                    "--all-pairs" => all_pairs = true,
                    "--method" => method = cur.value("--method")?,
                    "--k" => k = parse_usize(&cur.value("--k")?, "k")?,
                    "--max-gap" => max_gap = Some(parse_u64(&cur.value("--max-gap")?, "max gap")?),
                    other => return Err(format!("unknown flag {other} for {sub}")),
                }
            }
            let store = store.ok_or_else(|| format!("{sub} requires --store"))?;
            match sub.as_str() {
                "info" => Ok(Command::Info { store }),
                "detect" => {
                    require_pattern(&pattern, "detect")?;
                    Ok(Command::Detect { store, pattern, any_match })
                }
                "stats" => {
                    require_pattern(&pattern, "stats")?;
                    Ok(Command::Stats { store, pattern, all_pairs })
                }
                _ => {
                    require_pattern(&pattern, "continue")?;
                    if !["accurate", "fast", "hybrid"].contains(&method.as_str()) {
                        return Err(format!("unknown continuation method {method:?}"));
                    }
                    Ok(Command::Continue { store, pattern, method, k, max_gap })
                }
            }
        }
        "--help" | "-h" | "help" => Err("help requested".into()),
        other => Err(format!("unknown subcommand {other:?}")),
    }
}

fn parse_durability(s: &str) -> Result<DurabilityPolicy, ParseError> {
    DurabilityPolicy::from_name(s)
        .ok_or_else(|| format!("unknown durability policy {s:?} (use always|batch|os)"))
}

fn require_pattern(pattern: &[String], sub: &str) -> Result<(), ParseError> {
    if pattern.is_empty() {
        return Err(format!("{sub} requires --pattern A,B,…"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parse_gen_profile() {
        let c = parse(&argv("gen --profile bpi_2013 --scale 10 --out x.csv")).unwrap();
        match c {
            Command::Gen { profile, random, scale, out, .. } => {
                assert_eq!(profile.as_deref(), Some("bpi_2013"));
                assert!(random.is_none());
                assert_eq!(scale, 10);
                assert_eq!(out, "x.csv");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parse_gen_random() {
        let c = parse(&argv("gen --random 100,50,10 --out x.xes --seed 7")).unwrap();
        match c {
            Command::Gen { random, seed, .. } => {
                assert_eq!(random, Some((100, 50, 10)));
                assert_eq!(seed, 7);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn gen_requires_exactly_one_source() {
        assert!(parse(&argv("gen --out x.csv")).is_err());
        assert!(parse(&argv("gen --profile a --random 1,1,1 --out x.csv")).is_err());
        assert!(parse(&argv("gen --profile a")).is_err()); // no --out
    }

    #[test]
    fn parse_index_defaults() {
        let c = parse(&argv("index --input a.csv --store dir")).unwrap();
        match c {
            Command::Index { policy, threads, partition_period, .. } => {
                assert_eq!(policy, Policy::SkipTillNextMatch);
                assert_eq!(threads, 0);
                assert!(partition_period.is_none());
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parse_index_full() {
        let c = parse(&argv(
            "index --input a.xes --store d --policy sc --threads 2 --partition-period 100",
        ))
        .unwrap();
        match c {
            Command::Index { policy, threads, partition_period, .. } => {
                assert_eq!(policy, Policy::StrictContiguity);
                assert_eq!(threads, 2);
                assert_eq!(partition_period, Some(100));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parse_detect_and_pattern_split() {
        let c = parse(&argv("detect --store d --pattern A,B,C --any-match")).unwrap();
        match c {
            Command::Detect { pattern, any_match, .. } => {
                assert_eq!(pattern, ["A", "B", "C"]);
                assert!(any_match);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(parse(&argv("detect --store d")).is_err());
    }

    #[test]
    fn parse_continue_validates_method() {
        let c = parse(&argv("continue --store d --pattern A --method hybrid --k 3")).unwrap();
        match c {
            Command::Continue { method, k, .. } => {
                assert_eq!(method, "hybrid");
                assert_eq!(k, 3);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(parse(&argv("continue --store d --pattern A --method bogus")).is_err());
    }

    #[test]
    fn parse_query_statement() {
        let c = parse(&argv("query --store d DETECT_PLACEHOLDER")).unwrap();
        match c {
            Command::Query { store, statement } => {
                assert_eq!(store, "d");
                assert_eq!(statement, "DETECT_PLACEHOLDER");
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(parse(&argv("query --store d")).is_err());
        assert!(parse(&argv("query DETECT")).is_err());
    }

    #[test]
    fn parse_audit() {
        let c = parse(&argv("audit --store d")).unwrap();
        assert_eq!(c, Command::Audit { store: "d".into(), json: false });
        let c = parse(&argv("audit --store d --json")).unwrap();
        assert!(matches!(c, Command::Audit { json: true, .. }));
        assert!(parse(&argv("audit")).is_err());
        assert!(parse(&argv("audit --store d --bogus")).is_err());
    }

    #[test]
    fn parse_compact() {
        let c = parse(&argv("compact --store d")).unwrap();
        assert_eq!(
            c,
            Command::Compact { store: "d".into(), retention: None, retain_segments: false }
        );
        let c = parse(&argv("compact --store d --retention 3600 --retain-segments")).unwrap();
        assert_eq!(
            c,
            Command::Compact { store: "d".into(), retention: Some(3600), retain_segments: true }
        );
        assert!(parse(&argv("compact")).is_err());
        assert!(parse(&argv("compact --store d --retention soon")).is_err());
        assert!(parse(&argv("compact --store d --bogus")).is_err());
    }

    #[test]
    fn parse_scrub_and_repair() {
        let c = parse(&argv("scrub --store d")).unwrap();
        assert_eq!(c, Command::Scrub { store: "d".into() });
        assert!(parse(&argv("scrub")).is_err());
        assert!(parse(&argv("scrub --store d --bogus")).is_err());

        let c = parse(&argv("repair --store d")).unwrap();
        assert_eq!(c, Command::Repair { store: "d".into(), retain_segments: false });
        let c = parse(&argv("repair --store d --retain-segments")).unwrap();
        assert!(matches!(c, Command::Repair { retain_segments: true, .. }));
        assert!(parse(&argv("repair")).is_err());
    }

    #[test]
    fn parse_retain_segments_and_scrub_interval() {
        let c = parse(&argv("index --input a.csv --store d --retain-segments")).unwrap();
        assert!(matches!(c, Command::Index { retain_segments: true, .. }));
        let c = parse(&argv("index --input a.csv --store d")).unwrap();
        assert!(matches!(c, Command::Index { retain_segments: false, .. }));

        let c = parse(&argv("serve --store d --scrub-interval-ms 5000 --retain-segments")).unwrap();
        assert!(matches!(c, Command::Serve { scrub_interval_ms: 5000, retain_segments: true, .. }));
        // Default: scrubber off, segments swept.
        let c = parse(&argv("serve --store d")).unwrap();
        assert!(matches!(c, Command::Serve { scrub_interval_ms: 0, retain_segments: false, .. }));
        assert!(parse(&argv("serve --store d --scrub-interval-ms soon")).is_err());
    }

    #[test]
    fn parse_serve_defaults() {
        let c = parse(&argv("serve --store d")).unwrap();
        match c {
            Command::Serve {
                store,
                addr,
                workers,
                queue,
                timeout_ms,
                max_requests_per_conn,
                durability,
                ..
            } => {
                assert_eq!(store, "d");
                assert_eq!(addr, "127.0.0.1:7878");
                assert_eq!(workers, 0, "0 = all cores");
                assert_eq!(queue, 256);
                assert_eq!(timeout_ms, 10_000);
                assert_eq!(max_requests_per_conn, 1000);
                assert_eq!(durability, DurabilityPolicy::Batch);
            }
            other => panic!("unexpected {other:?}"),
        }
        let c = parse(&argv("serve --store d --addr 0.0.0.0:9000")).unwrap();
        assert!(matches!(c, Command::Serve { addr, .. } if addr == "0.0.0.0:9000"));
    }

    #[test]
    fn parse_serve_pool_flags() {
        let c = parse(&argv(
            "serve --store d --workers 4 --queue 64 --timeout-ms 2500 --max-requests-per-conn 10",
        ))
        .unwrap();
        match c {
            Command::Serve { workers, queue, timeout_ms, max_requests_per_conn, .. } => {
                assert_eq!(workers, 4);
                assert_eq!(queue, 64);
                assert_eq!(timeout_ms, 2500);
                assert_eq!(max_requests_per_conn, 10);
            }
            other => panic!("unexpected {other:?}"),
        }
        // Degenerate values that would wedge the server are rejected up front.
        assert!(parse(&argv("serve --store d --queue 0")).is_err());
        assert!(parse(&argv("serve --store d --timeout-ms 0")).is_err());
        assert!(parse(&argv("serve --store d --max-requests-per-conn 0")).is_err());
        assert!(parse(&argv("serve --store d --workers nope")).is_err());
    }

    #[test]
    fn parse_durability_flag() {
        let c = parse(&argv("index --input a.csv --store d --durability always")).unwrap();
        assert!(matches!(c, Command::Index { durability: DurabilityPolicy::Always, .. }));
        let c = parse(&argv("index --input a.csv --store d")).unwrap();
        assert!(matches!(c, Command::Index { durability: DurabilityPolicy::Batch, .. }));
        let c = parse(&argv("serve --store d --durability os")).unwrap();
        assert!(matches!(c, Command::Serve { durability: DurabilityPolicy::Os, .. }));
        assert!(parse(&argv("index --input a.csv --store d --durability paranoid")).is_err());
    }

    #[test]
    fn unknown_subcommand_and_flags() {
        assert!(parse(&argv("frobnicate")).is_err());
        assert!(parse(&argv("info --store d --bogus")).is_err());
        assert!(parse(&[]).is_err());
    }
}
