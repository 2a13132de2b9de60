//! Experiment runner: regenerates the paper's tables and figures.
//!
//! ```text
//! experiments [ids…] [--scale N]
//!
//!   ids        experiment ids (fig2 table5 fig3 table6 table7 fig4
//!              table8 fig5 fig6 fig7) or `all`; default: all
//!   --scale N  divide dataset sizes by N (default 10; 1 = paper scale)
//! ```

#![forbid(unsafe_code)]

use seqdet_bench::{run_experiment, EXPERIMENTS};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = 10usize;
    let mut ids: Vec<String> = Vec::new();
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--scale" => {
                let v = it.next().unwrap_or_default();
                scale = v.parse().unwrap_or_else(|_| {
                    eprintln!("invalid --scale value {v:?}");
                    std::process::exit(2);
                });
            }
            "--help" | "-h" => {
                eprintln!("usage: experiments [ids…] [--scale N]");
                eprintln!("known ids: {}", EXPERIMENTS.join(" "));
                return;
            }
            other => ids.push(other.to_string()),
        }
    }
    if ids.is_empty() || ids.iter().any(|i| i == "all") {
        ids = EXPERIMENTS.iter().map(|s| s.to_string()).collect();
    }
    for id in &ids {
        match run_experiment(id, scale) {
            Some(report) => println!("{report}"),
            None => {
                eprintln!("unknown experiment {id:?}; known: {}", EXPERIMENTS.join(" "));
                std::process::exit(2);
            }
        }
    }
}
