//! KOR benchmark harness. See ../README.md for the workloads and every
//! metric; `run.py` builds this and `kor`, then runs:
//!
//! ```text
//! kor-perfbench --kor PATH --out DIR --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! The last stdout line is the JSON result; the lines before it are
//! the human report, also written to `DIR/report.txt`.

mod client;
mod engine;
mod stats;
mod trace;
mod traced;
mod untraced;
mod verify;
mod workload;

use std::path::PathBuf;

use stats::Metrics;

/// What a run hands back for the result line.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
    pub notes: Vec<String>,
}

struct Args {
    kor: PathBuf,
    out: PathBuf,
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<&str, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        argv.get(i + 1)
            .map(String::as_str)
            .ok_or(format!("{flag} needs a value"))
    };
    let num = |flag: &str| -> Result<u64, String> {
        get(flag)?
            .parse()
            .map_err(|_| format!("{flag} must be a whole number"))
    };
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    let seconds = num("--seconds")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        kor: PathBuf::from(get("--kor")?),
        out: PathBuf::from(get("--out")?),
        workload: get("--workload")?.to_string(),
        seed: num("--seed")?,
        seconds,
        trace,
    })
}

fn run(args: &Args) -> Result<Outcome, String> {
    let spec = workload::spec(&args.workload).ok_or_else(|| {
        let names: Vec<&str> = workload::WORKLOADS.iter().map(|w| w.name).collect();
        format!(
            "unknown workload {:?} (one of {})",
            args.workload,
            names.join(", ")
        )
    })?;
    std::fs::create_dir_all(&args.out)
        .map_err(|e| format!("create {}: {e}", args.out.display()))?;
    let plan = workload::Plan::new(spec, args.seed, args.seconds as f64);
    let world = args.out.join("world.korbin");
    kor::data::write_snapshot(&world, &plan.world).map_err(|e| format!("write world: {e}"))?;
    let mut outcome = if args.trace {
        traced::run(&plan, &args.kor, &world, &args.out)?
    } else {
        untraced::run(&plan, &args.kor, &world, &args.out)?
    };
    let g = &plan.world.graph;
    outcome.notes.insert(
        0,
        format!(
            "workload {} seed {} seconds {} trace {}; world: {w}x{w} grid, {} nodes, {} edges, {} keywords; \
             prep cache capacity {} entries; targets: {}",
            spec.name,
            args.seed,
            args.seconds,
            u8::from(args.trace),
            g.node_count(),
            g.edge_count(),
            g.vocab().len(),
            kor::core::PreprocessCache::DEFAULT_CAPACITY,
            if spec.hot_targets {
                format!("a fresh {}-node popular pool per server", workload::HOT_POOL)
            } else {
                format!("uniform over all {} nodes", g.node_count())
            },
            w = workload::GRID,
        ),
    );
    Ok(outcome)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("kor-perfbench: {e}");
            std::process::exit(2);
        }
    };
    let outcome = match run(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("kor-perfbench: {e}");
            std::process::exit(1);
        }
    };
    if let Some((name, _, _)) = outcome.metrics.0.iter().find(|(_, v, _)| !v.is_finite()) {
        eprintln!("kor-perfbench: metric {name} is not a finite number");
        std::process::exit(1);
    }
    let mut report = outcome.notes.clone();
    for (name, value, unit) in &outcome.metrics.0 {
        report.push(format!("metric {name} {value} {unit}"));
    }
    let report = report.join("\n");
    println!("{report}");
    if let Err(e) = std::fs::write(args.out.join("report.txt"), format!("{report}\n")) {
        eprintln!("kor-perfbench: write report: {e}");
        std::process::exit(1);
    }
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        outcome.correct,
        outcome.attempted,
        outcome.failed,
        outcome.metrics.json()
    );
    if !outcome.correct {
        std::process::exit(1);
    }
}
