//! `e2ebench`: the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path e2ebench/Cargo.toml -- \
//!     --workload <warm_dashboard|cold_scan|ingest_mixed> --seed <n> \
//!     --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` it times the end-to-end metrics with no tracing;
//! with `--trace 1` it runs the same workload as a chain of calls into
//! each layer's public functions, wraps each call in a span, and
//! prints the per-layer metrics. Either way every answer is checked
//! against a reference computed from the seeded rows, and the last
//! line of standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! The workloads, their sizes and the reason for each are listed in
//! `BENCHMARK.json` and in [`workload::Workload`].

mod cluster;
mod gen;
mod stats;
mod trace;
mod workload;

use std::fmt::Write as _;

use workload::Workload;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} expects a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&val)?),
            "--seed" => seed = Some(val.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = val.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

pub fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

/// What a run hands back for printing.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Extra facts for the provenance record (sample counts, typed
    /// error tallies, check failures).
    pub notes: Vec<(String, String)>,
}

/// JSON numbers cannot be infinite; a percentile that landed on a
/// failed operation prints as the largest finite double.
fn num(v: f64) -> String {
    if v.is_finite() {
        // `+ 0.0` turns a negative zero into zero.
        format!("{}", v + 0.0)
    } else {
        format!("{}", f64::MAX)
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The commit being measured, read from `.git` when the checkout has
/// one; a plain source tree reports `unknown`.
fn commit() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok().map(|s| s.trim().to_owned());
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    match head.strip_prefix("ref: ") {
        None => head,
        Some(r) => read(&format!(".git/{r}"))
            .or_else(|| {
                read(".git/packed-refs")?
                    .lines()
                    .find(|l| l.ends_with(r))
                    .and_then(|l| l.split_whitespace().next().map(str::to_owned))
            })
            .unwrap_or_else(|| "unknown".into()),
    }
}

fn provenance(args: &Args, out: &Outcome) -> String {
    let host = std::fs::read_to_string("/proc/sys/kernel/hostname")
        .map(|s| s.trim().to_owned())
        .unwrap_or_else(|_| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut fields = vec![
        ("workload".to_owned(), json_str(args.workload.name())),
        ("seed".to_owned(), args.seed.to_string()),
        ("seconds".to_owned(), num(args.seconds)),
        ("trace".to_owned(), (args.trace as u8).to_string()),
        ("host".to_owned(), json_str(&host)),
        ("commit".to_owned(), json_str(&commit())),
        ("nproc".to_owned(), nproc.to_string()),
    ];
    for (k, v) in &out.notes {
        fields.push((k.clone(), json_str(v)));
    }
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("{}: {v}", json_str(k)))
        .collect();
    format!("{{\"provenance\": {{{}}}}}", body.join(", "))
}

fn result_line(out: &Outcome) -> String {
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(m.name),
                num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.correct,
        out.attempted,
        out.failed,
        metrics.join(", ")
    )
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            std::process::exit(2);
        }
    };
    let outcome = match workload::run(args.workload, args.seed, args.seconds, args.trace) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("e2ebench: {} failed: {e}", args.workload.name());
            std::process::exit(1);
        }
    };
    let record = provenance(&args, &outcome);
    let _ = std::fs::create_dir_all(trace::OUT_DIR);
    let _ = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(format!("{}/runs.jsonl", trace::OUT_DIR))
        .and_then(|mut f| std::io::Write::write_all(&mut f, format!("{record}\n").as_bytes()));
    println!("{record}");
    println!("{}", result_line(&outcome));
}
