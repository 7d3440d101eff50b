//! `perfbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload (or all three in turn) and prints a report followed
//! by one JSON line: `{"correct", "attempted", "failed", "metrics"}`.  With
//! `--trace 0` the metrics are the end-to-end ones; with `--trace 1` the
//! run is split into an untraced and a traced half and the metrics are the
//! per-layer ones.  A run whose outputs fail the correctness gate exits
//! with code 1; bad arguments, a set knob variable or a broken daemon exit
//! with code 2.

use perfbench::serve::OUT_DIR;
use perfbench::trace::{Tracer, LAYERS};
use perfbench::{host, run_workload, Measured, E2E, EXTRAS, PER_LAYER, WORKLOADS};
use std::collections::BTreeMap;
use std::path::Path;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1, 10.0, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err(format!("--seconds {seconds}: expected 0 < seconds <= 120"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// A finite JSON number (a failed run may carry infinite latencies).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        format!("{}", f64::MAX)
    }
}

fn escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => vec!['\\', '"'],
            '\\' => vec!['\\', '\\'],
            c if (c as u32) < 0x20 => format!("\\u{:04x}", c as u32).chars().collect(),
            c => vec![c],
        })
        .collect()
}

/// One workload's result, ready to print.
struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64, &'static str)>,
    /// Reported beside the metrics but not gated: (name, value, unit).
    extras: Vec<(&'static str, Option<f64>, &'static str)>,
    notes: Vec<String>,
}

fn untraced(name: &str, args: &Args) -> Result<Outcome, String> {
    let mut m = run_workload(name, args.seed, args.seconds, &Tracer::new(false))?;
    m.e2e.entry("peak_rss_mb").or_insert_with(host::peak_rss_mb);
    let metrics = E2E
        .iter()
        .map(|&(metric, unit)| {
            let v = m.e2e.get(metric).copied().unwrap_or(f64::INFINITY);
            (metric.to_string(), v, unit)
        })
        .collect();
    let extras = EXTRAS
        .iter()
        .map(|&(metric, unit)| (metric, m.e2e.get(metric).copied(), unit))
        .collect();
    Ok(finish(m, metrics, extras))
}

fn traced(name: &str, args: &Args) -> Result<Outcome, String> {
    let half = args.seconds / 2.0;
    let base = run_workload(name, args.seed, half, &Tracer::new(false))?;
    let tracer = Tracer::new(true);
    let mut m = run_workload(name, args.seed, half, &tracer)?;
    let self_ms = tracer.self_ms(m.timed_spans);
    let mut covered = 0.0;
    for layer in LAYERS {
        let ms = self_ms.get(layer).copied().unwrap_or(0.0);
        covered += ms;
        m.layer(&format!("{layer}.self_ms"), ms);
    }
    let coverage = covered / m.timed_wall_ms.max(f64::MIN_POSITIVE);
    m.layer("trace.timed_wall_ms", m.timed_wall_ms);
    m.layer("trace.coverage", coverage);
    m.layer("trace.untraced_ms", base.primary_ms);
    m.layer("trace.traced_ms", m.primary_ms);
    m.layer(
        "trace.overhead_frac",
        (m.primary_ms - base.primary_ms) / base.primary_ms,
    );
    m.layer("trace.spans", tracer.mark() as f64);
    let spans = Path::new(OUT_DIR).join(format!("spans-{name}-seed{}.jsonl", args.seed));
    tracer
        .write_jsonl(&spans)
        .map_err(|e| format!("{}: {e}", spans.display()))?;
    m.notes.push(format!(
        "spans written to {}; layer self times cover {:.2}% of {:.1} ms timed",
        spans.display(),
        coverage * 100.0,
        m.timed_wall_ms
    ));
    m.attempted += base.attempted;
    m.failed += base.failed;
    m.failures.extend(base.failures);
    let metrics = PER_LAYER
        .iter()
        .map(|&(metric, unit)| {
            let v = m.layers.get(metric).copied().unwrap_or(0.0);
            (metric.to_string(), v, unit)
        })
        .collect();
    Ok(finish(m, metrics, Vec::new()))
}

fn finish(
    m: Measured,
    metrics: Vec<(String, f64, &'static str)>,
    extras: Vec<(&'static str, Option<f64>, &'static str)>,
) -> Outcome {
    let mut notes = m.notes;
    notes.extend(m.failures.iter().map(|f| format!("FAILED: {f}")));
    Outcome {
        correct: m.failed == 0 && m.attempted > 0,
        attempted: m.attempted.max(1),
        failed: m.failed,
        metrics,
        extras,
        notes,
    }
}

fn report(name: &str, args: &Args, o: &Outcome) {
    println!(
        "workload {name} seed {} seconds {} trace {}",
        args.seed, args.seconds, args.trace as u8
    );
    for (metric, v, unit) in &o.metrics {
        println!("  {metric:<32} {:>16} {unit}", num(*v));
    }
    for (metric, v, unit) in &o.extras {
        match v {
            Some(v) => println!("  {metric:<32} {:>16} {unit}", num(*v)),
            None => println!("  {metric:<32} {:>16}", "n/a"),
        }
    }
    println!(
        "  {:<32} {:>16} ({} of {})",
        "failed_frac",
        num(o.failed as f64 / o.attempted as f64),
        o.failed,
        o.attempted
    );
    for n in &o.notes {
        println!("  # {n}");
    }
}

fn json_line(o: &Outcome) -> String {
    let metrics: Vec<String> = o
        .metrics
        .iter()
        .map(|(metric, v, unit)| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                escape(metric),
                num(*v),
                unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.correct,
        o.attempted,
        o.failed,
        metrics.join(", ")
    )
}

fn run(args: &Args) -> Result<i32, String> {
    let knobs = host::set_knobs();
    if !knobs.is_empty() {
        return Err(format!(
            "refusing to run with knob variables set ({}): the benchmark measures the shipped defaults",
            knobs.join(", ")
        ));
    }
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("{OUT_DIR}: {e}"))?;
    let names: Vec<&str> = if args.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    let steal_before = host::cpu_steal();
    let mut outcomes = Vec::new();
    for name in &names {
        host::reset_peak_rss();
        let o = if args.trace {
            traced(name, args)?
        } else {
            untraced(name, args)?
        };
        report(name, args, &o);
        outcomes.push((name, o));
    }
    let steal_after = host::cpu_steal();
    let steal_frac = steal_after.0.saturating_sub(steal_before.0) as f64
        / steal_after.1.saturating_sub(steal_before.1).max(1) as f64;
    let host_line = format!(
        "{{\"nproc\": {}, \"effective_parallelism\": {}, \"steal_frac\": {}, \"threads\": {}, \"rustc\": \"{}\", \"commit\": \"{}\"}}",
        host::nproc(),
        num(host::effective_parallelism()),
        num(steal_frac),
        perfbench::thread_budget(),
        escape(&host::rustc_version()),
        escape(&host::commit())
    );
    println!("host {host_line}");
    let combined = if let [(_, o)] = &outcomes[..] {
        json_line(o)
    } else {
        let mut all = Outcome {
            correct: true,
            attempted: 0,
            failed: 0,
            metrics: Vec::new(),
            extras: Vec::new(),
            notes: Vec::new(),
        };
        for (name, o) in &outcomes {
            all.correct &= o.correct;
            all.attempted += o.attempted;
            all.failed += o.failed;
            all.metrics.extend(
                o.metrics
                    .iter()
                    .map(|(metric, v, unit)| (format!("{name}.{metric}"), *v, *unit)),
            );
        }
        json_line(&all)
    };
    let record = Path::new(OUT_DIR).join(format!(
        "result-{}-seed{}-trace{}.json",
        args.workload, args.seed, args.trace as u8
    ));
    let notes: BTreeMap<String, Vec<String>> = outcomes
        .iter()
        .map(|(name, o)| (name.to_string(), o.notes.clone()))
        .collect();
    let notes: Vec<String> = notes
        .iter()
        .map(|(name, n)| {
            let n: Vec<String> = n.iter().map(|s| format!("\"{}\"", escape(s))).collect();
            format!("\"{name}\": [{}]", n.join(", "))
        })
        .collect();
    std::fs::write(
        &record,
        format!(
            "{{\"host\": {host_line}, \"result\": {combined}, \"notes\": {{{}}}}}\n",
            notes.join(", ")
        ),
    )
    .map_err(|e| format!("{}: {e}", record.display()))?;
    println!("{combined}");
    Ok(if outcomes.iter().all(|(_, o)| o.correct) {
        0
    } else {
        1
    })
}

fn main() {
    host::mark_process_start();
    let code = match parse_args().and_then(|args| run(&args)) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("perfbench: {e}");
            2
        }
    };
    std::process::exit(code);
}
