//! The repository's benchmark: one process, one thread, three workloads.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload <batch-h2|batch-sd|serve> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! A run repeats the workload — set-up, then the timed phase — until
//! `--seconds` have passed and at least `MIN_REPS` repetitions are done,
//! and reports medians of host time in reference seconds (`calib`).
//! Every repetition is built from scratch, so every
//! simulated metric must come out bit-identical in each; the run exits
//! non-zero if one does not. With `--trace 1`, repetitions alternate
//! between spans off and spans on, the per-layer metrics are printed, and
//! the spans are written to `perfbench/out/`. The last line of standard
//! output is the JSON result. See `perfbench/README.md`.

mod batch;
mod calib;
mod layers;
mod serve;
mod spans;

use layers::Metrics;
use spans::Spans;
use std::time::Instant;

/// The end-to-end metrics, printed with `--trace 0`.
pub const END_TO_END: [&str; 8] = [
    "host_s",
    "setup_s",
    "peak_rss_mb",
    "sim_s",
    "sim_ops_per_s",
    "lat_p50_us",
    "lat_p99_us",
    "lat_p999_us",
];

/// The per-layer metrics, printed with `--trace 1`.
pub const PER_LAYER: [&str; 51] = [
    "storage.page_faults",
    "storage.seq_fault_pct",
    "storage.evictions",
    "storage.read_mb",
    "storage.write_mb",
    "storage.io_sim_ms",
    "storage.device_ops",
    "storage.device_queued_ms",
    "storage.io_retries",
    "core.h2_objects_promoted",
    "core.h2_words_promoted",
    "core.h2_regions_reclaimed",
    "core.h2_cards_scanned_minor",
    "core.h2_minor_scan_sim_ms",
    "core.forward_refs_fenced",
    "core.backward_refs_seen",
    "runtime.minor_gcs",
    "runtime.major_gcs",
    "runtime.minor_gc_sim_ms",
    "runtime.major_gc_sim_ms",
    "runtime.major_mark_sim_ms",
    "runtime.major_precompact_sim_ms",
    "runtime.major_adjust_sim_ms",
    "runtime.major_compact_sim_ms",
    "runtime.gc_pause_p50_us",
    "runtime.gc_pause_p99_us",
    "runtime.incr_slices",
    "runtime.write_barrier_remembered",
    "runtime.lane_stall_sim_ms",
    "kryo.serializations",
    "kryo.deserializations",
    "kryo.serde_sim_ms",
    "spark.job_host_ms",
    "giraph.job_host_ms",
    "giraph.load_host_ms",
    "spark.mutator_sim_ms",
    "giraph.mutator_sim_ms",
    "query.read_host_us_p50",
    "query.read_host_us_p99",
    "query.write_host_us_p50",
    "query.write_host_us_p99",
    "query.point_p99_us",
    "query.range_p99_us",
    "query.agg_p99_us",
    "query.write_p99_us",
    "query.rows_scanned_per_match",
    "query.load_host_ms",
    "obs.events_emitted",
    "obs.events_dropped",
    "bench.trace_overhead_pct",
    "bench.error_rate",
];

/// Measured repetitions a run makes at least (of each kind, spans off and
/// on), whatever `--seconds` says.
const MIN_REPS: usize = 3;

/// One repetition of a workload.
#[derive(Debug, Clone)]
pub struct Rep {
    /// Host ns spent in set-up, per part (batch job, or the whole serve
    /// set-up).
    pub setup_ns: Vec<u64>,
    /// Host ns spent in the timed phase, per part.
    pub timed_ns: Vec<u64>,
    /// Every simulated metric, end-to-end and per-layer.
    pub sim: Metrics,
    /// Per-layer host metrics (spans on only).
    pub host: Metrics,
    /// One fingerprint per op (job checksum or query answer).
    pub answers: Vec<u64>,
    pub attempted: u64,
    pub failed: u64,
}

/// The `q`‰ quantile of an ascending slice, ranked like the query plane's
/// `LatencyHistogram`; 0 when empty.
pub fn quantile_permille(sorted: &[u64], q: u64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() as u64 * q).div_ceil(1000) as usize).saturating_sub(1);
    sorted[idx.min(sorted.len() - 1)]
}

fn median(mut v: Vec<f64>) -> f64 {
    assert!(!v.is_empty(), "median of nothing");
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Seconds: the sum over parts of each part's median over the
/// repetitions `idx`. A part is a batch job or a serve phase; taking
/// medians part by part keeps a stall in one job of one repetition out of
/// the result.
fn median_sum(reps: &[Rep], idx: &[usize], parts: impl Fn(&Rep) -> &Vec<u64>) -> f64 {
    let n = parts(&reps[idx[0]]).len();
    (0..n)
        .map(|p| median(idx.iter().map(|&i| parts(&reps[i])[p] as f64).collect()))
        .sum::<f64>()
        / 1e9
}

/// Unit of a metric, from its name.
pub fn unit(name: &str) -> &'static str {
    match name {
        "sim_ops_per_s" => "1/s",
        "query.rows_scanned_per_match" | "bench.error_rate" => "ratio",
        _ if name.ends_with("_s") => "s",
        _ if name.ends_with("_ms") => "ms",
        _ if name.ends_with("_us") || name.contains("_us_") => "us",
        _ if name.ends_with("_mb") => "MB",
        _ if name.ends_with("_pct") => "%",
        _ => "count",
    }
}

/// Peak resident set of this process (`VmHWM`), in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(val),
            "--seed" => seed = Some(val.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(val.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?)
            }
            "--trace" => {
                trace = Some(match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !["batch-h2", "batch-sd", "serve"].contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0).max(0.0),
        trace: trace.unwrap_or(false),
    })
}

/// Workload-specific state: the batch jobs, or the serve shape.
enum Plan {
    Batch(Vec<batch::Job>),
    Serve(Box<serve::ServeConfig>),
}

impl Plan {
    fn rep(&self, spans: &mut Spans) -> Rep {
        match self {
            Plan::Batch(jobs) => batch::run(jobs, spans),
            Plan::Serve(cfg) => serve::run(cfg, spans).rep,
        }
    }

    /// The answers every repetition must give, from an independent oracle
    /// (batch) — `None` where each repetition checks itself (serve).
    fn expected(&self, seed: u64) -> Option<Vec<u64>> {
        match self {
            Plan::Batch(jobs) => Some(batch::oracle_answers(jobs, seed)),
            Plan::Serve(_) => None,
        }
    }
}

/// Compares every repetition's simulated metrics and answers with the
/// first's, bit for bit. Returns the differences found.
fn audit(reps: &[Rep]) -> Vec<String> {
    let first = &reps[0];
    let mut diffs = Vec::new();
    for (r, rep) in reps.iter().enumerate().skip(1) {
        for (name, v) in &first.sim {
            let w = rep.sim.get(name).copied().unwrap_or(f64::NAN);
            if v.to_bits() != w.to_bits() {
                diffs.push(format!("rep {r}: {name} = {w}, rep 0 had {v}"));
            }
        }
        if rep.answers != first.answers {
            diffs.push(format!("rep {r}: answers differ from rep 0"));
        }
    }
    diffs
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <batch-h2|batch-sd|serve> --seed <n> --seconds <s> --trace <0|1>");
            std::process::exit(2);
        }
    };
    let plan = match args.workload.as_str() {
        "batch-h2" => Plan::Batch(batch::jobs(batch::Mode::H2, args.seed)),
        "batch-sd" => Plan::Batch(batch::jobs(batch::Mode::Sd, args.seed)),
        _ => Plan::Serve(Box::new(serve::config(args.seed))),
    };

    // Repetition 0 warms caches and the allocator and is left out of the
    // host medians (its simulated metrics are still audited). After it,
    // spans-on repetitions alternate with spans-off ones, so the tracing
    // overhead compares like with like.
    let min_reps = 1 + if args.trace { 2 * MIN_REPS } else { MIN_REPS };
    let mut traced = Spans::new(true);
    let mut untraced = Spans::new(false);
    let mut reps: Vec<Rep> = Vec::new();
    let mut traced_idx: Vec<usize> = Vec::new();
    let mut kernel = calib::Kernel::new();
    let mut kernel_s: Vec<f64> = Vec::new();
    let start = Instant::now();
    while reps.len() < min_reps || start.elapsed().as_secs_f64() < args.seconds {
        let on = args.trace && reps.len() % 2 == 1;
        if on {
            traced_idx.push(reps.len());
        }
        kernel_s.push(kernel.run_s());
        let rep = plan.rep(if on { &mut traced } else { &mut untraced });
        eprintln!(
            "perfbench: rep {} (spans {}): kernel {:.4} s, setup {:.4} s, timed {:.4} s (wall)",
            reps.len(),
            if on { "on" } else { "off" },
            kernel_s[reps.len()],
            rep.setup_ns.iter().sum::<u64>() as f64 / 1e9,
            rep.timed_ns.iter().sum::<u64>() as f64 / 1e9
        );
        reps.push(rep);
    }
    kernel_s.push(kernel.run_s());
    let peak_rss = peak_rss_mb();
    // Reference seconds per measured second (`calib`); the first kernel
    // run also pays the buffer's first touch and is left out.
    let speed = calib::REFERENCE_S / median(kernel_s[1..].to_vec());

    let diffs = audit(&reps);
    if !diffs.is_empty() {
        for d in &diffs {
            eprintln!("perfbench: determinism audit failed: {d}");
        }
        std::process::exit(3);
    }

    let attempted: u64 = reps.iter().map(|r| r.attempted).sum();
    let mut failed: u64 = reps.iter().map(|r| r.failed).sum();
    if let Some(expected) = plan.expected(args.seed) {
        // Repetitions are bit-identical (audited), so one comparison
        // stands for all of them. A job that failed outright (`u64::MAX`)
        // is already counted.
        let wrong = reps[0]
            .answers
            .iter()
            .zip(&expected)
            .filter(|&(a, b)| *a != u64::MAX && a != b)
            .count() as u64;
        if wrong > 0 {
            eprintln!("perfbench: {wrong} job answers differ from the oracle's");
        }
        failed += wrong * reps.len() as u64;
    }

    let mut all = Metrics::new();
    let untraced_idx: Vec<usize> = (1..reps.len())
        .filter(|i| !traced_idx.contains(i))
        .collect();
    all.insert(
        "host_s",
        speed * median_sum(&reps, &untraced_idx, |r| &r.timed_ns),
    );
    all.insert(
        "setup_s",
        speed * median_sum(&reps, &untraced_idx, |r| &r.setup_ns),
    );
    all.insert("peak_rss_mb", peak_rss);
    for (name, v) in &reps[0].sim {
        all.insert(name, *v);
    }
    if args.trace {
        for name in reps[traced_idx[0]].host.keys() {
            let v = median(traced_idx.iter().map(|&i| reps[i].host[name]).collect());
            all.insert(name, v);
        }
        let traced_s = speed * median_sum(&reps, &traced_idx, |r| &r.timed_ns);
        all.insert(
            "bench.trace_overhead_pct",
            100.0 * (traced_s / all["host_s"] - 1.0),
        );
        print_self_time(&traced);
        let path = std::path::PathBuf::from(format!(
            "perfbench/out/spans-{}-seed{}.jsonl",
            args.workload, args.seed
        ));
        match traced.write_jsonl(&path) {
            Ok(()) => eprintln!(
                "perfbench: wrote {} spans to {}",
                traced.spans().len(),
                path.display()
            ),
            Err(e) => eprintln!("perfbench: could not write {}: {e}", path.display()),
        }
    }
    all.insert("bench.error_rate", failed as f64 / attempted.max(1) as f64);
    eprintln!(
        "perfbench: {} repetitions, {} simulated metrics bit-identical in each",
        reps.len(),
        reps[0].sim.len()
    );

    let names: &[&str] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut json = Vec::new();
    for &name in names {
        let v = all.get(name).copied().unwrap_or(0.0);
        let u = unit(name);
        println!("{:<34} {v:>16.6} {u}", name);
        json.push(format!(
            "\"{name}\": {{\"value\": {v:?}, \"unit\": \"{u}\"}}"
        ));
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        json.join(", ")
    );
}

/// Per span name: count, total and self host time of the traced
/// repetitions, on standard error.
fn print_self_time(spans: &Spans) {
    eprintln!(
        "{:<18} {:>8} {:>12} {:>12}",
        "span", "count", "total_ms", "self_ms"
    );
    for (name, (n, total, own)) in spans.summary() {
        eprintln!(
            "{name:<18} {n:>8} {:>12.3} {:>12.3}",
            total as f64 / 1e6,
            own as f64 / 1e6
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_lists_every_metric_with_its_unit() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json =
            std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root");
        for name in END_TO_END.iter().chain(&PER_LAYER) {
            let entry = format!("\"name\": \"{name}\",\n      \"unit\": \"{}\"", unit(name));
            assert!(json.contains(&entry), "{name} missing or with another unit");
        }
        assert_eq!(
            json.matches("\"unit\"").count(),
            END_TO_END.len() + PER_LAYER.len()
        );
    }

    #[test]
    fn quantiles_rank_like_the_latency_histogram() {
        let mut h = teraheap_query::LatencyHistogram::new();
        let v: Vec<u64> = (1..=1000).map(|x| x * 7 % 1009).collect();
        v.iter().for_each(|&x| h.record(x));
        let mut sorted = v.clone();
        sorted.sort_unstable();
        for q in [500, 990, 999] {
            assert_eq!(quantile_permille(&sorted, q), h.quantile_permille(q));
        }
    }
}
