//! The batch workloads: the ten Table-3 Spark jobs and the five Table-4
//! Giraph jobs on the NVMe server, run one after another.
//!
//! * `batch-h2` runs them in TeraHeap mode at Figure 6's smaller TeraHeap
//!   DRAM.
//! * `batch-sd` runs them in Spark-SD / Giraph-OOC mode: each Spark job at
//!   the smallest Figure 6 Spark-SD DRAM at which it completes, each Giraph
//!   job at Figure 6's smaller DRAM. RL runs out of memory at every Figure 6
//!   Spark-SD size and is left out.
//!
//! The answers are checked against an oracle pass that runs every job with
//! everything on a roomy H1 heap: no H2, no Kryo, no out-of-core store.

use crate::layers::{Layers, Metrics};
use crate::spans::Spans;
use crate::Rep;
use mini_giraph::workloads::run_giraph_with_context;
use mini_giraph::{GiraphConfig, GiraphContext, GiraphMode, GiraphWorkload};
use mini_spark::{run_workload_on, DatasetScale, ExecMode, SparkConfig, SparkContext, Workload};
use std::time::Instant;
use teraheap_bench::harness::{
    giraph_ooc, giraph_rows, giraph_th, giraph_vertices, heap_split, spark_dataset, spark_rows,
    spark_sd, spark_th,
};
use teraheap_runtime::obs::Category;
use teraheap_storage::DeviceSpec;

/// Average out-degree of the Giraph input graphs (as in `fig6_giraph`).
const GIRAPH_DEGREE: usize = 8;

/// Oracle heap size, as a multiple of the job's dataset.
const ORACLE_HEAP_X: usize = 3;

/// Which batch workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    H2,
    Sd,
}

/// One job of a batch workload.
#[derive(Debug, Clone)]
pub enum Job {
    Spark {
        workload: Workload,
        config: SparkConfig,
        scale: DatasetScale,
    },
    Giraph {
        workload: GiraphWorkload,
        config: GiraphConfig,
        vertices: usize,
        seed: u64,
    },
}

impl Job {
    pub fn name(&self) -> String {
        match self {
            Job::Spark { workload, .. } => format!("spark-{}", workload.name()),
            Job::Giraph { workload, .. } => format!("giraph-{}", workload.name()),
        }
    }
}

/// Smallest Figure 6 Spark-SD DRAM (paper-GB) at which each job completes,
/// as `results/fig6_spark.csv` records it. RL runs out of memory at every
/// Figure 6 size.
fn sd_dram_gb(w: Workload) -> Option<usize> {
    match w {
        Workload::Pr => Some(80),
        Workload::Cc => Some(84),
        Workload::Sssp => Some(58),
        Workload::Svd => Some(64),
        Workload::Tr => Some(59),
        Workload::Lr | Workload::Lgr => Some(29),
        Workload::Svm => Some(28),
        Workload::Bc => Some(53),
        _ => None,
    }
}

/// The jobs of one batch workload, with inputs generated from `seed`.
pub fn jobs(mode: Mode, seed: u64) -> Vec<Job> {
    let nvme = DeviceSpec::nvme_ssd();
    let mut out = Vec::new();
    for row in spark_rows() {
        let config = match mode {
            Mode::H2 => spark_th(&row, row.th_dram_gb[0], nvme),
            Mode::Sd => match sd_dram_gb(row.workload) {
                Some(dram) => spark_sd(&row, dram, nvme),
                None => continue,
            },
        };
        let scale = DatasetScale {
            seed,
            ..spark_dataset(&row)
        };
        out.push(Job::Spark {
            workload: row.workload,
            config,
            scale,
        });
    }
    for row in giraph_rows() {
        let config = match mode {
            Mode::H2 => giraph_th(&row, row.dram_gb[0]),
            Mode::Sd => giraph_ooc(&row, row.dram_gb[0]),
        };
        out.push(Job::Giraph {
            workload: row.workload,
            config,
            vertices: giraph_vertices(&row),
            seed,
        });
    }
    out
}

/// The oracle's version of every job: all data on an H1 heap of
/// `ORACLE_HEAP_X` times the dataset, nothing on a device.
pub fn oracle_jobs(seed: u64) -> Vec<Job> {
    let mut out = Vec::new();
    for row in spark_rows() {
        let config = SparkConfig {
            heap: heap_split(ORACLE_HEAP_X * row.dataset_gb),
            mode: ExecMode::OnHeap,
            partitions: row.partitions,
            iterations: row.iterations,
        };
        let scale = DatasetScale {
            seed,
            ..spark_dataset(&row)
        };
        out.push(Job::Spark {
            workload: row.workload,
            config,
            scale,
        });
    }
    for row in giraph_rows() {
        let config = GiraphConfig {
            heap: heap_split(ORACLE_HEAP_X * row.dataset_gb),
            mode: GiraphMode::InMemory,
            ..giraph_th(&row, row.dram_gb[0])
        };
        out.push(Job::Giraph {
            workload: row.workload,
            config,
            vertices: giraph_vertices(&row),
            seed,
        });
    }
    out
}

/// Runs every job once. Per job, set-up is `SparkContext::new` or the
/// input graph's generation plus `GiraphContext::load`; the timed part is
/// `run_workload_on` or `run_giraph_with_context` (which loads the graph
/// again: the library has no public call that runs supersteps on an
/// already loaded context).
pub fn run(jobs: &[Job], spans: &mut Spans) -> Rep {
    let first_span = spans.spans().len();
    let rep_span = spans.begin("batch.rep");
    let mut layers = Layers::default();
    let mut setup_ns = Vec::with_capacity(jobs.len());
    let mut timed_ns = Vec::with_capacity(jobs.len());
    let mut answers = Vec::with_capacity(jobs.len());
    let mut job_sim_ns = Vec::with_capacity(jobs.len());
    let (mut spark_mutator_ns, mut giraph_mutator_ns) = (0u64, 0u64);
    let mut failed = 0u64;
    for job in jobs {
        match job {
            Job::Spark {
                workload,
                config,
                scale,
            } => {
                let t = Instant::now();
                let sp = spans.begin("spark.setup");
                let mut ctx = SparkContext::new(*config);
                spans.end(sp);
                setup_ns.push(t.elapsed().as_nanos() as u64);
                let t = Instant::now();
                let sp = spans.begin("spark.job");
                let res = run_workload_on(*workload, &mut ctx, *scale);
                spans.end(sp);
                timed_ns.push(t.elapsed().as_nanos() as u64);
                let clock = ctx.heap.clock();
                job_sim_ns.push(clock.total_ns());
                spark_mutator_ns += clock.category_ns(Category::Mutator);
                layers.add_heap(&ctx.heap);
                layers.add_serde_calls(ctx.bm.serializations(), ctx.bm.deserializations());
                match res {
                    Ok(checksum) => answers.push(checksum.to_bits()),
                    Err(e) => {
                        eprintln!("{}: {e}", job.name());
                        answers.push(u64::MAX);
                        failed += 1;
                    }
                }
            }
            Job::Giraph {
                workload,
                config,
                vertices,
                seed,
            } => {
                let t = Instant::now();
                let sp = spans.begin("giraph.load");
                let graph = teraheap_workloads::powerlaw_graph(*vertices, GIRAPH_DEGREE, *seed);
                let loaded = GiraphContext::load(*config, &graph, |_| 0);
                spans.end(sp);
                drop((graph, loaded));
                setup_ns.push(t.elapsed().as_nanos() as u64);
                let t = Instant::now();
                let sp = spans.begin("giraph.job");
                let res =
                    run_giraph_with_context(*workload, *config, *vertices, GIRAPH_DEGREE, *seed);
                spans.end(sp);
                timed_ns.push(t.elapsed().as_nanos() as u64);
                match res {
                    Ok((ctx, checksum)) => {
                        let clock = ctx.heap.clock();
                        job_sim_ns.push(clock.total_ns());
                        giraph_mutator_ns += clock.category_ns(Category::Mutator);
                        layers.add_heap(&ctx.heap);
                        layers.add_serde_calls(ctx.offloads, ctx.reloads);
                        answers.push(checksum.to_bits());
                    }
                    Err(e) => {
                        eprintln!("{}: {e}", job.name());
                        job_sim_ns.push(0);
                        answers.push(u64::MAX);
                        failed += 1;
                    }
                }
            }
        }
    }
    spans.end(rep_span);

    let mut sim = Metrics::new();
    let total_ns: u64 = job_sim_ns.iter().sum();
    sim.insert("sim_s", total_ns as f64 / 1e9);
    sim.insert(
        "sim_ops_per_s",
        jobs.len() as f64 / (total_ns.max(1) as f64 / 1e9),
    );
    let mut sorted = job_sim_ns;
    sorted.sort_unstable();
    for (name, q) in [
        ("lat_p50_us", 500),
        ("lat_p99_us", 990),
        ("lat_p999_us", 999),
    ] {
        sim.insert(name, crate::quantile_permille(&sorted, q) as f64 / 1e3);
    }
    sim.insert("spark.mutator_sim_ms", spark_mutator_ns as f64 / 1e6);
    sim.insert("giraph.mutator_sim_ms", giraph_mutator_ns as f64 / 1e6);
    layers.write(&mut sim);

    let mut host = Metrics::new();
    if spans.enabled() {
        let total_ms =
            |name| spans.durations_since(first_span, name).iter().sum::<u64>() as f64 / 1e6;
        host.insert("spark.job_host_ms", total_ms("spark.job"));
        host.insert("giraph.job_host_ms", total_ms("giraph.job"));
        host.insert("giraph.load_host_ms", total_ms("giraph.load"));
    }
    Rep {
        setup_ns,
        timed_ns,
        sim,
        host,
        answers,
        attempted: jobs.len() as u64,
        failed,
    }
}

/// The answer each of `jobs` must give: its checksum under the oracle
/// configuration (`u64::MAX` where the oracle itself failed).
pub fn oracle_answers(jobs: &[Job], seed: u64) -> Vec<u64> {
    let oracle: Vec<Job> = oracle_jobs(seed)
        .into_iter()
        .filter(|o| jobs.iter().any(|j| j.name() == o.name()))
        .collect();
    let names = |js: &[Job]| js.iter().map(Job::name).collect::<Vec<_>>();
    assert_eq!(
        names(&oracle),
        names(jobs),
        "one oracle job per job, in order"
    );
    run(&oracle, &mut Spans::new(false)).answers
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The two batch workloads give the same answer job by job, each keeps
    /// its layer focus, and the oracle agrees with both.
    #[test]
    fn batch_workloads_agree_and_keep_their_layer_focus() {
        let seed = 42;
        let h2_jobs = jobs(Mode::H2, seed);
        let sd_jobs = jobs(Mode::Sd, seed);
        let h2 = run(&h2_jobs, &mut Spans::new(false));
        let sd = run(&sd_jobs, &mut Spans::new(false));
        assert_eq!((h2.failed, sd.failed), (0, 0));
        for (job, answer) in sd_jobs.iter().zip(&sd.answers) {
            let i = h2_jobs
                .iter()
                .position(|j| j.name() == job.name())
                .expect("batch-h2 runs every batch-sd job");
            assert_eq!(
                *answer,
                h2.answers[i],
                "{} differs between batch-sd and batch-h2",
                job.name()
            );
        }
        assert!(
            h2_jobs.iter().any(|j| j.name() == "spark-RL")
                && !sd_jobs.iter().any(|j| j.name() == "spark-RL")
        );
        assert_eq!(h2.answers, oracle_answers(&h2_jobs, seed));

        assert_eq!(h2.sim["kryo.serializations"], 0.0);
        assert!(h2.sim["storage.page_faults"] > 0.0 && h2.sim["core.h2_objects_promoted"] > 0.0);
        assert!(sd.sim["kryo.serializations"] > 0.0);
        for name in ["storage.page_faults", "storage.read_mb", "storage.write_mb"] {
            assert_eq!(sd.sim[name], 0.0, "{name} on batch-sd");
        }
        for (name, v) in sd.sim.iter().filter(|(n, _)| n.starts_with("core.")) {
            assert_eq!(*v, 0.0, "{name} on batch-sd");
        }
        assert_eq!(
            h2.sim["runtime.incr_slices"] + sd.sim["runtime.incr_slices"],
            0.0
        );
    }
}
