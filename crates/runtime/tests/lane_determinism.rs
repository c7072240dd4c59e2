//! The work-unit scheduler's core contract (DESIGN.md §11): lane accounting
//! is **deterministic**. For any workload and any `gc_threads`:
//!
//! 1. repeated runs report bit-identical simulated time and bit-identical
//!    event streams (including every `t_ns` stamp and every lane
//!    assignment);
//! 2. the numbers are independent of *host* parallelism — a run inside a
//!    freshly spawned OS thread, racing sibling runs, reproduces the main
//!    thread's run exactly, and `TERAHEAP_BENCH_THREADS` (the bench
//!    harness's host-thread knob) has no effect on simulated time;
//! 3. `gc_threads` only reshapes *time* — heap mutations, GC counts and
//!    promotion behaviour are identical across thread counts.
//!
//! The collector variant (PS, G1, Panthera) is one more generated input, so
//! G1's marking discount, mixed-collection fraction and deferred-copy stash
//! and Panthera's NVM penalties get the same repeatability and
//! lane-invariance coverage as PS.
//!
//! Lane picks are pure integer arithmetic over previously accumulated unit
//! costs, so these properties hold by construction; this suite pins them
//! against regressions (e.g. an accidental `HashMap` iteration or host
//! clock read in the dispatch path).

use teraheap_core::{H2Config, Label};
use teraheap_runtime::obs::{Event, Level};
use teraheap_runtime::{GcVariant, Handle, Heap, HeapConfig};
use teraheap_storage::{DeviceSpec, SharedDevice};
use teraheap_util::proptest_mini::{
    check, range_u64, range_usize, vec_of, CaseResult, Config, Just, Strategy,
};
use teraheap_util::{prop_assert_eq, prop_oneof};

fn test_h2() -> H2Config {
    H2Config::builder()
        .region_words(2048)
        .n_regions(16)
        .card_seg_words(256)
        .resident_budget_bytes(64 << 10)
        .page_size(4096)
        .promo_buffer_bytes(8 << 10)
        .build()
        .expect("valid test H2 config")
}

#[derive(Debug, Clone)]
enum Op {
    Alloc(u64),
    Link(usize, usize),
    Release(usize),
    MinorGc,
    MajorGc,
    TagAndMove(usize, u64),
}

fn variant_strategy() -> impl Strategy<Value = GcVariant> {
    prop_oneof![
        1 => Just(GcVariant::ParallelScavenge),
        1 => Just(GcVariant::G1 { region_words: 2048 }),
        1 => Just(GcVariant::Panthera { old_dram_words: 16 << 10, nvm: DeviceSpec::optane_nvm() }),
    ]
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        5 => range_u64(0..1000).prop_map(Op::Alloc),
        3 => (range_usize(0..64), range_usize(0..64)).prop_map(|(a, b)| Op::Link(a, b)),
        2 => range_usize(0..64).prop_map(Op::Release),
        1 => Just(Op::MinorGc),
        1 => Just(Op::MajorGc),
        2 => (range_usize(0..64), range_u64(1..8)).prop_map(|(a, l)| Op::TagAndMove(a, l)),
    ]
}

/// Everything a run reports: the determinism witness.
#[derive(Debug, PartialEq)]
struct RunReport {
    total_ns: u64,
    events: Vec<Event>,
    minor_count: u64,
    major_count: u64,
    objects_promoted_h2: u64,
    backward_refs_seen: u64,
    forward_refs_fenced: u64,
    lane_stall_ns: u64,
}

fn run_program(variant: GcVariant, ops: &[Op], gc_threads: usize) -> RunReport {
    let cfg = HeapConfig::builder(4 << 10, 32 << 10)
        .variant(variant)
        .gc_threads(gc_threads)
        .obs_level(Level::Full)
        .build()
        .unwrap();
    let mut heap = Heap::new(cfg);
    let h2cfg = test_h2();
    let dev = SharedDevice::new(DeviceSpec::nvme_ssd(), h2cfg.footprint_bytes(), heap.clock().clone());
    heap.attach_h2(h2cfg, &dev).unwrap();
    let class = heap.register_class("LaneNode", 1, 1);
    let mut handles: Vec<Handle> = Vec::new();
    let mut released: Vec<bool> = Vec::new();
    for op in ops {
        match *op {
            Op::Alloc(v) => {
                let h = heap.alloc(class).unwrap();
                heap.write_prim(h, 0, v);
                handles.push(h);
                released.push(false);
            }
            Op::Link(a, b) => {
                if a < handles.len() && b < handles.len() && !released[a] && !released[b] {
                    heap.write_ref(handles[a], 0, handles[b]);
                }
            }
            Op::Release(a) => {
                if a < handles.len() && !released[a] {
                    heap.release(handles[a]);
                    released[a] = true;
                }
            }
            Op::MinorGc => heap.gc_minor().unwrap(),
            Op::MajorGc => heap.gc_major().unwrap(),
            Op::TagAndMove(a, l) => {
                if a < handles.len() && !released[a] {
                    heap.h2_tag_root(handles[a], Label::new(l));
                    heap.h2_move(Label::new(l));
                }
            }
        }
    }
    heap.gc_minor().unwrap();
    heap.gc_major().unwrap();
    let stats = heap.stats().clone();
    RunReport {
        total_ns: heap.clock().total_ns(),
        events: heap.clock().tracer().events(),
        minor_count: stats.minor_count,
        major_count: stats.major_count,
        objects_promoted_h2: stats.objects_promoted_h2,
        backward_refs_seen: stats.backward_refs_seen,
        forward_refs_fenced: stats.forward_refs_fenced,
        lane_stall_ns: stats.lane_stall_ns,
    }
}

#[test]
fn lane_accounting_is_deterministic_and_host_independent() {
    check(
        "lane_accounting_is_deterministic_and_host_independent",
        &(variant_strategy(), vec_of(op_strategy(), 1..60)),
        &Config::with_cases(24),
        |(variant, ops): (GcVariant, Vec<Op>)| {
            let mut per_threads: Vec<(usize, RunReport)> = Vec::new();
            for gc_threads in [1usize, 2, 3, 4, 8] {
                let a = run_program(variant, &ops, gc_threads);
                // Same program, same thread count: bit-identical report.
                let b = run_program(variant, &ops, gc_threads);
                prop_assert_eq!(&a, &b, "repeat run diverged at gc_threads={}", gc_threads);
                // A run on a different (racing) host thread must reproduce
                // the main thread's numbers exactly: simulated time owes
                // nothing to host scheduling.
                let spawned = std::thread::scope(|s| {
                    let mut racers = Vec::new();
                    for _ in 0..3 {
                        racers.push(s.spawn(|| run_program(variant, &ops, gc_threads)));
                    }
                    racers
                        .into_iter()
                        .map(|h| h.join().expect("racer run panicked"))
                        .collect::<Vec<RunReport>>()
                });
                for r in spawned {
                    prop_assert_eq!(
                        &a,
                        &r,
                        "spawned-thread run diverged at gc_threads={}",
                        gc_threads
                    );
                }
                per_threads.push((gc_threads, a));
            }
            // Thread count reshapes time only: semantics are invariant.
            let (_, base) = &per_threads[0];
            for (t, r) in &per_threads[1..] {
                prop_assert_eq!(r.minor_count, base.minor_count, "minor count at t={}", t);
                prop_assert_eq!(r.major_count, base.major_count, "major count at t={}", t);
                prop_assert_eq!(
                    r.objects_promoted_h2,
                    base.objects_promoted_h2,
                    "promotions at t={}",
                    t
                );
                prop_assert_eq!(
                    r.backward_refs_seen,
                    base.backward_refs_seen,
                    "backward refs at t={}",
                    t
                );
                prop_assert_eq!(
                    r.forward_refs_fenced,
                    base.forward_refs_fenced,
                    "fenced refs at t={}",
                    t
                );
            }
            // A single lane never stalls at a barrier.
            prop_assert_eq!(base.lane_stall_ns, 0, "single-lane stall must be zero");
            CaseResult::Pass
        },
    );
}

/// `TERAHEAP_BENCH_THREADS` steers how many *host* threads the bench
/// harness uses; it must be invisible to the simulation. (Env vars are
/// process-global, so this is its own test rather than a property case.)
#[test]
fn bench_thread_env_does_not_affect_simulated_time() {
    let ops: Vec<Op> = (0..40)
        .map(|i| match i % 9 {
            0 => Op::TagAndMove(i % 7, (i % 5 + 1) as u64),
            1 => Op::MinorGc,
            8 => Op::MajorGc,
            _ => Op::Alloc(i as u64 * 31),
        })
        .collect();
    let baseline = run_program(GcVariant::ParallelScavenge, &ops, 4);
    std::env::set_var("TERAHEAP_BENCH_THREADS", "7");
    let with_env = run_program(GcVariant::ParallelScavenge, &ops, 4);
    std::env::remove_var("TERAHEAP_BENCH_THREADS");
    assert_eq!(baseline, with_env, "TERAHEAP_BENCH_THREADS leaked into the simulation");
}
