//! The knob matrix: the one equivalence suite for the dual-heap runtime.
//!
//! TeraHeap is only correct if its H1/H2 invariants (forward references
//! fenced, backward references carried in H2 card states, region liveness
//! following dependencies) hold under every collector shape. This suite
//! checks them by composing knobs, in four parts:
//!
//! 1. **One program generator** ([`program`]): random mutator programs on
//!    `teraheap_util::proptest_mini`. A failure shrinks to a minimal op
//!    sequence and replays with `TERAHEAP_PROP_SEED=<seed> cargo test -p
//!    teraheap-runtime --test gc_equivalence`.
//! 2. **One reference model** ([`Mirror`]): a plain object graph with no
//!    collector. Every read a program makes, mid-cycle included, and the
//!    final reachable graph must equal it in every cell.
//! 3. **One golden table** ([`golden_table`]): a fixed mixed minor/major/H2
//!    workload whose graph checksum, clock breakdown, GC and I/O statistics
//!    and full event digest are pinned per collector shape.
//! 4. **Relations over the drawn cells** (variant × H2 × device ×
//!    `gc_threads` × pause budget × fault plane × tracing level × host
//!    thread):
//!    - dormant knobs (tracing level, a zero-rate fault plane, a `u64::MAX`
//!      budget, the host thread, `TERAHEAP_BENCH_THREADS`) leave the full
//!      report bit-identical;
//!    - `gc_threads` reshapes time only;
//!    - finite pause budgets reach the same residency-inclusive heap;
//!    - full-level event streams are time-ordered and well-nested, and
//!      their phases sit inside major brackets.
//!
//! The heap checker runs at every GC boundary (and after every pause
//! slice) of every generated run.
//!
//! If a change legitimately alters the cost model, re-capture the goldens
//! with `TERAHEAP_GOLDEN_PRINT=1 cargo test -p teraheap-runtime --test
//! gc_equivalence -- --nocapture` and say so in the change; an optimization
//! must reproduce them exactly.

use std::collections::HashMap;
use std::ops::Range;

use teraheap_core::{H2Config, Label};
use teraheap_runtime::obs::{Event, EventKind, Level, SpanKind, SPAN_COUNT, SPAN_NAMES};
use teraheap_runtime::{
    ClassId, GcStats, GcVariant, Handle, Heap, HeapConfig, OBJ_ARRAY_CLASS, PRIM_ARRAY_CLASS,
};
use teraheap_storage::{Breakdown, Category, DeviceSpec, FaultPlan, SharedDevice};
use teraheap_util::proptest_mini::{
    any_u64, check, range_u64, range_usize, vec_of, CaseResult, Config, Just, Strategy, SEED_ENV,
};
use teraheap_util::prop_oneof;

/// Ring capacity for recorded event streams: large enough that no run in
/// this suite drops an event.
const EVENT_RING: usize = 1 << 20;

/// FNV-1a over a stream of u64s — deterministic, dependency-free.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn push(&mut self, v: u64) {
        self.push_bytes(&v.to_le_bytes());
    }
    fn push_bytes(&mut self, bytes: &[u8]) {
        let mut h = self.0;
        for &byte in bytes {
            h ^= byte as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self.0 = h;
    }
}

/// FNV-1a digest of the heap's full-level event stream: every event's
/// sequence number, timestamp and payload, in emission order. Pins the
/// exact unit, lane and barrier structure of every collection.
fn events_digest(heap: &Heap) -> u64 {
    let tracer = heap.clock().tracer();
    assert_eq!(tracer.dropped(), 0, "event ring overflowed; raise EVENT_RING");
    let mut fnv = Fnv::new();
    for e in tracer.events() {
        fnv.push(e.seq);
        fnv.push(e.t_ns);
        fnv.push_bytes(format!("{:?}", e.kind).as_bytes());
    }
    fnv.0
}

/// Checksums the reachable object graph through the public mutator API in
/// deterministic (depth-first, field-order) order: class ids, array
/// lengths, primitive payloads, H2-residency and label of every visited
/// object, and the shape of the reference graph (via a visit-order
/// numbering). Collector timing and object placement never enter it.
fn graph_checksum(heap: &mut Heap, roots: &[Handle]) -> u64 {
    let mut fnv = Fnv::new();
    let mut order: HashMap<u64, u64> = HashMap::new();
    let mut stack: Vec<Handle> = Vec::new();
    for &r in roots.iter().rev() {
        stack.push(heap.dup(r));
    }
    while let Some(h) = stack.pop() {
        let addr = heap.handle_addr(h).raw();
        if let Some(&seen) = order.get(&addr) {
            fnv.push(u64::MAX); // back-reference marker
            fnv.push(seen);
            heap.release(h);
            continue;
        }
        let n = order.len() as u64;
        order.insert(addr, n);
        let class = heap.class_of(h);
        fnv.push(class.0 as u64);
        fnv.push(heap.is_in_h2(h) as u64);
        fnv.push(heap.h2_label_of(h));
        if class == OBJ_ARRAY_CLASS {
            let len = heap.array_len(h);
            fnv.push(len as u64);
            for i in (0..len).rev() {
                match heap.read_ref(h, i) {
                    Some(c) => stack.push(c),
                    None => fnv.push(0),
                }
            }
        } else if class == PRIM_ARRAY_CLASS {
            let len = heap.array_len(h);
            fnv.push(len as u64);
            for i in 0..len {
                fnv.push(heap.read_prim(h, i));
            }
        } else {
            let desc = heap.class_desc(class).clone();
            for i in (0..desc.ref_fields).rev() {
                match heap.read_ref(h, i) {
                    Some(c) => stack.push(c),
                    None => fnv.push(0),
                }
            }
            for i in 0..desc.prim_fields {
                fnv.push(heap.read_prim(h, i));
            }
        }
        heap.release(h);
    }
    fnv.0
}

// ---- the golden table ----

/// H2 geometry: regions, words per region, then the resident budget and
/// the promotion buffer in KiB.
type H2Geometry = [usize; 4];

/// Attaches H2 of `geometry` to `heap` over a fresh `spec` device under
/// `plan`, returning the device handle.
fn attach_h2(
    heap: &mut Heap,
    spec: DeviceSpec,
    geometry: H2Geometry,
    plan: FaultPlan,
) -> SharedDevice {
    let [regions, region_words, budget_kib, promo_kib] = geometry;
    let h2cfg = H2Config::builder()
        .region_words(region_words)
        .n_regions(regions)
        .card_seg_words(256)
        .resident_budget_bytes(budget_kib << 10)
        .page_size(4096)
        .promo_buffer_bytes(promo_kib << 10)
        .faults(plan)
        .build()
        .expect("valid H2 config");
    let dev = SharedDevice::new(spec, h2cfg.footprint_bytes(), heap.clock().clone());
    heap.attach_h2(h2cfg, &dev).unwrap();
    dev
}

/// The mixed workload attached through the explicit [`SharedDevice`] path,
/// returning the device handle so tests can inspect arbitration counters.
fn run_mixed_workload(config: HeapConfig, plan: FaultPlan) -> (Heap, Vec<Handle>, SharedDevice) {
    let mut heap = Heap::new(config);
    // Record the full event stream for the snapshot's digest, whatever the
    // ambient `TERAHEAP_OBS` level (tracing never advances the clock).
    heap.clock().tracer().set_level(Level::Full);
    heap.clock().tracer().set_capacity(EVENT_RING);
    let dev = attach_h2(&mut heap, DeviceSpec::nvme_ssd(), [48, 8 << 10, 96, 16], plan);
    let keep = mixed_workload_body(&mut heap);
    (heap, keep, dev)
}

/// The mixed workload: generational churn, H1 card traffic, hint-driven H2
/// promotion, mutator H2 updates (backward references), region death, and
/// enough pressure for several minor and major collections.
fn mixed_workload_body(heap: &mut Heap) -> Vec<Handle> {
    let node = heap.register_class("Node", 2, 2);
    let leaf = heap.register_class("Leaf", 0, 3);

    let mut keep: Vec<Handle> = Vec::new();

    // Three tagged partitions that will move to H2, each a list of nodes
    // with leaf payloads and a spine array.
    for part in 0..3u64 {
        let spine = heap.alloc_ref_array(64).unwrap();
        for i in 0..64 {
            let n = heap.alloc(node).unwrap();
            let l = heap.alloc(leaf).unwrap();
            heap.write_prim(l, 0, part * 1000 + i as u64);
            heap.write_prim(l, 1, i as u64 * 3);
            heap.write_ref(n, 1, l);
            heap.write_prim(n, 0, i as u64);
            if i > 0 {
                let prev = heap.read_ref(spine, i - 1).unwrap();
                heap.write_ref(prev, 0, n);
                heap.release(prev);
            }
            heap.write_ref(spine, i, n);
            heap.release(n);
            heap.release(l);
        }
        heap.h2_tag_root(spine, Label::new(part + 1));
        keep.push(spine);
    }

    // Generational churn with surviving islands to exercise minor GCs and
    // old→young card traffic.
    let island = heap.alloc_ref_array(32).unwrap();
    keep.push(island);
    for round in 0..6u64 {
        for i in 0..400u64 {
            let t = heap.alloc(leaf).unwrap();
            heap.write_prim(t, 0, round * 10_000 + i);
            if i % 13 == 0 {
                heap.write_ref(island, (i % 32) as usize, t);
            }
            heap.release(t);
        }
        heap.gc_minor().unwrap();
    }

    // Move partitions 1 and 2 to H2; partition 3 stays (its hint never
    // arrives) so the pressure path is exercised too.
    heap.h2_move(Label::new(1));
    heap.h2_move(Label::new(2));
    heap.gc_major().unwrap();

    // Mutator updates against H2-resident nodes: create backward (H2→H1)
    // references, dirtying H2 cards for the next minor scans.
    for &spine in &keep[..2] {
        for i in (0..64).step_by(7) {
            let n = heap.read_ref(spine, i).unwrap();
            let fresh = heap.alloc(leaf).unwrap();
            heap.write_prim(fresh, 0, 777_000 + i as u64);
            heap.write_ref(n, 1, fresh);
            heap.release(fresh);
            heap.release(n);
        }
        heap.gc_minor().unwrap();
    }

    // Drop partition 2 entirely: its regions die and are swept by the next
    // major GC.
    let dead = keep.remove(1);
    heap.release(dead);
    heap.gc_major().unwrap();

    // Final churn + minor so post-major card state is exercised.
    for i in 0..200u64 {
        let t = heap.alloc(leaf).unwrap();
        heap.write_prim(t, 0, 999_000 + i);
        if i % 9 == 0 {
            heap.write_ref(island, (i % 32) as usize, t);
        }
        heap.release(t);
    }
    heap.gc_minor().unwrap();

    keep
}

#[derive(Debug, PartialEq, Eq)]
struct Snapshot {
    checksum: u64,
    total_ns: u64,
    mutator_ns: u64,
    minor_gc_ns: u64,
    major_gc_ns: u64,
    minor_count: u64,
    major_count: u64,
    marking_ns: u64,
    precompact_ns: u64,
    adjust_ns: u64,
    compact_ns: u64,
    h2_minor_scan_ns: u64,
    backward_refs_seen: u64,
    forward_refs_fenced: u64,
    objects_promoted_h2: u64,
    h2_page_faults: u64,
    h2_read_bytes: u64,
    h2_write_bytes: u64,
    h2_evictions: u64,
    lane_stall_ns: u64,
    incr_slices: u64,
    write_barrier_remembered: u64,
    events_digest: u64,
}

fn capture(config: HeapConfig, plan: FaultPlan) -> Snapshot {
    let (heap, keep, _dev) = run_mixed_workload(config, plan);
    capture_from(heap, keep)
}

fn capture_from(mut heap: Heap, keep: Vec<Handle>) -> Snapshot {
    // Clock and stats first: the checksum traversal itself charges time.
    let total_ns = heap.clock().total_ns();
    let mutator_ns = heap.clock().category_ns(Category::Mutator);
    let minor_gc_ns = heap.clock().category_ns(Category::MinorGc);
    let major_gc_ns = heap.clock().category_ns(Category::MajorGc);
    let stats = heap.stats().clone();
    let io = {
        let m = heap.h2().unwrap().mmap().stats();
        (m.page_faults(), m.read_bytes(), m.write_bytes(), m.evictions())
    };
    let events_digest = events_digest(&heap);
    let checksum = graph_checksum(&mut heap, &keep);
    Snapshot {
        checksum,
        total_ns,
        mutator_ns,
        minor_gc_ns,
        major_gc_ns,
        minor_count: stats.minor_count,
        major_count: stats.major_count,
        marking_ns: stats.phases.marking_ns,
        precompact_ns: stats.phases.precompact_ns,
        adjust_ns: stats.phases.adjust_ns,
        compact_ns: stats.phases.compact_ns,
        h2_minor_scan_ns: stats.h2_minor_scan_ns,
        backward_refs_seen: stats.backward_refs_seen,
        forward_refs_fenced: stats.forward_refs_fenced,
        objects_promoted_h2: stats.objects_promoted_h2,
        h2_page_faults: io.0,
        h2_read_bytes: io.1,
        h2_write_bytes: io.2,
        h2_evictions: io.3,
        lane_stall_ns: stats.lane_stall_ns,
        incr_slices: stats.incr_slices,
        write_barrier_remembered: stats.write_barrier_remembered,
        events_digest,
    }
}

/// The golden table: one entry per collector shape, run on the mixed
/// workload. See the module docs for the re-capture procedure.
fn golden_table() -> [(&'static str, HeapConfig, Snapshot); 5] {
    let geometry = || HeapConfig::builder(24 << 10, 96 << 10);
    [
        (
            // The default configuration is the serial collector
            // (`gc_threads = 1`). Its numbers were captured from the
            // pre-work-unit-scheduler serial implementation; the scheduled
            // single-lane path must reproduce them bit-identically, forever.
            "default",
            geometry().gc_threads(1).build().expect("serial config is valid"),
            Snapshot {
                checksum: 17052372585936982735,
                total_ns: 351855,
                mutator_ns: 197628,
                minor_gc_ns: 81493,
                major_gc_ns: 72734,
                minor_count: 9,
                major_count: 2,
                marking_ns: 22524,
                precompact_ns: 7200,
                adjust_ns: 4180,
                compact_ns: 38830,
                h2_minor_scan_ns: 48432,
                backward_refs_seen: 50,
                forward_refs_fenced: 0,
                objects_promoted_h2: 258,
                h2_page_faults: 2,
                h2_read_bytes: 8192,
                h2_write_bytes: 0,
                h2_evictions: 0,
                lane_stall_ns: 0,
                incr_slices: 0,
                write_barrier_remembered: 0,
                events_digest: 13383017096154399470,
            },
        ),
        (
            // Four modeled GC threads: lane picks, barrier sync and stalls,
            // and the lane placement of every serial chain (candidate
            // selection, H2 address assignment) are pinned through the
            // event digest.
            "four_lanes",
            geometry().gc_threads(4).build().expect("four-lane config is valid"),
            Snapshot {
                checksum: 17052372585936982735,
                total_ns: 300259,
                mutator_ns: 197628,
                minor_gc_ns: 46368,
                major_gc_ns: 56263,
                minor_count: 9,
                major_count: 2,
                marking_ns: 9978,
                precompact_ns: 5418,
                adjust_ns: 3645,
                compact_ns: 37222,
                h2_minor_scan_ns: 29891,
                backward_refs_seen: 50,
                forward_refs_fenced: 0,
                objects_promoted_h2: 258,
                h2_page_faults: 2,
                h2_read_bytes: 8192,
                h2_write_bytes: 0,
                h2_evictions: 0,
                lane_stall_ns: 150691,
                incr_slices: 0,
                write_barrier_remembered: 0,
                events_digest: 15367098799984318625,
            },
        ),
        (
            // G1: concurrent-marking discount, the mixed-collection fraction
            // applied to adjust and compact, and humongous footprints — at
            // 128-word regions the 64-element partition spines are
            // humongous, so compaction destinations overtake their sources
            // and go through the deferred-copy stash.
            "g1",
            geometry()
                .variant(GcVariant::G1 { region_words: 128 })
                .build()
                .expect("G1 config is valid"),
            Snapshot {
                checksum: 17052372585936982735,
                total_ns: 326627,
                mutator_ns: 197628,
                minor_gc_ns: 80263,
                major_gc_ns: 48736,
                minor_count: 9,
                major_count: 2,
                marking_ns: 5631,
                precompact_ns: 7200,
                adjust_ns: 600,
                compact_ns: 35305,
                h2_minor_scan_ns: 48432,
                backward_refs_seen: 50,
                forward_refs_fenced: 0,
                objects_promoted_h2: 258,
                h2_page_faults: 2,
                h2_read_bytes: 8192,
                h2_write_bytes: 0,
                h2_evictions: 0,
                lane_stall_ns: 0,
                incr_slices: 0,
                write_barrier_remembered: 0,
                events_digest: 3153946821894763017,
            },
        ),
        (
            // Panthera: all but the first 2K words of the old generation are
            // NVM, so marking, adjustment and compaction pay per-word NVM
            // penalties.
            "panthera",
            geometry()
                .variant(GcVariant::Panthera { old_dram_words: 2 << 10, nvm: DeviceSpec::optane_nvm() })
                .build()
                .expect("Panthera config is valid"),
            Snapshot {
                checksum: 17052372585936982735,
                total_ns: 365508,
                mutator_ns: 197628,
                minor_gc_ns: 92556,
                major_gc_ns: 75324,
                minor_count: 9,
                major_count: 2,
                marking_ns: 24855,
                precompact_ns: 7200,
                adjust_ns: 4439,
                compact_ns: 38830,
                h2_minor_scan_ns: 48432,
                backward_refs_seen: 50,
                forward_refs_fenced: 0,
                objects_promoted_h2: 258,
                h2_page_faults: 2,
                h2_read_bytes: 8192,
                h2_write_bytes: 0,
                h2_evictions: 0,
                lane_stall_ns: 0,
                incr_slices: 0,
                write_barrier_remembered: 0,
                events_digest: 486547445617527048,
            },
        ),
        (
            // The default 50 µs pause budget: proactive cycles run as pause
            // slices. The old generation is shrunk to 32K words because the
            // proactive trigger (old free space below twice the young
            // generation) never fires at 96K; at 32K every minor GC starts
            // a cycle.
            "sliced",
            HeapConfig::builder(24 << 10, 32 << 10)
                .pause_budget_ns(50_000)
                .build()
                .expect("sliced config is valid"),
            Snapshot {
                checksum: 17052372585936982735,
                total_ns: 518221,
                mutator_ns: 197628,
                minor_gc_ns: 66893,
                major_gc_ns: 253700,
                minor_count: 9,
                major_count: 11,
                marking_ns: 109194,
                precompact_ns: 43644,
                adjust_ns: 4380,
                compact_ns: 96482,
                h2_minor_scan_ns: 46112,
                backward_refs_seen: 80,
                forward_refs_fenced: 0,
                objects_promoted_h2: 258,
                h2_page_faults: 2,
                h2_read_bytes: 8192,
                h2_write_bytes: 0,
                h2_evictions: 0,
                lane_stall_ns: 0,
                incr_slices: 9,
                write_barrier_remembered: 0,
                events_digest: 3004829685108958790,
            },
        ),
    ]
}

/// Every entry reproduces through a queueless sole-tenant device, and so
/// it does under the dormant knobs: an armed zero-rate fault plane, a
/// `u64::MAX` pause budget (which never starts a cycle, so it behaves
/// exactly like `0`: no slice, no barrier), racing host threads and
/// `TERAHEAP_BENCH_THREADS`. (Env vars are process-global, so the last is
/// set here rather than in a property.)
#[test]
fn golden_table_reproduces_every_entry() {
    // The default entry is also the unconfigured heap: `gc_threads = 1` is
    // the default, so one entry pins both the default and the serial path.
    assert_eq!(golden_table()[0].1, HeapConfig::with_words(24 << 10, 96 << 10));
    for (name, config, want) in golden_table() {
        let (heap, keep, dev) = run_mixed_workload(config, FaultPlan::none());
        // A sole tenant at full weight never queues: the virtual-time fair
        // queue degenerates to FIFO against an idle device, so every wait is
        // zero though real service time flows through the arbiter, and the
        // tenant's finish tag tracks the device's virtual time exactly.
        let id = dev.tenant_of(heap.clock()).expect("heap's clock is registered");
        let io = dev.tenant_io(id).expect("registered tenant has counters");
        assert_eq!((io.queued_ns, io.queued_ops), (0, 0), "{name}: a sole tenant waited");
        assert!(io.ops > 0 && io.busy_ns > 0, "{name}: arbitrated ops carry real service time");
        assert_eq!(dev.finish_tag_ns(id), Some(dev.device_vtime_ns()));
        assert!(dev.device_vtime_ns() >= io.busy_ns, "virtual time covers all service");
        let got = capture_from(heap, keep);
        if std::env::var("TERAHEAP_GOLDEN_PRINT").is_ok() {
            println!("{name} -> {got:#?}");
        }
        assert_eq!(got, want, "{name} diverged");
        let (heap, keep, _dev) = run_mixed_workload(config, FaultPlan::zero_rate(1234));
        let plane = heap.h2().unwrap().fault_plane().expect("zero_rate arms the plane").clone();
        assert_eq!(capture_from(heap, keep), want, "{name} under a zero-rate plane");
        // The hooks were live, not bypassed, and still added nothing.
        assert!(plane.writebacks() > 0, "{name}: the zero-rate plane saw no write-back");
        assert_eq!((plane.faults_injected(), plane.retries(), plane.crashed()), (0, 0, false));
        if config.variant == GcVariant::ParallelScavenge && config.pause_budget_ns == 0 {
            let idle = HeapConfig { pause_budget_ns: u64::MAX, ..config };
            assert_eq!(capture(idle, FaultPlan::none()), want, "{name} at a u64::MAX budget");
        }
    }
    // `TERAHEAP_BENCH_THREADS` steers the bench harness's host threads; it
    // must be as invisible to the simulation as the threads themselves,
    // whatever the lane count.
    std::env::set_var("TERAHEAP_BENCH_THREADS", "7");
    for (name, config, want) in golden_table() {
        for got in race(|| capture(config, FaultPlan::none())) {
            assert_eq!(got, want, "{name}: a racing host thread with TERAHEAP_BENCH_THREADS set");
        }
    }
    std::env::remove_var("TERAHEAP_BENCH_THREADS");
}

// ---- the program generator ----

/// Objects a program holds handles to at most; allocating past it releases
/// a pooled object, so long programs churn instead of growing.
const POOL: usize = 24;
/// Nodes in the spine every program starts from, enough that marking its
/// old subtree spans several pause slices at small budgets. The spine is
/// tagged with label 1, so `TagAndMove(_, 1)` (or the pinned spine move of
/// a `pin_moves` cell) moves it to H2.
const SPINE: usize = 32;

/// An object's layout: a `Node` has two ref and two prim fields, a `Leaf`
/// two prim fields, and arrays have the given length.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Shape {
    Node,
    Leaf,
    Refs(usize),
    Prims(usize),
}

impl Shape {
    fn refs(self) -> usize {
        match self { Shape::Node => 2, Shape::Refs(n) => n, Shape::Leaf | Shape::Prims(_) => 0 }
    }
    fn prims(self) -> usize {
        match self { Shape::Node | Shape::Leaf => 2, Shape::Prims(n) => n, Shape::Refs(_) => 0 }
    }
}

/// One mutator step. Object operands index the held pool modulo its size,
/// slot operands the object's slots of the kind the op touches.
#[derive(Debug, Clone)]
enum Op {
    /// Allocate with prims seeded from the value, through `write_prims`,
    /// and about half the ref slots pointing into the pool.
    Alloc(Shape, u64),
    /// Point ref slot `s` of pooled object `a` at pooled object `b`.
    Link(usize, usize, usize),
    Unlink(usize, usize),
    WritePrim(usize, usize, u64),
    /// Read one field and check it against the model: a prim, or a ref
    /// whose target is checked whole through `read_prims`.
    Read(usize, usize),
    /// Release a pooled object's handle; it may become garbage.
    Release(usize),
    /// Replace the leaf of spine node `i` with a fresh one, keeping the old
    /// leaf: a backward (H2→H1) reference once the spine is in H2, and the
    /// pointer move the SATB deletion barrier exists for, mid-cycle when
    /// one runs.
    SpineWrite(usize, u64),
    MinorGc,
    MajorGc,
    /// Tag a pooled object with a label and request the label's move.
    TagAndMove(usize, u64),
    /// Pure mutator time: drives the slice pacing poll.
    ChargeOps(u64),
    /// A `Stage` span around some mutator time.
    Stage,
    /// Write back every dirty H2 page.
    Msync,
}

/// Programs of `len` ops. The mutator ops weigh 890 in total; a minor GC
/// weighs `minor` and a major GC and a tag-and-move each weigh `major`.
fn program(len: Range<usize>, (minor, major): (u32, u32)) -> impl Strategy<Value = Vec<Op>> {
    let shape = prop_oneof![
        4 => Just(Shape::Leaf),
        3 => Just(Shape::Node),
        1 => range_usize(1..7).prop_map(Shape::Refs),
        1 => range_usize(2..14).prop_map(Shape::Prims),
    ];
    let slot = || (range_usize(0..64), range_usize(0..8));
    let op = prop_oneof![
        400 => (shape, any_u64()).prop_map(|(s, v)| Op::Alloc(s, v)),
        120 => (slot(), range_usize(0..64)).prop_map(|((a, s), b)| Op::Link(a, s, b)),
        30 => slot().prop_map(|(a, s)| Op::Unlink(a, s)),
        60 => (slot(), any_u64()).prop_map(|((a, s), v)| Op::WritePrim(a, s, v)),
        80 => slot().prop_map(|(a, s)| Op::Read(a, s)),
        60 => range_usize(0..64).prop_map(Op::Release),
        50 => (range_usize(0..SPINE), any_u64()).prop_map(|(i, v)| Op::SpineWrite(i, v)),
        50 => range_u64(0..2000).prop_map(Op::ChargeOps),
        20 => Just(Op::Stage),
        20 => Just(Op::Msync),
        minor => Just(Op::MinorGc),
        major => Just(Op::MajorGc),
        major => (range_usize(0..64), range_u64(1..8)).prop_map(|(a, l)| Op::TagAndMove(a, l)),
    ];
    vec_of(op, len)
}

/// Collection weights of short programs: about one op in six collects.
const SHORT: (u32, u32) = (60, 60);
/// Collection weights of long programs: a minor GC every ~180 ops, each
/// starting a sliced cycle that runs while the mutator does; majors and
/// moves are rare.
const LONG: (u32, u32) = (5, 1);

// ---- the reference model ----

/// One object of the reference model: its class and every slot's value.
#[derive(Debug, Clone)]
struct ModelObj {
    shape: Shape,
    class: ClassId,
    refs: Vec<Option<usize>>,
    prims: Vec<u64>,
}

/// A heap stepped together with its reference model: a plain object graph
/// with no collector. Object 0 is the spine; the program holds handles to
/// the spine and to the pooled objects.
struct Mirror {
    heap: Heap,
    node: ClassId,
    leaf: ClassId,
    objs: Vec<ModelObj>,
    /// Per model object, the program's handle while it holds one.
    handles: Vec<Option<Handle>>,
    pool: Vec<usize>,
}

impl Mirror {
    fn new(mut heap: Heap) -> Mirror {
        let node = heap.register_class("Node", 2, 2);
        let leaf = heap.register_class("Leaf", 0, 2);
        let (objs, handles, pool) = (Vec::new(), Vec::new(), Vec::new());
        let mut m = Mirror { heap, node, leaf, objs, handles, pool };
        let spine = m.alloc(Shape::Refs(SPINE), 0);
        for i in 0..SPINE {
            let n = m.alloc(Shape::Node, i as u64);
            let l = m.alloc(Shape::Leaf, 1000 + i as u64);
            m.link(n, 1, l);
            m.link(spine, i, n);
            m.drop_handle(n);
            m.drop_handle(l);
        }
        m.heap.h2_tag_root(m.handle(spine), Label::new(1));
        m
    }

    fn handle(&self, id: usize) -> Handle {
        self.handles[id].expect("the program holds this object")
    }

    fn drop_handle(&mut self, id: usize) {
        let h = self.handles[id].take().expect("the program holds this object");
        self.heap.release(h);
    }

    fn alloc(&mut self, shape: Shape, v: u64) -> usize {
        let heap = &mut self.heap;
        let (class, h) = match shape {
            Shape::Node => (self.node, heap.alloc(self.node)),
            Shape::Leaf => (self.leaf, heap.alloc(self.leaf)),
            Shape::Refs(n) => (OBJ_ARRAY_CLASS, heap.alloc_ref_array(n)),
            Shape::Prims(n) => (PRIM_ARRAY_CLASS, heap.alloc_prim_array(n)),
        };
        let h = h.expect("alloc");
        let prims: Vec<u64> = (0..shape.prims() as u64).map(|i| v.wrapping_add(i)).collect();
        heap.write_prims(h, 0, &prims);
        self.objs.push(ModelObj { shape, class, refs: vec![None; shape.refs()], prims });
        self.handles.push(Some(h));
        self.objs.len() - 1
    }

    fn link(&mut self, id: usize, slot: usize, target: usize) {
        self.heap.write_ref(self.handle(id), slot, self.handle(target));
        self.objs[id].refs[slot] = Some(target);
    }

    /// Pools held object `id`, releasing the `evict`-th pooled object if
    /// the pool overflows.
    fn pool_push(&mut self, id: usize, evict: usize) {
        self.pool.push(id);
        if self.pool.len() > POOL {
            let old = self.pool.swap_remove(evict % POOL);
            self.drop_handle(old);
        }
    }

    /// The pooled object operand `a` names, if the pool is non-empty.
    fn pooled(&self, a: usize) -> Option<usize> {
        (!self.pool.is_empty()).then(|| self.pool[a % self.pool.len()])
    }

    /// The pooled object `a` and its slot `s` among the `kind` slots, if
    /// it has any.
    fn slot(&self, a: usize, s: usize, kind: fn(Shape) -> usize) -> Option<(usize, usize)> {
        let id = self.pooled(a)?;
        let n = kind(self.objs[id].shape);
        (n > 0).then(|| (id, s % n))
    }

    /// Asserts the object behind `h` equals model object `id`: class,
    /// array length, every prim, and identity while the program holds `id`.
    fn check_obj(&mut self, h: Handle, id: usize) {
        let (shape, class) = (self.objs[id].shape, self.objs[id].class);
        assert_eq!(self.heap.class_of(h), class, "object {id}: class");
        if let Shape::Refs(n) | Shape::Prims(n) = shape {
            assert_eq!(self.heap.array_len(h), n, "object {id}: length");
        }
        let mut prims = vec![0u64; shape.prims()];
        self.heap.read_prims(h, 0, &mut prims);
        assert_eq!(prims, self.objs[id].prims, "object {id}: prims");
        if let Some(held) = self.handles[id] {
            assert!(self.heap.same_object(h, held), "object {id}: identity");
        }
    }

    /// Reads ref slot `slot` of `h` (model object `id`) and checks the
    /// target against the model; the caller releases the returned handle.
    fn follow(&mut self, h: Handle, id: usize, slot: usize) -> Option<(usize, Handle)> {
        match (self.heap.read_ref(h, slot), self.objs[id].refs[slot]) {
            (None, None) => None,
            (Some(c), Some(t)) => {
                self.check_obj(c, t);
                Some((t, c))
            }
            (got, want) => panic!("object {id} slot {slot}: heap {got:?}, model {want:?}"),
        }
    }

    fn step(&mut self, op: &Op, pin_moves: bool) {
        match *op {
            Op::Alloc(shape, v) => {
                let id = self.alloc(shape, v);
                // Fill about half the ref slots from the pool, as a
                // constructor would.
                for slot in (0..shape.refs()).filter(|&slot| v >> slot & 1 == 1) {
                    if let Some(t) = self.pooled((v >> (8 + slot)) as usize) {
                        self.link(id, slot, t);
                    }
                }
                self.pool_push(id, v as usize);
            }
            Op::Link(a, s, b) => {
                if let (Some((id, s)), Some(t)) = (self.slot(a, s, Shape::refs), self.pooled(b)) {
                    self.link(id, s, t);
                }
            }
            Op::Unlink(a, s) => {
                if let Some((id, s)) = self.slot(a, s, Shape::refs) {
                    self.heap.write_ref_null(self.handle(id), s);
                    self.objs[id].refs[s] = None;
                }
            }
            Op::WritePrim(a, s, v) => {
                if let Some((id, s)) = self.slot(a, s, Shape::prims) {
                    self.heap.write_prim(self.handle(id), s, v);
                    self.objs[id].prims[s] = v;
                }
            }
            Op::Read(a, s) => {
                if let Some((id, s)) = self.slot(a, s, |shape| shape.refs() + shape.prims()) {
                    let (h, shape) = (self.handle(id), self.objs[id].shape);
                    if s < shape.refs() {
                        if let Some((_, c)) = self.follow(h, id, s) {
                            self.heap.release(c);
                        }
                    } else {
                        let k = s - shape.refs();
                        let want = self.objs[id].prims[k];
                        assert_eq!(self.heap.read_prim(h, k), want, "object {id} prim {k}");
                    }
                }
            }
            Op::Release(a) => {
                if !self.pool.is_empty() {
                    let id = self.pool.swap_remove(a % self.pool.len());
                    self.drop_handle(id);
                }
            }
            Op::SpineWrite(i, v) => {
                let (node, h) = self.follow(self.handle(0), 0, i).expect("spine slots stay set");
                self.handles[node] = Some(h);
                let old = self.follow(h, node, 1);
                let leaf = self.alloc(Shape::Leaf, v);
                self.link(node, 1, leaf);
                self.drop_handle(leaf);
                self.drop_handle(node);
                // The mutator keeps the leaf it replaced, like a local: the
                // SATB deletion barrier must keep it alive mid-mark.
                match old {
                    Some((t, c)) if self.handles[t].is_none() => {
                        self.handles[t] = Some(c);
                        self.pool_push(t, v as usize);
                    }
                    Some((_, c)) => self.heap.release(c),
                    None => {}
                }
            }
            Op::MinorGc => self.heap.gc_minor().expect("minor GC"),
            Op::MajorGc => self.heap.gc_major().expect("major GC"),
            Op::TagAndMove(a, label) => {
                if let Some(id) = self.pooled(a) {
                    self.heap.h2_tag_root(self.handle(id), Label::new(label));
                    self.h2_move(label, pin_moves);
                }
            }
            Op::ChargeOps(n) => self.heap.charge_ops(n),
            Op::Stage => {
                let span = self.heap.span(SpanKind::Stage);
                self.heap.charge_ops(64);
                drop(span);
            }
            Op::Msync => {
                if let Some(h2) = self.heap.h2_mut() {
                    h2.msync(Category::Io);
                }
            }
        }
    }

    /// Requests the move of `label` to H2. With `pin`, the move happens at
    /// this logical point: the first major finishes any in-flight cycle
    /// (whose candidate selection may predate the hint), the second honors
    /// the hint. Otherwise the moved set would depend on when the honoring
    /// collection runs, which legitimately differs across pause budgets.
    fn h2_move(&mut self, label: u64, pin: bool) {
        self.heap.h2_move(Label::new(label));
        if pin {
            self.heap.gc_major().expect("major finishing in-flight cycle");
            self.heap.gc_major().expect("major honoring h2_move");
        }
    }

    /// The program's roots: the spine, then the pool in order.
    fn roots(&self) -> Vec<usize> {
        std::iter::once(0).chain(self.pool.iter().copied()).collect()
    }

    /// Walks the reachable graph from the roots and asserts it equals the
    /// model in every cell, with one heap object per model object.
    fn check_graph(&mut self) {
        let mut addr_of: HashMap<usize, u64> = HashMap::new();
        let mut id_at: HashMap<u64, usize> = HashMap::new();
        let mut stack: Vec<(usize, Handle)> = Vec::new();
        for id in self.roots() {
            let h = self.heap.dup(self.handle(id));
            self.check_obj(h, id);
            stack.push((id, h));
        }
        while let Some((id, h)) = stack.pop() {
            let addr = self.heap.handle_addr(h).raw();
            let fresh = !addr_of.contains_key(&id);
            assert_eq!(*addr_of.entry(id).or_insert(addr), addr, "object {id} at two addresses");
            assert_eq!(*id_at.entry(addr).or_insert(id), id, "two objects at one address");
            for slot in 0..if fresh { self.objs[id].shape.refs() } else { 0 } {
                if let Some(target) = self.follow(h, id, slot) {
                    stack.push(target);
                }
            }
            self.heap.release(h);
        }
    }
}

// ---- cells, runs and reports ----

const GC_THREADS: [usize; 5] = [1, 2, 3, 4, 8];
/// Stop-world, then tiny (one work unit per slice, so marking spans many
/// slices and the mutator runs mid-mark), small, default, large (a cycle
/// completes in one or two slices) and infinite.
const BUDGETS: [u64; 6] = [0, 1_000, 5_000, 50_000, 1_000_000, u64::MAX];

/// One point of the knob matrix.
#[derive(Debug, Clone, Copy)]
struct Cell {
    variant: GcVariant,
    h2: bool,
    device: DeviceSpec,
    gc_threads: usize,
    budget: u64,
    zero_rate: bool,
    level: Level,
    /// Run every `TagAndMove` as `h2_move; gc_major; gc_major`, and move
    /// the spine that way a third of the way through the program.
    pin_moves: bool,
}

impl Cell {
    /// The cell at knob indices (variant, H2 device, `gc_threads` ×
    /// budget). Index 0 is the default on every axis, so failures shrink
    /// toward the default cell; non-zero budgets apply to PS only.
    fn drawn((v, d, tb): (usize, usize, usize)) -> Cell {
        let variant = [
            GcVariant::ParallelScavenge,
            GcVariant::G1 { region_words: 2048 },
            GcVariant::Panthera { old_dram_words: 4 << 10, nvm: DeviceSpec::optane_nvm() },
        ][v];
        let ps = variant == GcVariant::ParallelScavenge;
        Cell {
            variant,
            h2: d < 2,
            device: if d == 1 { DeviceSpec::optane_nvm() } else { DeviceSpec::nvme_ssd() },
            gc_threads: GC_THREADS[tb % GC_THREADS.len()],
            budget: if ps { BUDGETS[tb / GC_THREADS.len()] } else { 0 },
            zero_rate: false,
            level: Level::Full,
            pin_moves: false,
        }
    }
}

/// Knob indices for [`Cell::drawn`]: variant, H2 on NVMe / on Optane DAX /
/// off, and `gc_threads` × budget.
fn knobs() -> impl Strategy<Value = (usize, usize, usize)> {
    (range_usize(0..3), range_usize(0..3), range_usize(0..GC_THREADS.len() * BUDGETS.len()))
}

/// Everything a run reports. The residency-inclusive graph checksum is the
/// logical heap; the rest is time, counts, events and statistics.
#[derive(Debug, Clone)]
struct Report {
    checksum: u64,
    breakdown: Breakdown,
    charges: [u64; Category::COUNT],
    counts: Vec<(&'static str, u64)>,
    events: Vec<Event>,
    stats: GcStats,
    io: String,
}

impl Report {
    /// What this full-level report looks like when recorded at `level`:
    /// below `Full` the ring stays empty, and `Off` counts nothing.
    fn seen_at(mut self, level: Level) -> Report {
        if level < Level::Full {
            self.events.clear();
        }
        if level == Level::Off {
            self.charges = [0; Category::COUNT];
            self.counts.iter_mut().for_each(|c| c.1 = 0);
        }
        self
    }
}

/// Asserts two reports are bit-identical, naming the first field that
/// differs.
fn assert_same(what: &str, want: &Report, got: &Report) {
    let fields = [
        ("graph checksum", want.checksum == got.checksum),
        ("ns per category", want.breakdown == got.breakdown),
        ("charge counts", want.charges == got.charges),
        ("event counts", want.counts == got.counts),
        ("events", want.events == got.events),
        ("GC stats", want.stats == got.stats),
        ("I/O stats", want.io == got.io),
    ];
    if let Some((field, _)) = fields.iter().find(|(_, same)| !same) {
        panic!("{what}: {field} diverged");
    }
}

/// The index of the span slot called `name` in `SPAN_NAMES`.
fn span_slot(name: &str) -> usize {
    SPAN_NAMES.iter().position(|n| *n == name).expect("a span slot of that name")
}

/// Full-level streams are non-empty, time-ordered and well-nested per span
/// slot, leave no slot open, and place every phase inside a major bracket
/// (a whole-pause collection or an incremental slice).
fn assert_well_formed(events: &[Event]) {
    assert!(!events.is_empty(), "a full-level run records events");
    let (major, slice) = (span_slot("major_gc"), span_slot("major_slice"));
    let mut depth = [0i64; SPAN_COUNT];
    let mut last_t = 0;
    for e in events {
        assert!(e.t_ns >= last_t, "event {} out of time order", e.seq);
        last_t = e.t_ns;
        if let Some((slot, begin)) = e.kind.span_edge() {
            depth[slot] += if begin { 1 } else { -1 };
            assert!((0..=1).contains(&depth[slot]), "slot {slot} ill-nested at event {}", e.seq);
        }
        if matches!(e.kind, EventKind::PhaseBegin { .. } | EventKind::PhaseEnd { .. }) {
            let in_major = depth[major] + depth[slice] > 0;
            assert!(in_major, "phase outside a major at event {}", e.seq);
        }
    }
    assert_eq!(depth, [0; SPAN_COUNT], "span slots left open");
}

/// Runs `ops` in `cell`, checking every read and the final graph against
/// the model. Returns the report and the write-backs a zero-rate plane saw.
fn run(cell: Cell, ops: &[Op]) -> (Report, u64) {
    let config = HeapConfig::builder(8 << 10, 12 << 10)
        .variant(cell.variant)
        .gc_threads(cell.gc_threads)
        .pause_budget_ns(cell.budget)
        .obs_level(cell.level)
        .obs_events(EVENT_RING)
        .heap_check(true)
        .build()
        .expect("valid cell");
    let mut heap = Heap::new(config);
    if cell.h2 {
        let plan = if cell.zero_rate { FaultPlan::zero_rate(1234) } else { FaultPlan::none() };
        attach_h2(&mut heap, cell.device, [32, 4 << 10, 64, 8], plan);
    }
    let mut m = Mirror::new(heap);
    for (i, op) in ops.iter().enumerate() {
        if cell.pin_moves && i == ops.len() / 3 {
            // Move the spine (label 1) at a fixed logical point, so every
            // later spine write is a backward reference in each H2 cell.
            m.h2_move(1, true);
        }
        m.step(op, cell.pin_moves);
    }
    // Released root slots are recycled: the root table never outgrows the
    // most handles the program held at once (the pool, the spine and three
    // transient handles).
    assert!(m.heap.root_table_len() <= POOL + 4, "root table grew to {}", m.heap.root_table_len());
    // Settle: finish any in-flight cycle so every cell ends at the same
    // logical fixpoint.
    m.heap.gc_minor().expect("final minor GC");
    m.heap.gc_major().expect("final major GC");
    m.heap.heap_check().expect("final heap check");

    // Clock and stats first: checking and checksumming charge time.
    let heap = &m.heap;
    let tracer = heap.clock().tracer();
    assert_eq!(tracer.dropped(), 0, "event ring overflowed; raise EVENT_RING");
    let mut writebacks = 0;
    if let Some(plane) = heap.h2().and_then(|h2| h2.fault_plane()) {
        assert_eq!((plane.faults_injected(), plane.retries(), plane.crashed()), (0, 0, false));
        writebacks = plane.writebacks();
    }
    let mut report = Report {
        checksum: 0,
        breakdown: heap.clock().breakdown(),
        charges: tracer.charge_counts(),
        counts: tracer.counts(),
        events: tracer.events(),
        stats: heap.stats().clone(),
        // Every page-cache counter: faults, sequential faults, evictions,
        // reads, writes, bytes and retries.
        io: heap.h2().map(|h2| format!("{:?}", h2.mmap().stats())).unwrap_or_default(),
    };
    if cell.level == Level::Full {
        assert_well_formed(&report.events);
    }
    m.check_graph();
    let roots: Vec<Handle> = m.roots().into_iter().map(|id| m.handle(id)).collect();
    report.checksum = graph_checksum(&mut m.heap, &roots);
    (report, writebacks)
}

/// Runs `f` on three racing host threads.
fn race<T: Send>(f: impl Fn() -> T + Sync) -> Vec<T> {
    std::thread::scope(|s| {
        let racers: Vec<_> = (0..3).map(|_| s.spawn(&f)).collect();
        racers.into_iter().map(|r| r.join().expect("racer panicked")).collect()
    })
}

// ---- relations over the drawn cells ----

#[test]
fn dormant_knobs_leave_the_report_bit_identical() {
    let writebacks = std::cell::Cell::new(0);
    check(
        "dormant_knobs_leave_the_report_bit_identical",
        &(knobs(), program(1..80, SHORT)),
        &Config::with_cases(48),
        |(k, ops): ((usize, usize, usize), Vec<Op>)| {
            let cell = Cell::drawn(k);
            let base = run(cell, &ops).0;
            for got in race(|| run(cell, &ops).0) {
                assert_same("a racing host thread", &base, &got);
            }
            for level in [Level::Counters, Level::Off] {
                let got = run(Cell { level, ..cell }, &ops).0;
                assert!(got.events.is_empty(), "{level:?} keeps no ring events");
                assert_same(&format!("tracing at {level:?}"), &base.clone().seen_at(level), &got);
            }
            if cell.h2 {
                let (got, wb) = run(Cell { zero_rate: true, ..cell }, &ops);
                assert_same("a zero-rate fault plane", &base, &got);
                writebacks.set(writebacks.get() + wb);
            }
            if cell.variant == GcVariant::ParallelScavenge && matches!(cell.budget, 0 | u64::MAX) {
                let budget = u64::MAX - cell.budget;
                let got = run(Cell { budget, ..cell }, &ops).0;
                assert_same("a u64::MAX budget", &base, &got);
            }
            CaseResult::Pass
        },
    );
    // A replay runs one case, too few for a guard summed over all of them.
    let replay = std::env::var(SEED_ENV).is_ok();
    assert!(replay || writebacks.get() > 0, "no zero-rate cell saw a write-back");
}

#[test]
fn gc_threads_reshape_time_only() {
    check(
        "gc_threads_reshape_time_only",
        &(knobs(), program(1..80, SHORT)),
        &Config::with_cases(24),
        |(k, ops): ((usize, usize, usize), Vec<Op>)| {
            // What lanes must leave alone: the logical heap, collection
            // counts, promotions, and backward and fenced references.
            let semantics = |r: &Report| {
                let s = &r.stats;
                let h2 = (s.objects_promoted_h2, s.backward_refs_seen, s.forward_refs_fenced);
                (r.checksum, s.minor_count, s.major_count, h2)
            };
            let cell = Cell { budget: 0, ..Cell::drawn(k) };
            let base = run(Cell { gc_threads: 1, ..cell }, &ops).0;
            assert_eq!(base.stats.lane_stall_ns, 0, "a single lane never stalls");
            for gc_threads in &GC_THREADS[1..] {
                let got = run(Cell { gc_threads: *gc_threads, ..cell }, &ops).0;
                assert_eq!(semantics(&got), semantics(&base), "gc_threads={gc_threads}");
            }
            CaseResult::Pass
        },
    );
}

#[test]
fn finite_budgets_reach_the_same_heap() {
    check(
        "finite_budgets_reach_the_same_heap",
        &(range_usize(0..2), program(2500..3500, LONG)),
        // Programs of a thousand ops and more are too long to shrink (every
        // shrink step clones the whole program once per op); a failure
        // prints its replay seed.
        &Config { cases: 3, max_shrink_iters: 0, seed: None },
        |(d, ops): (usize, Vec<Op>)| {
            for h2 in [true, false] {
                let cell = Cell { h2, pin_moves: true, ..Cell::drawn((0, d, 0)) };
                let base = run(cell, &ops).0;
                assert_eq!(base.stats.incr_slices, 0, "a stop-world run never slices");
                // The pinned spine move promoted the spine, and the spine
                // writes after it were backward references.
                let s = &base.stats;
                assert!(!h2 || s.objects_promoted_h2 > 0, "nothing moved to H2");
                assert!(!h2 || s.backward_refs_seen > 0, "no backward reference seen");
                let (mut slices, mut remembered) = (0, 0);
                let threads: &[usize] = if h2 { &[1, 4] } else { &[1] };
                // The finite non-zero budgets: `u64::MAX` starts no cycle,
                // so it is a dormant knob, checked in that relation.
                for &budget in &BUDGETS[1..BUDGETS.len() - 1] {
                    for &gc_threads in threads {
                        let cell = Cell { budget, gc_threads, ..cell };
                        // One sliced cell runs on racing host threads, which
                        // must replay each other exactly.
                        let one = || run(cell, &ops).0;
                        let racing = (budget, gc_threads) == (50_000, 4);
                        let runs = if racing { race(one) } else { vec![one()] };
                        let got = &runs[0];
                        for there in &runs[1..] {
                            assert_same("a sliced run on a racing host thread", got, there);
                        }
                        let at = format!("h2 {h2}, budget {budget}, gc_threads {gc_threads}");
                        assert_eq!(got.checksum, base.checksum, "logical heap diverged: {at}");
                        slices += got.stats.incr_slices;
                        remembered += got.stats.write_barrier_remembered;
                    }
                }
                // The cells must exercise the machinery, or the equalities
                // above are vacuous.
                assert!(slices > 0, "no incremental cycle ran (h2 {h2})");
                assert!(!h2 || remembered > 0, "the SATB barrier never remembered a value");
            }
            CaseResult::Pass
        },
    );
}
