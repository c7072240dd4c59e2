//! Fault-recovery suite: random fault plans against random mutation
//! workloads, a runtime-level exhaustive crash sweep, and one seeded chaos
//! smoke per device profile.
//!
//! Property cases run on the in-repo harness
//! (`teraheap_util::proptest_mini`): every case derives from a printed
//! per-case seed, and a failure replays bit-for-bit with
//! `TERAHEAP_PROP_SEED=<seed> cargo test -p teraheap-runtime --test
//! fault_recovery`. The chaos smokes honour `TERAHEAP_FAULTS` (same syntax
//! as production, e.g.
//! `TERAHEAP_FAULTS=seed=7,write_err_ppm=50000,spike_every=256,spike_len=16,spike_mult=8`),
//! falling back to the built-in `FaultPlan::chaos` preset when unset.
//!
//! The full-heap invariant checker runs at **every GC boundary** of every
//! run here (`HeapConfig::heap_check`), so a single structurally-corrupt
//! collection anywhere in a case fails that case loudly.

use teraheap_core::{H2Config, Label};
use teraheap_runtime::{Handle, Heap, HeapConfig};
use teraheap_storage::{DeviceSpec, FaultPlan, SharedDevice};
use teraheap_util::proptest_mini::{
    check, range_u64, range_usize, vec_of, CaseResult, Config, Just, Strategy,
};
use teraheap_util::{prop_assert, prop_assert_eq, prop_oneof};

fn h2_config(plan: FaultPlan) -> H2Config {
    H2Config::builder()
        .region_words(2048)
        .n_regions(16)
        .card_seg_words(256)
        .resident_budget_bytes(32 << 10)
        .page_size(4096)
        .promo_buffer_bytes(8 << 10)
        .faults(plan)
        .build()
        .expect("valid H2 config")
}

/// A heap with the checker armed at every GC boundary and TeraHeap enabled
/// over `spec` under the given fault plan.
fn checked_heap(plan: FaultPlan, spec: DeviceSpec) -> Heap {
    let mut cfg = HeapConfig::with_words(4096, 16 << 10);
    cfg.heap_check = true;
    let mut heap = Heap::new(cfg);
    let h2cfg = h2_config(plan);
    let dev = SharedDevice::new(spec, h2cfg.footprint_bytes(), heap.clock().clone());
    heap.attach_h2(h2cfg, &dev).unwrap();
    heap
}

// ---------------------------------------------------------------------------
// Satellite 1a: random FaultPlan × random workload property (64+ cases).
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
enum Op {
    Alloc(u64),
    Link(usize, usize),
    Release(usize),
    MinorGc,
    MajorGc,
    TagAndMove(usize, u64),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => range_u64(0..1_000_000).prop_map(Op::Alloc),
        3 => (range_usize(0..48), range_usize(0..48)).prop_map(|(a, b)| Op::Link(a, b)),
        2 => range_usize(0..48).prop_map(Op::Release),
        1 => Just(Op::MinorGc),
        2 => Just(Op::MajorGc),
        3 => (range_usize(0..48), range_u64(1..6)).prop_map(|(a, l)| Op::TagAndMove(a, l)),
    ]
}

/// Random enabled plan: transient errors in both directions, sometimes a
/// latency spike, sometimes early ENOSPC. Crash points are exercised by the
/// exhaustive sweep below, not sampled here.
fn plan_strategy() -> impl Strategy<Value = FaultPlan> {
    (
        (range_u64(1..1 << 32), range_u64(0..80_000), range_u64(0..80_000)),
        (range_u64(0..24), range_u64(0..4)),
    )
        .prop_map(|((seed, read_ppm, write_ppm), (enospc, spike))| {
            let mut plan = FaultPlan::zero_rate(seed)
                .with_error_ppm(read_ppm as u32, write_ppm as u32)
                .with_retries(3, 1_000);
            if spike > 0 {
                plan = plan.with_spike(64 * spike, 16, 4);
            }
            if enospc < 8 {
                plan = plan.with_enospc_after(enospc as u32);
            }
            plan
        })
}

/// Any random fault plan against any random mutation program either runs to
/// completion with every surviving object's payload intact, or degrades
/// cleanly into the paper's no-H2 baseline — and the full-heap checker
/// holds at every GC boundary either way.
#[test]
fn random_faults_complete_or_degrade_cleanly() {
    check(
        "random_faults_complete_or_degrade_cleanly",
        &(plan_strategy(), vec_of(op_strategy(), 1..64)),
        &Config::with_cases(64),
        |(plan, ops): (FaultPlan, Vec<Op>)| {
            let mut heap = checked_heap(plan, DeviceSpec::nvme_ssd());
            let class = heap.register_class("FaultNode", 1, 1);
            let mut handles: Vec<Handle> = Vec::new();
            let mut values: Vec<Option<u64>> = Vec::new();
            for op in ops {
                match op {
                    Op::Alloc(v) => {
                        let h = heap.alloc(class).unwrap();
                        heap.write_prim(h, 0, v);
                        handles.push(h);
                        values.push(Some(v));
                    }
                    Op::Link(a, b) => {
                        if a < handles.len()
                            && b < handles.len()
                            && values[a].is_some()
                            && values[b].is_some()
                        {
                            heap.write_ref(handles[a], 0, handles[b]);
                        }
                    }
                    Op::Release(a) => {
                        if a < handles.len() && values[a].take().is_some() {
                            heap.release(handles[a]);
                        }
                    }
                    Op::MinorGc => heap.gc_minor().unwrap(),
                    Op::MajorGc => heap.gc_major().unwrap(),
                    Op::TagAndMove(a, l) => {
                        if a < handles.len() && values[a].is_some() {
                            heap.h2_tag_root(handles[a], Label::new(l));
                            heap.h2_move(Label::new(l));
                        }
                    }
                }
            }
            heap.gc_major().unwrap();

            // Explicit end-of-workload invariant pass (the per-GC checks ran
            // inside the loop via `HeapConfig::heap_check`).
            if let Err(e) = heap.heap_check() {
                return CaseResult::Fail(format!("final heap_check: {e}"));
            }

            // Transient faults must never corrupt payloads: retries and
            // degradation are performance events, not data events.
            for (i, v) in values.iter().enumerate() {
                if let Some(v) = v {
                    prop_assert_eq!(heap.read_prim(handles[i], 0), *v);
                }
            }

            // Degradation is only legal if the plan could actually starve
            // H2: injected ENOSPC or a permanently failing write.
            let h2 = heap.h2().unwrap();
            if h2.is_degraded() {
                prop_assert!(
                    plan.enospc_after_regions.is_some() || plan.write_err_ppm > 0,
                    "degraded without any H2-starving fault configured"
                );
            }
            prop_assert!(!h2.is_crashed(), "no crash point was configured");
            CaseResult::Pass
        },
    );
}

// ---------------------------------------------------------------------------
// Satellite 1b: exhaustive crash sweep at runtime level.
// ---------------------------------------------------------------------------

/// Deterministic promotion-heavy script. Returns the heap plus the
/// H1-only probes: handles that are never part of a moved closure, with
/// their expected payloads (H1 survives the crash, so these must always
/// read back intact — even after recovery).
fn crash_script(plan: FaultPlan) -> (Heap, Vec<(Handle, u64)>) {
    let mut heap = checked_heap(plan, DeviceSpec::nvme_ssd());
    let class = heap.register_class("CrashNode", 1, 2);
    let mut h1_probes: Vec<(Handle, u64)> = Vec::new();
    for wave in 0u64..3 {
        // A chain of four nodes, tagged at the head: the whole closure
        // moves to H2 at the next major GC.
        let head = heap.alloc(class).unwrap();
        heap.write_prim(head, 0, wave * 1_000);
        let mut prev = head;
        for i in 1..4u64 {
            let n = heap.alloc(class).unwrap();
            heap.write_prim(n, 0, wave * 1_000 + i);
            heap.write_ref(prev, 0, n);
            if prev != head {
                heap.release(prev);
            }
            prev = n;
        }
        heap.release(prev);
        heap.h2_tag_root(head, Label::new(wave + 1));
        heap.h2_move(Label::new(wave + 1));
        // Independent H1-side nodes, never linked to a tagged closure.
        for i in 0..6u64 {
            let n = heap.alloc(class).unwrap();
            let v = wave * 100 + i;
            heap.write_prim(n, 1, v);
            h1_probes.push((n, v));
        }
        heap.gc_minor().unwrap();
        heap.gc_major().unwrap();
        // Touch the moved chain: H2 page traffic (faults, evictions, and
        // their durable write-backs).
        let mut cur = head;
        let mut owned = Vec::new();
        while let Some(next) = heap.read_ref(cur, 0) {
            owned.push(next);
            cur = next;
        }
        for h in owned {
            heap.release(h);
        }
        heap.release(head);
    }
    heap.h2_mut().unwrap().msync(teraheap_storage::Category::Io);
    (heap, h1_probes)
}

/// Crash at **every** durable write-back boundary of the scripted run —
/// exhaustive, not sampled — then recover, re-verify the full heap, and
/// keep collecting. Data loss must be reported, never silent.
#[test]
fn crash_sweep_every_writeback_boundary_recovers() {
    // Boundary count and surviving-object ground truth from the fault-free
    // (zero-rate) pass.
    let (heap, _) = crash_script(FaultPlan::zero_rate(0xC0FFEE));
    let plane = heap.h2().unwrap().fault_plane().expect("plane armed").clone();
    let boundaries = plane.writebacks();
    assert!(
        boundaries >= 3,
        "script must produce several write-back boundaries, got {boundaries}"
    );
    let full_h2_objects = heap.heap_check().expect("fault-free check").h2_objects;
    assert!(full_h2_objects > 0, "script must promote objects to H2");
    drop(heap);

    for b in 1..=boundaries {
        let plan = FaultPlan::zero_rate(0xC0FFEE).with_crash_at_writeback(b);
        let (mut heap, h1_probes) = crash_script(plan);
        assert!(
            heap.h2().unwrap().is_crashed(),
            "boundary {b}: crash point must have fired"
        );
        // The volatile dual-heap is still structurally sound after the
        // crash (the device froze, the process did not).
        heap.heap_check().unwrap_or_else(|e| panic!("boundary {b} pre-recovery: {e}"));

        let rec = heap.recover_from_crash();
        assert!(!heap.h2().unwrap().is_crashed(), "recovery must thaw the store");
        heap.heap_check().unwrap_or_else(|e| panic!("boundary {b} post-recovery: {e}"));

        // Never silent: a nulled reference or root is only legal when the
        // recovery report shows H2 objects were actually lost.
        let lost = full_h2_objects - rec.h2_objects.min(full_h2_objects);
        if rec.h1_refs_nulled + rec.h2_refs_nulled + rec.roots_nulled > 0 {
            assert!(
                lost > 0,
                "boundary {b}: repairs without reported object loss ({rec:?})"
            );
        }

        // H1 survived the crash by construction: every probe reads back.
        for &(h, v) in &h1_probes {
            assert_eq!(heap.read_prim(h, 1), v, "boundary {b}: H1 payload lost");
        }

        // The recovered heap keeps working: fresh allocations, both
        // collectors, and the checker at each boundary.
        let class = heap.register_class("PostCrash", 1, 1);
        let root = heap.alloc_ref_array(8).unwrap();
        for i in 0..8 {
            let n = heap.alloc(class).unwrap();
            heap.write_prim(n, 0, 7_000 + i as u64);
            heap.write_ref(root, i, n);
            heap.release(n);
        }
        heap.gc_minor().unwrap();
        heap.gc_major().unwrap();
        heap.heap_check().unwrap_or_else(|e| panic!("boundary {b} post-restart: {e}"));
        for i in 0..8 {
            let n = heap.read_ref(root, i).expect("post-crash object");
            assert_eq!(heap.read_prim(n, 0), 7_000 + i as u64);
            heap.release(n);
        }
    }
}

// ---------------------------------------------------------------------------
// Satellite 1c: seeded chaos smoke per device profile (TERAHEAP_FAULTS-
// overridable; the verify script runs these as its `faults` stage).
// ---------------------------------------------------------------------------

fn chaos_smoke(spec: DeviceSpec, seed: u64) {
    let plan = FaultPlan::from_env().unwrap_or(FaultPlan::chaos(seed));
    let mut heap = checked_heap(plan, spec);
    let class = heap.register_class("ChaosNode", 1, 1);
    let root = heap.alloc_ref_array(32).unwrap();
    for i in 0..32 {
        let n = heap.alloc(class).unwrap();
        heap.write_prim(n, 0, i as u64 * 17 + 1);
        heap.write_ref(root, i, n);
        heap.release(n);
        if i % 8 == 7 {
            let h = heap.read_ref(root, i - 3).unwrap();
            heap.h2_tag_root(h, Label::new(i as u64 / 8 + 1));
            heap.h2_move(Label::new(i as u64 / 8 + 1));
            heap.release(h);
            heap.gc_major().unwrap();
        }
    }
    heap.gc_minor().unwrap();
    heap.gc_major().unwrap();
    if heap.h2().unwrap().is_crashed() {
        // An env-provided plan may include a crash point: recover, then the
        // structural checks below still must hold.
        heap.recover_from_crash();
        heap.heap_check().expect("post-recovery heap_check");
        return;
    }
    heap.heap_check().expect("chaos heap_check");
    for i in 0..32 {
        let n = heap.read_ref(root, i).expect("chaos object survived");
        assert_eq!(heap.read_prim(n, 0), i as u64 * 17 + 1, "chaos corrupted a payload");
        heap.release(n);
    }
}

#[test]
fn chaos_smoke_nvme() {
    chaos_smoke(DeviceSpec::nvme_ssd(), 0x5EED_0001);
}

#[test]
fn chaos_smoke_nvm() {
    chaos_smoke(DeviceSpec::optane_nvm(), 0x5EED_0002);
}

#[test]
fn chaos_smoke_dax() {
    chaos_smoke(DeviceSpec::dram(), 0x5EED_0003);
}

/// The degraded (no-H2) mode really is the paper's no-H2 baseline: a heap
/// degraded from the very first promotion behaves like one whose candidate
/// selection never runs — objects stay in the old generation.
#[test]
fn degraded_mode_parks_promotions_in_old_gen() {
    // ENOSPC immediately: the first region-open is denied.
    let plan = FaultPlan::zero_rate(7).with_enospc_after(0);
    let cfg = HeapConfig::builder(4 << 10, 32 << 10).build().unwrap();
    let mut heap = Heap::new(cfg);
    let h2cfg = h2_config(plan);
    let dev = SharedDevice::new(DeviceSpec::nvme_ssd(), h2cfg.footprint_bytes(), heap.clock().clone());
    heap.attach_h2(h2cfg, &dev).unwrap();
    let class = heap.register_class("Parked", 1, 1);
    let root = heap.alloc_ref_array(16).unwrap();
    for i in 0..16 {
        let n = heap.alloc(class).unwrap();
        heap.write_prim(n, 0, i as u64);
        heap.write_ref(root, i, n);
        heap.release(n);
    }
    heap.h2_tag_root(root, Label::new(1));
    heap.h2_move(Label::new(1));
    heap.gc_major().unwrap();
    assert!(heap.h2().unwrap().is_degraded(), "ENOSPC at first open must degrade");
    assert!(!heap.is_in_h2(root), "degraded promotion must park in H1");
    assert_eq!(heap.h2().unwrap().objects_promoted(), 0);
    // Parked objects stay fully usable and further GCs stay clean.
    heap.gc_major().unwrap();
    heap.heap_check().expect("degraded heap stays consistent");
    for i in 0..16 {
        let n = heap.read_ref(root, i).unwrap();
        assert_eq!(heap.read_prim(n, 0), i as u64);
        heap.release(n);
    }
}
