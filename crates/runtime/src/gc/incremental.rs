//! The major collector: one resumable step machine, two drivers
//! (DESIGN.md §11–§12).
//!
//! A major cycle is the PS four-phase mark–compact extended with TeraHeap's
//! integration (§4): marking also fences H1→H2 references and scans H2
//! cards for backward references, candidate selection tags the closures of
//! moving key-objects, pre-compaction assigns H2 addresses, adjustment
//! rewrites backward references, and compaction promotes through the 2 MB
//! buffers. The cycle (`MajorCycle`) enumerates all of this as work units
//! — root strips, H2 card chunks, gray packets, candidate-select and
//! H2-assign chains, plan, adjust and compact chunks — and `step` runs one
//! unit at a time. Two drivers run the steps:
//!
//! * **Whole pause** (`collect`): demand collections (`Heap::gc_major`,
//!   the promotion guarantee, eden still full after a minor, a large
//!   allocation) build a cycle and step it to completion inside one pause,
//!   bracketed by `GcBegin{cause}`/`GcEnd` and no `Slice*` events.
//! * **Sliced** (`maybe_start`, `run_slice`): with a finite non-zero
//!   `HeapConfig::pause_budget_ns`, a cycle starts proactively after a minor
//!   GC once the old generation's free space drops below twice the young
//!   generation, and each slice pauses the mutator, drains units until the
//!   projected pause would exceed the budget, fires one scheduler barrier
//!   and returns control to the mutator.
//!
//! Everything the two shapes do differently follows from whether the cycle
//! can yield to the mutator (`MajorCycle::yields`) or from the GC variant:
//!
//! * **Marking** is snapshot-at-the-beginning (SATB) when the cycle yields.
//!   The write barrier (`Heap::write_ref_at`) remembers overwritten H1
//!   values and `Heap::release` remembers released roots; each drain unit
//!   re-grays them. Objects allocated during marking are allocated black.
//!   H1→H2 stores fence the target region live, and H2→H2 stores record the
//!   cross-region dependency the (possibly already passed) card scan could
//!   not have seen. A whole-pause cycle has no mutator in between, so its
//!   remembered set stays empty.
//! * **Serial chains** (candidate selection, H2 address assignment) are
//!   cross-object dependency chains. Run as one unit, a chain takes the
//!   least-loaded lane; split across slices (`SELECT_CHUNK`,
//!   `ASSIGN_CHUNK`), it stays pinned to lane 0. A whole-pause cycle with
//!   H2 attached always runs its candidate-select unit, even when nothing is
//!   tagged; a sliced one skips it.
//! * **Relocation.** A whole-pause cycle runs a separate Adjust phase
//!   (H2 card re-derivation, `OBJECT_CHUNK` adjust chunks, roots,
//!   backward fix) and then a Compact phase of `OBJECT_CHUNK` compact
//!   chunks, deferring every copy whose destination overtakes its source
//!   (young sources, G1 humongous rounding) to a stash. A sliced cycle
//!   instead **flips**: one atomic step re-derives cards (then re-marks
//!   every mutator-dirtied slot), rewrites backward slots, forwards roots,
//!   adjusts the Plan-window allocations and clears H1 cards. From there the
//!   mutator holds *logical* (post-compaction) addresses and accessors
//!   translate through the destination index while fused adjust+copy
//!   chunks (`RELOC_CHUNK`) move objects. PS destinations never overtake
//!   old sources, so no stash is needed.
//! * **Retirement.** A whole-pause cycle resets eden and flushes the
//!   promotion buffer once; a sliced one flushes what each slice staged and
//!   leaves eden in place (late allocations live above the flip point),
//!   nulling the reference slots of the dead relocated prefix instead
//!   ("deadwood").
//! * **Variant.** G1 charges marking at a 250‰ concurrent discount, plans
//!   with humongous footprints and per-region live words, and charges
//!   adjust and compact at its mixed-collection fraction. Under PS these are
//!   1000‰ and the plain size, so the sliced path (PS only) runs the same
//!   code.
//!
//! Minor GCs never run mid-cycle: any demand collection first
//! **force-finishes** an in-flight sliced cycle by running one unbounded
//! slice. The proactive trigger keeps `old.free >= young` after every minor
//! while no cycle is active, so the promotion guarantee cannot demand a
//! whole-pause major between slices.
//!
//! Coverage auditing (the heap checker's exactly-once claim audit) runs on
//! whole-pause cycles only: SATB re-graying means a sliced gray packet may
//! legitimately re-claim an already-visited object. The equivalence tests
//! pin sliced soundness instead (no live object freed; final logical heap
//! equals the whole-pause one).

use super::major::{self, ForwardTable};
use super::schedule::{
    Scheduler, DOM_H2_CARD, DOM_OBJECT, GRAY_PACKET, H2_CARD_CHUNK, OBJECT_CHUNK, ROOT_STRIP,
};
use super::Work;
use crate::config::{GcVariant, OomError};
use crate::heap::Heap;
use crate::object;
use std::collections::HashMap;
use teraheap_core::{Addr, CardState, Label};
use teraheap_storage::obs::{CardTableKind, EventKind, GcCause, GcKind, GcPhase, WorkUnitKind};
use teraheap_storage::Category;

/// Mutator nanoseconds between slices = `pause_budget_ns / PACE_DIVISOR`.
/// At 8, a cycle of total GC work `W` completes after about `W / 8` mutator
/// ns — well inside one eden refill window at the default budget — so the
/// force-finish path (which would blow the pause target) stays a safety net.
pub(crate) const PACE_DIVISOR: u64 = 8;

/// Relocation chunk: smaller than the whole-pause [`OBJECT_CHUNK`] because a
/// fused adjust+copy unit is the costliest unit kind and a single unit must
/// fit comfortably inside the default pause budget.
const RELOC_CHUNK: usize = 64;

/// Candidate-selection chunk (tagged objects per unit) of a sliced cycle:
/// the closure walk is a serial chain, resumed across slices on lane 0, and
/// one chunk must fit well inside the default pause budget.
const SELECT_CHUNK: usize = 64;

/// H2 address-assignment chunk of a sliced cycle: the region bump
/// allocation is a serial cross-object dependency chain, resumed in order
/// on lane 0.
const ASSIGN_CHUNK: usize = 64;

/// Which engine phase the cycle is in between steps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum IncrPhase {
    MarkRoots,
    MarkCards,
    MarkDrain,
    /// Chunked candidate selection between mark termination and planning.
    Select,
    Plan,
    /// Whole-pause adjust chunks (a sliced cycle flips straight through).
    Adjust,
    Relocate,
}

/// All state a major cycle carries across steps (and, when it yields,
/// across slices).
pub(crate) struct MajorCycle {
    sched: Scheduler,
    /// The cycle can yield to the mutator between slices: a finite budget
    /// and a proactive start. Whole-pause cycles run to completion.
    yields: bool,
    phase: IncrPhase,
    cur_gc_phase: GcPhase,
    h2_words_before: u64,
    /// Sum of slice durations so far (becomes `stats.major_ns`).
    gc_ns: u64,
    /// Clock ns at the start of the current phase segment (slice-local).
    seg_start_ns: u64,
    /// Clock ns when the last slice ended; paces the next slice.
    pub(crate) last_slice_end_ns: u64,
    // ---- marking ----------------------------------------------------------
    /// Root-table length snapshot at cycle start; roots created later hold
    /// values already covered by SATB and need no strip.
    roots_len: usize,
    roots_cursor: usize,
    cards: Vec<usize>,
    cards_cursor: usize,
    cards_snapped: bool,
    /// The region start index the card scan has taken out of
    /// `Heap::h2_starts` (consecutive cards usually share a region). Put
    /// back when the card scan ends and at every slice end.
    card_region: Option<(u32, Vec<u64>)>,
    stack: Vec<Addr>,
    live: Vec<u64>,
    live_words: u64,
    /// SATB remembered set: H1 addresses overwritten or released between
    /// slices, re-grayed at the next drain unit.
    pub(crate) remembered: Vec<u64>,
    backward_slots: Vec<Addr>,
    /// H2 slots that received an H1 value from the mutator mid-cycle; the
    /// flip's backward fix covers them in addition to the scanned set.
    pub(crate) extra_backward: Vec<Addr>,
    /// Every H2 slot the mutator ref-wrote pre-flip: re-marked dirty after
    /// the flip re-derives scanned card states, so mutation between slices
    /// cannot be erased by the re-derivation.
    pub(crate) mutator_h2_dirty: Vec<Addr>,
    /// `(card, had a backward reference)` for every scanned H2 card.
    scanned_cards: Vec<(usize, bool)>,
    slot_buf: Vec<u64>,
    // ---- plan -------------------------------------------------------------
    old_base: u64,
    old_live: Vec<u64>,
    young_live: Vec<u64>,
    move_order: Vec<u64>,
    /// Resumable candidate-selection state (`None` once selection drained).
    sel: Option<SelState>,
    /// `h2_move` requests visible when selection began: the only ones this
    /// cycle may clear at retirement (later hints target the next GC).
    req_snapshot: Vec<Label>,
    /// Cursor into `move_order` for the H2 address assignment.
    assign_idx: usize,
    plan_idx: usize,
    forwarding: ForwardTable,
    new_top: u64,
    new_old_starts: Vec<u64>,
    /// Per-G1-region live words in the old generation, for the
    /// mixed-collection cost model (empty under other variants).
    g1_region_live: HashMap<u64, u64>,
    /// The scaling of adjust and compact charges: G1's mixed-collection
    /// moved-live fraction in thousandths, 1000 otherwise.
    relocate_milli: u64,
    /// Eden top at mark termination: everything below relocates, everything
    /// at or above stays (allocated during Plan/Relocate).
    flip_top: u64,
    /// Objects allocated during Plan (in eden, >= flip_top): their slots may
    /// hold pre-compaction addresses and are adjusted at the flip.
    pub(crate) plan_late: Vec<u64>,
    // ---- adjust / relocate ------------------------------------------------
    adjust_idx: usize,
    /// `(dest, src)` sorted by dest — the logical→physical index mutator
    /// accessors search while objects move (sliced cycles only).
    dest_index: Vec<(u64, u64)>,
    reloc_idx: usize,
    /// Deferred copies of a whole-pause compaction: one growable arena of
    /// object words plus `(dest, offset, len)` per stashed object.
    stash_words: Vec<u64>,
    stash_meta: Vec<(u64, usize, usize)>,
    promoted_regions: Vec<u32>,
    /// Words staged in the promotion buffer since the last flush; bounds the
    /// end-of-slice flush cost in the pause projection.
    staged_words: u64,
    done: bool,
    /// The planning overflow that aborted the cycle, if any.
    oom: Option<OomError>,
}

/// Resumable candidate-selection state: the group loop, unrolled so a
/// sliced cycle can yield between [`SELECT_CHUNK`]-object units. All policy
/// decisions are snapshotted at mark termination.
struct SelState {
    /// `(label, root, requested)`, oldest label first.
    groups: Vec<(u64, u64, bool)>,
    gi: usize,
    /// In-progress closure traversal of the current group.
    stack: Vec<Addr>,
    cur_label: u64,
    /// The current group draws down the pressure budget (not requested).
    cur_counts: bool,
    cur_words: u64,
    in_group: bool,
    pressure: bool,
    hints: bool,
    newest_label: u64,
    pressure_budget: Option<u64>,
    moved_words: u64,
    /// `live_words` frozen at selection start.
    live_words: u64,
    deferred: Vec<(u64, u64)>,
    deferred_mode: bool,
}

impl std::fmt::Debug for MajorCycle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MajorCycle")
            .field("yields", &self.yields)
            .field("phase", &self.phase)
            .field("live", &self.live.len())
            .field("reloc_idx", &self.reloc_idx)
            .finish_non_exhaustive()
    }
}

impl MajorCycle {
    /// Opens a cycle: emits `GcBegin{cause}` and `PhaseBegin{Mark}`, resets
    /// the H2 region live bits and arms the marking-phase scaling.
    fn begin(heap: &mut Heap, cause: GcCause, yields: bool) -> Box<MajorCycle> {
        let h2_words_before = heap.h2.as_ref().map(|h| h.words_promoted()).unwrap_or(0);
        heap.clock.emit(EventKind::GcBegin {
            gc: GcKind::Major,
            cause,
            old_used_words: heap.old.used_words() as u64,
        });
        heap.clock.emit(EventKind::PhaseBegin { phase: GcPhase::Mark });
        if let Some(h2) = heap.h2.as_mut() {
            h2.begin_major_marking();
        }
        let audit = heap.check_enabled && !yields;
        let mut sched = Scheduler::new(heap.config.gc_threads, heap.config.cost.gc_barrier_sync_ns, audit);
        // G1 marks concurrently with the mutator; only a quarter of the
        // traced CPU shows up as pause/GC time. Applied per lane at the
        // barrier.
        sched.set_milli(match heap.config.variant {
            GcVariant::G1 { .. } => 250,
            _ => 1000,
        });
        Box::new(MajorCycle {
            sched,
            yields,
            phase: IncrPhase::MarkRoots,
            cur_gc_phase: GcPhase::Mark,
            h2_words_before,
            gc_ns: 0,
            seg_start_ns: heap.clock.total_ns(),
            last_slice_end_ns: heap.clock.total_ns(),
            roots_len: heap.roots.len(),
            roots_cursor: 0,
            cards: Vec::new(),
            cards_cursor: 0,
            cards_snapped: false,
            card_region: None,
            stack: Vec::new(),
            live: Vec::new(),
            live_words: 0,
            remembered: Vec::new(),
            backward_slots: Vec::new(),
            extra_backward: Vec::new(),
            mutator_h2_dirty: Vec::new(),
            scanned_cards: Vec::new(),
            slot_buf: Vec::new(),
            old_base: heap.old.base().raw(),
            old_live: Vec::new(),
            young_live: Vec::new(),
            move_order: Vec::new(),
            sel: None,
            req_snapshot: Vec::new(),
            assign_idx: 0,
            plan_idx: 0,
            forwarding: ForwardTable::recycled(Vec::new(), 0, 0),
            new_top: 0,
            new_old_starts: Vec::new(),
            g1_region_live: HashMap::new(),
            relocate_milli: 1000,
            flip_top: 0,
            plan_late: Vec::new(),
            adjust_idx: 0,
            dest_index: Vec::new(),
            reloc_idx: 0,
            stash_words: Vec::new(),
            stash_meta: Vec::new(),
            promoted_regions: Vec::new(),
            staged_words: 0,
            done: false,
            oom: None,
        })
    }

    /// Whether marking is still running (SATB barrier armed).
    pub(crate) fn marking(&self) -> bool {
        matches!(self.phase, IncrPhase::MarkRoots | IncrPhase::MarkCards | IncrPhase::MarkDrain)
    }

    /// Whether the flip has not happened yet (mutator addresses are still
    /// physical; H2 card re-derivation is still pending).
    pub(crate) fn pre_flip(&self) -> bool {
        !matches!(self.phase, IncrPhase::Relocate)
    }

    /// Whether chunked candidate selection is running (allocations must
    /// still join the live enumeration, but SATB no longer remembers).
    fn selecting(&self) -> bool {
        matches!(self.phase, IncrPhase::Select)
    }

    /// Whether the Plan phase is recording late allocations.
    pub(crate) fn planning(&self) -> bool {
        matches!(self.phase, IncrPhase::Plan)
    }

    /// Between Plan slices, for the heap checker: whether the H1 object at
    /// `a` is garbage awaiting relocation. The dead-region sweep has run,
    /// so its stale references may name swept H2 regions.
    pub(crate) fn planned_garbage(&self, a: u64) -> bool {
        self.planning()
            && self.old_live.binary_search(&a).is_err()
            && self.young_live.binary_search(&a).is_err()
            && self.plan_late.binary_search(&a).is_err()
    }

    /// Between Plan slices, for the heap checker: the H2 words each region
    /// has reserved for candidates assigned but not yet copied.
    pub(crate) fn reserved_h2_words(&self, heap: &Heap) -> HashMap<u32, usize> {
        let mut reserved = HashMap::new();
        let Some(h2) = heap.h2.as_ref().filter(|_| self.planning()) else { return reserved };
        for &src in &self.move_order[..self.assign_idx] {
            if let Some(dest) = self.forwarding.get(src).map(Addr::new).filter(|d| d.is_h2()) {
                let words = object::size_of(heap.mem[src as usize]);
                *reserved.entry(h2.regions().region_of(dest).0).or_insert(0) += words;
            }
        }
        reserved
    }

    /// Live objects in the frozen enumeration.
    fn live_count(&self) -> usize {
        self.old_live.len() + self.young_live.len()
    }

    /// The object's enumeration rank in the relocation order (old-then-young,
    /// each address-sorted). Objects with rank `< reloc_idx` have moved.
    fn enum_rank(&self, src: u64) -> usize {
        if src >= self.old_base {
            self.old_live.partition_point(|&s| s < src)
        } else {
            self.old_live.len() + self.young_live.partition_point(|&s| s < src)
        }
    }

    fn enum_at(&self, idx: usize) -> u64 {
        if idx < self.old_live.len() {
            self.old_live[idx]
        } else {
            self.young_live[idx - self.old_live.len()]
        }
    }

    /// Declares every live object part of the next phase's coverage domain:
    /// each is planned, adjusted and compacted by exactly one unit. (No-op
    /// unless the scheduler audits.)
    fn expect_objects(&mut self) {
        for &src in self.old_live.iter().chain(self.young_live.iter()) {
            self.sched.expect(DOM_OBJECT | src);
        }
    }

    /// Dispatches a unit of a serial dependency chain: the least-loaded
    /// lane when the chain runs as one unit, lane 0 when it is split across
    /// slices (it is never credited with parallelism its order forbids).
    fn begin_chain_unit(&mut self, heap: &Heap, kind: WorkUnitKind) -> usize {
        if self.yields {
            self.sched.begin_serial_unit(&heap.clock, kind)
        } else {
            self.sched.begin_unit(&heap.clock, kind)
        }
    }

    /// Puts the card scan's region start index back into `Heap::h2_starts`.
    fn put_back_card_region(&mut self, heap: &mut Heap) {
        if let Some((r, v)) = self.card_region.take() {
            heap.h2_starts.insert(r, v);
        }
    }

    /// Resolves a mutator-held (logical) object address to `(physical,
    /// raw_slots)`. `raw_slots` is true when the object has not been
    /// relocated yet, so its reference slots still hold pre-adjustment
    /// (physical) values: reads must canonicalize through the forwarding
    /// table and writes must de-canonicalize through the destination index.
    pub(crate) fn view(&self, a: Addr) -> (Addr, bool) {
        if self.pre_flip() {
            return (a, false);
        }
        match self.dest_index.binary_search_by_key(&a.raw(), |&(d, _)| d) {
            Ok(i) => {
                let src = self.dest_index[i].1;
                if self.enum_rank(src) < self.reloc_idx {
                    (a, false)
                } else {
                    (Addr::new(src), true)
                }
            }
            Err(_) => (a, false),
        }
    }

    /// Raw slot value → logical address (reads from un-moved objects).
    pub(crate) fn canon(&self, v: u64) -> u64 {
        self.forwarding.get(v).unwrap_or(v)
    }

    /// Logical address → raw slot value (writes into un-moved objects,
    /// whose slots must keep holding physical values until the fused adjust
    /// rewrites them).
    pub(crate) fn decanon(&self, v: u64) -> u64 {
        match self.dest_index.binary_search_by_key(&v, |&(d, _)| d) {
            Ok(i) => self.dest_index[i].1,
            Err(_) => v,
        }
    }

    /// Allocation hook: allocate-black during marking (fields are null at
    /// birth; SATB covers later stores), record Plan-window allocations for
    /// the flip's slot adjustment. `live_words` undercounts nothing here —
    /// black allocations are counted so the pressure heuristic sees them.
    pub(crate) fn note_alloc(&mut self, addr: Addr, words: usize, mem: &mut [u64]) {
        if self.marking() || self.selecting() {
            let i = addr.raw() as usize;
            mem[i] = object::with_mark(mem[i]);
            self.live.push(addr.raw());
            self.live_words += words as u64;
        } else if self.planning() {
            self.plan_late.push(addr.raw());
        }
    }

    /// The cost of flushing the currently staged promotion-buffer bytes —
    /// added to the pause projection so the end-of-slice flush cannot push a
    /// slice past its budget.
    fn flush_estimate_ns(&self, heap: &Heap) -> u64 {
        if self.staged_words == 0 {
            return 0;
        }
        match heap.h2.as_ref() {
            Some(h2) => h2.device_spec().write_cost_ns(self.staged_words as usize * 8),
            None => 0,
        }
    }
}

/// Runs a whole major collection in one pause: builds a cycle that cannot
/// yield and steps it to completion.
///
/// # Errors
///
/// Returns [`OomError`] when live data does not fit the old generation.
/// The heap must not be used further after an error.
pub(crate) fn collect(heap: &mut Heap, cause: GcCause) -> Result<(), OomError> {
    debug_assert!(!heap.in_gc, "re-entrant GC");
    heap.in_gc = true;
    let start_ns = heap.clock.total_ns();
    let mut cyc = MajorCycle::begin(heap, cause, false);
    while !cyc.done {
        step(heap, &mut cyc);
        if let Some(e) = cyc.oom.take() {
            heap.in_gc = false;
            return Err(e);
        }
    }
    // One flush for the whole pause, including anything pretenuring staged
    // since the last collection.
    if let Some(h2) = heap.h2.as_mut() {
        h2.finish_promotion(Category::MajorGc);
    }
    settle(heap, &mut cyc, "major:compact");
    cyc.gc_ns = heap.clock.total_ns() - start_ns;
    retire(heap, &cyc);
    heap.in_gc = false;
    heap.maybe_heap_check("after major GC");
    Ok(())
}

/// Starts a sliced cycle after a minor GC if the incremental mode is armed
/// and old free space has dropped below twice the young generation. The
/// margin guarantees a `PromotionGuarantee` whole-pause major can never fire
/// while a cycle is active: with no cycle running free >= 2·young, and one
/// minor promotes at most `young` words.
pub(crate) fn maybe_start(heap: &mut Heap) {
    let budget = heap.config.pause_budget_ns;
    if budget == 0 || budget == u64::MAX || heap.incr.is_some() || heap.pending_oom.is_some() {
        return;
    }
    if heap.old.free_words() >= 2 * heap.config.young_words {
        return;
    }
    debug_assert!(!heap.in_gc);
    heap.incr = Some(MajorCycle::begin(heap, GcCause::Incremental, true));
    run_slice(heap, heap.config.pause_budget_ns);
}

/// Runs the in-flight sliced cycle to completion in one unbounded slice
/// (demand collections and large allocations cannot proceed mid-cycle),
/// then surfaces any OOM the cycle hit.
///
/// # Errors
///
/// Returns the pending [`OomError`] if the cycle (now or earlier) aborted at
/// a planning overflow.
pub(crate) fn force_finish(heap: &mut Heap) -> Result<(), OomError> {
    if heap.incr.is_some() {
        run_slice(heap, u64::MAX);
        debug_assert!(heap.incr.is_none(), "unbounded slice did not retire the cycle");
    }
    match heap.pending_oom.take() {
        Some(e) => Err(e),
        None => Ok(()),
    }
}

/// Runs one pause slice: drains work units while the projected pause —
/// elapsed + unsettled lane charges + the costliest unit seen this slice +
/// the pending promotion flush — stays within `budget_ns`, then flushes,
/// fires the slice barrier and returns control to the mutator.
pub(crate) fn run_slice(heap: &mut Heap, budget_ns: u64) {
    let Some(mut cyc) = heap.incr.take() else { return };
    debug_assert!(!heap.in_gc, "GC slice inside a collection");
    heap.in_gc = true;
    let clock = heap.clock.clone();
    let slice_start = heap.clock.total_ns();
    clock.emit(EventKind::SliceBegin { phase: cyc.cur_gc_phase });
    cyc.seg_start_ns = slice_start;
    // Aim slightly inside the budget: a phase-transition step can chain a
    // second unit and the flush estimate is a lower bound, so slices stop at
    // 7/8 of the budget to keep the overshoot tail within it.
    let target_ns = budget_ns - budget_ns / 8;
    let mut units: u64 = 0;
    let mut max_unit_ns: u64 = 0;
    while !cyc.done && cyc.oom.is_none() {
        if units > 0 {
            let elapsed = heap.clock.total_ns() - slice_start;
            let projected = elapsed
                .saturating_add(cyc.sched.pending_ns())
                .saturating_add(max_unit_ns)
                .saturating_add(cyc.flush_estimate_ns(heap));
            if projected > target_ns {
                break;
            }
        }
        let before = heap.clock.total_ns() + cyc.sched.pending_ns();
        step(heap, &mut cyc);
        units += 1;
        let after = heap.clock.total_ns() + cyc.sched.pending_ns();
        max_unit_ns = max_unit_ns.max(after.saturating_sub(before));
    }
    // The mutator may pretenure into any region between slices.
    cyc.put_back_card_region(heap);
    if cyc.oom.is_none() {
        if cyc.staged_words > 0 {
            heap.h2.as_mut().unwrap().finish_promotion(Category::MajorGc);
            cyc.staged_words = 0;
        }
        settle(heap, &mut cyc, "major:slice");
    }
    cyc.gc_ns += heap.clock.total_ns() - slice_start;
    heap.stats.incr_slices += 1;
    if cyc.done {
        retire(heap, &cyc);
    }
    clock.emit(EventKind::SliceEnd { phase: cyc.cur_gc_phase, units });
    heap.in_gc = false;
    if let Some(e) = cyc.oom.take() {
        heap.pending_oom = Some(e);
    } else if !cyc.done {
        cyc.last_slice_end_ns = heap.clock.total_ns();
        heap.incr = Some(cyc);
    }
    heap.maybe_heap_check("after incremental slice");
}

/// Executes one work unit (or a zero-cost phase transition followed by its
/// first unit) of the cycle.
fn step(heap: &mut Heap, cyc: &mut MajorCycle) {
    match cyc.phase {
        IncrPhase::MarkRoots => step_mark_roots(heap, cyc),
        IncrPhase::MarkCards => step_mark_cards(heap, cyc),
        IncrPhase::MarkDrain => step_mark_drain(heap, cyc),
        IncrPhase::Select => step_select(heap, cyc),
        IncrPhase::Plan => step_plan(heap, cyc),
        IncrPhase::Adjust => step_adjust(heap, cyc),
        IncrPhase::Relocate => step_relocate(heap, cyc),
    }
}

/// Fires the scheduler barrier (pending lane charges land in the current
/// phase) and settles the phase segment's ns.
fn settle(heap: &mut Heap, cyc: &mut MajorCycle, name: &'static str) {
    heap.stats.lane_stall_ns += cyc.sched.barrier(&heap.clock, Category::MajorGc, name);
    let now = heap.clock.total_ns();
    add_phase_ns(heap, cyc.cur_gc_phase, now - cyc.seg_start_ns);
    cyc.seg_start_ns = now;
}

/// Ends the current phase at a barrier and opens `next` with charges
/// scaled by `milli`.
fn roll_to(heap: &mut Heap, cyc: &mut MajorCycle, name: &'static str, next: GcPhase, milli: u64) {
    settle(heap, cyc, name);
    heap.clock.emit(EventKind::PhaseEnd { phase: cyc.cur_gc_phase });
    heap.clock.emit(EventKind::PhaseBegin { phase: next });
    cyc.cur_gc_phase = next;
    cyc.sched.set_milli(milli);
}

/// Closes the cycle's books: `PhaseEnd{Compact}`, the major count and time,
/// and `GcEnd`.
fn retire(heap: &mut Heap, cyc: &MajorCycle) {
    heap.clock.emit(EventKind::PhaseEnd { phase: GcPhase::Compact });
    heap.stats.major_count += 1;
    heap.stats.major_ns += cyc.gc_ns;
    let h2_words_after = heap.h2.as_ref().map(|h| h.words_promoted()).unwrap_or(0);
    heap.clock.emit(EventKind::GcEnd {
        gc: GcKind::Major,
        old_used_words: heap.old.used_words() as u64,
        old_capacity_words: heap.old.capacity_words() as u64,
        promoted_h2_words: h2_words_after - cyc.h2_words_before,
    });
}

fn add_phase_ns(heap: &mut Heap, phase: GcPhase, ns: u64) {
    match phase {
        GcPhase::Mark => heap.stats.phases.marking_ns += ns,
        GcPhase::Precompact => heap.stats.phases.precompact_ns += ns,
        GcPhase::Adjust => heap.stats.phases.adjust_ns += ns,
        GcPhase::Compact => heap.stats.phases.compact_ns += ns,
    }
}

fn step_mark_roots(heap: &mut Heap, cyc: &mut MajorCycle) {
    if cyc.roots_cursor >= cyc.roots_len {
        cyc.phase = IncrPhase::MarkCards;
        return step_mark_cards(heap, cyc);
    }
    let clock = heap.clock.clone();
    let lane = cyc.sched.begin_unit(&clock, WorkUnitKind::RootStrip);
    let mut uw = Work::default();
    let end = (cyc.roots_cursor + ROOT_STRIP).min(cyc.roots_len);
    for i in cyc.roots_cursor..end {
        let a = heap.roots[i];
        if a.is_h1() {
            major::mark_push(heap, a, &mut cyc.stack, &mut cyc.live, &mut uw);
        } else if a.is_h2() {
            // A handle (thread-stack root) referencing H2 directly keeps the
            // region alive, exactly like an H1→H2 forward reference.
            heap.h2.as_mut().expect("H2 root without H2").note_forward_ref(a);
        }
    }
    cyc.roots_cursor = end;
    let cost = uw.cpu_ns(&heap.config.cost);
    cyc.sched.end_unit(&clock, lane, WorkUnitKind::RootStrip, cost, uw.extra_ns);
    if cyc.roots_cursor >= cyc.roots_len {
        cyc.phase = IncrPhase::MarkCards;
    }
}

/// One [`H2_CARD_CHUNK`] of the H2 card scan: every non-clean card is
/// scanned for backward references, whose H1 targets are roots (they must
/// stay live) and whose slots are collected for the backward fix.
fn step_mark_cards(heap: &mut Heap, cyc: &mut MajorCycle) {
    if !cyc.cards_snapped {
        cyc.cards_snapped = true;
        if let Some(h2) = heap.h2.as_mut() {
            cyc.cards = h2.cards_mut().major_scan_cards();
            heap.clock.emit(EventKind::CardScan {
                table: CardTableKind::H2Major,
                cards: cyc.cards.len() as u64,
            });
            for &card in &cyc.cards {
                cyc.sched.expect(DOM_H2_CARD | card as u64);
            }
        }
    }
    if cyc.cards_cursor >= cyc.cards.len() {
        cyc.phase = IncrPhase::MarkDrain;
        return step_mark_drain(heap, cyc);
    }
    let clock = heap.clock.clone();
    let lane = cyc.sched.begin_unit(&clock, WorkUnitKind::H2CardChunk);
    let mut uw = Work::default();
    let seg_words = heap.h2.as_ref().unwrap().cards().seg_words() as u64;
    let region_words = heap.h2.as_ref().unwrap().regions().region_words() as u64;
    let end = (cyc.cards_cursor + H2_CARD_CHUNK).min(cyc.cards.len());
    for ci in cyc.cards_cursor..end {
        let card = cyc.cards[ci];
        cyc.sched.claim(DOM_H2_CARD | card as u64);
        uw.cards += 1;
        let base = heap.h2.as_ref().unwrap().cards().card_base(card);
        let region = (base.h2_offset() / region_words) as u32;
        let lo = base.raw();
        let hi = lo + seg_words;
        // Take the region's start index out of the map instead of cloning
        // it per card.
        if cyc.card_region.as_ref().map(|&(r, _)| r) != Some(region) {
            cyc.put_back_card_region(heap);
            cyc.card_region = heap.h2_starts.remove(&region).map(|v| (region, v));
        }
        let Some((_, starts)) = &cyc.card_region else {
            cyc.scanned_cards.push((card, false));
            continue;
        };
        let mut has_backward = false;
        let mut i = starts.partition_point(|&s| s <= lo).saturating_sub(1);
        while i < starts.len() && starts[i] < hi {
            let obj = Addr::new(starts[i]);
            i += 1;
            let header = heap.h2.as_mut().unwrap().read_word(obj, Category::MajorGc);
            let size = object::size_of(header) as u64;
            uw.objects += 1;
            if obj.raw() + size <= lo {
                continue;
            }
            // The slot walk never writes the mapping (mark_push touches H1
            // memory only), so each object's slot range is one bulk read.
            // The clamped range can be empty (inverted) for objects whose
            // ref slots all fall outside the card.
            let (first_slot, end_slot) = heap.ref_slot_range_in(obj, lo, hi);
            cyc.slot_buf.resize(end_slot.saturating_sub(first_slot) as usize, 0);
            heap.h2.as_mut().unwrap().read_words(
                Addr::new(first_slot),
                &mut cyc.slot_buf,
                Category::MajorGc,
            );
            for (j, &val) in cyc.slot_buf.iter().enumerate() {
                uw.refs += 1;
                if val == 0 {
                    continue;
                }
                if Addr::new(val).is_h2() {
                    // A mutator update created an H2→H2 reference after the
                    // move: record the cross-region dependency the
                    // allocator could not have seen.
                    let h2 = heap.h2.as_mut().unwrap();
                    let from = h2.regions().region_of(obj);
                    let to = h2.regions().region_of(Addr::new(val));
                    if from != to {
                        h2.regions_mut().add_dependency(from, to);
                    }
                    continue;
                }
                has_backward = true;
                heap.stats.backward_refs_seen += 1;
                cyc.backward_slots.push(Addr::new(first_slot + j as u64));
                major::mark_push(heap, Addr::new(val), &mut cyc.stack, &mut cyc.live, &mut uw);
            }
        }
        cyc.scanned_cards.push((card, has_backward));
    }
    cyc.cards_cursor = end;
    let cost = uw.cpu_ns(&heap.config.cost);
    cyc.sched.end_unit(&clock, lane, WorkUnitKind::H2CardChunk, cost, uw.extra_ns);
    if cyc.cards_cursor >= cyc.cards.len() {
        cyc.put_back_card_region(heap);
        cyc.phase = IncrPhase::MarkDrain;
    }
}

fn step_mark_drain(heap: &mut Heap, cyc: &mut MajorCycle) {
    if cyc.stack.is_empty() && cyc.remembered.is_empty() {
        return mark_terminate(heap, cyc);
    }
    let clock = heap.clock.clone();
    let lane = cyc.sched.begin_unit(&clock, WorkUnitKind::GrayPacket);
    let mut uw = Work::default();
    // Re-gray what the SATB barrier remembered since the last unit.
    while let Some(a) = cyc.remembered.pop() {
        major::mark_push(heap, Addr::new(a), &mut cyc.stack, &mut cyc.live, &mut uw);
    }
    for _ in 0..GRAY_PACKET {
        let Some(obj) = cyc.stack.pop() else { break };
        cyc.live_words += heap.object_size(obj) as u64;
        let (first_slot, end_slot) = heap.ref_slot_range(obj);
        for s in first_slot..end_slot {
            uw.refs += 1;
            let val = heap.mem[s as usize];
            if val == 0 {
                continue;
            }
            let target = Addr::new(val);
            if target.is_h2() {
                // Fence: set the region live bit instead of following (§4).
                heap.h2.as_mut().expect("H2 ref without H2").note_forward_ref(target);
                heap.stats.forward_refs_fenced += 1;
                continue;
            }
            major::mark_push(heap, target, &mut cyc.stack, &mut cyc.live, &mut uw);
        }
    }
    let cost = uw.cpu_ns(&heap.config.cost);
    cyc.sched.end_unit(&clock, lane, WorkUnitKind::GrayPacket, cost, uw.extra_ns);
}

/// Mark termination: the marking closure is complete (gray stack and
/// remembered set both empty with no mutator in between), so selection can
/// begin. Selection itself is chunked — [`step_select`] resumes the group
/// loop — and [`finish_select`] runs the sweep, the mark barrier, and the
/// live-set freeze once it drains.
fn mark_terminate(heap: &mut Heap, cyc: &mut MajorCycle) {
    cyc.phase = IncrPhase::Select;
    // Snapshot the hint requests this cycle will consider: a request landing
    // after this point applies to a later GC, so retirement must not clear
    // it. Extending the cycle's snapshot Vec keeps this allocation-free once
    // its capacity warms up.
    cyc.req_snapshot.clear();
    if let Some(h) = heap.h2.as_ref() {
        cyc.req_snapshot.extend(h.policy().requested_labels());
    }
    // A sliced cycle skips an empty selection; a whole-pause one with H2
    // attached always runs its (possibly empty) select unit.
    cyc.sel = begin_select(heap, cyc.live_words, &cyc.live)
        .filter(|s| !cyc.yields || !s.groups.is_empty());
    step_select(heap, cyc)
}

/// Snapshots the policy decisions of the candidate-selection group loop:
/// tagged groups oldest label first, the pressure flag, the deferred newest
/// group, the pressure budget, and each group's requested bit. Returns
/// `None` without H2.
fn begin_select(heap: &Heap, live_words: u64, live: &[u64]) -> Option<SelState> {
    let h2 = heap.h2.as_ref()?;
    // Degraded H2 (injected ENOSPC or a write-retry budget exhausted):
    // promotions park in the old generation — the paper's no-H2 baseline —
    // until the device recovers.
    let mut tagged: Vec<(u64, u64)> = if h2.is_degraded() {
        Vec::new()
    } else {
        live.iter()
            .filter(|&&a| heap.mem[a as usize + 1] != 0)
            .map(|&a| (heap.mem[a as usize + 1], a))
            .collect()
    };
    // Oldest labels first, so the low threshold moves the oldest (most
    // likely immutable) groups and leaves recently tagged ones in H1.
    tagged.sort_unstable();
    let policy = h2.policy();
    // Besides the end-of-previous-GC pressure flag (§3.2), the pressure
    // path also arms when the live data *measured by this marking* already
    // exceeds the high threshold — the same occupancy test the paper
    // applies at GC end, evaluated one GC earlier so the move cannot arrive
    // after the heap has overflowed.
    let live_pressure = live_words as f64 > policy.high() * heap.old.capacity_words() as f64;
    let pressure = policy.under_pressure() || live_pressure;
    let newest_label = tagged.last().map(|&(l, _)| l).unwrap_or(0);
    let pressure_budget = if pressure {
        policy.pressure_budget_words(live_words, heap.old.capacity_words() as u64)
    } else {
        None
    };
    let groups = tagged
        .into_iter()
        .map(|(l, r)| (l, r, policy.is_requested(Label::new(l))))
        .collect();
    Some(SelState {
        groups,
        gi: 0,
        stack: Vec::new(),
        cur_label: 0,
        cur_counts: false,
        cur_words: 0,
        in_group: false,
        pressure,
        hints: policy.hints_enabled(),
        newest_label,
        pressure_budget,
        moved_words: 0,
        live_words,
        deferred: Vec::new(),
        deferred_mode: false,
    })
}

/// One `CandidateSelect` unit (marking-phase task 4): finds live tagged
/// root key-objects, decides which labels move (hint or pressure, §3.2) and
/// tags their transitive closures as candidates, honouring the
/// low-threshold budget. The discovery order doubles as the H2 placement
/// order, keeping each closure contiguous in its label's regions. A sliced
/// unit stops after [`SELECT_CHUNK`] tagged objects; mutator writes between
/// chunks can only unlink marked objects (they move anyway — floating
/// garbage) or link unmarked late allocations (clamped out by the mark
/// check in [`major::tag_closure_step`]).
fn step_select(heap: &mut Heap, cyc: &mut MajorCycle) {
    let Some(mut sel) = cyc.sel.take() else {
        return finish_select(heap, cyc);
    };
    let clock = heap.clock.clone();
    let lane = cyc.begin_chain_unit(heap, WorkUnitKind::CandidateSelect);
    let mut uw = Work::default();
    let mut budget = if cyc.yields { SELECT_CHUNK } else { usize::MAX };
    let mut exhausted = false;
    while budget > 0 {
        if sel.stack.is_empty() {
            if sel.in_group {
                sel.in_group = false;
                sel.moved_words += sel.cur_words;
                if sel.cur_counts {
                    if let Some(b) = &mut sel.pressure_budget {
                        *b = b.saturating_sub(sel.cur_words);
                    }
                }
                sel.cur_words = 0;
            }
            // Group gating: an uncharged policy scan.
            let started = loop {
                if sel.gi >= sel.groups.len() {
                    if !sel.deferred_mode {
                        // Take the deferred (mutable) group only when
                        // survival demands it, against the live words
                        // frozen at selection start.
                        sel.deferred_mode = true;
                        sel.gi = 0;
                        let remaining = sel.live_words.saturating_sub(sel.moved_words);
                        sel.groups =
                            if remaining as f64 > 0.95 * heap.old.capacity_words() as f64 {
                                std::mem::take(&mut sel.deferred)
                                    .into_iter()
                                    .map(|(l, r)| (l, r, true))
                                    .collect()
                            } else {
                                Vec::new()
                            };
                        continue;
                    }
                    break false;
                }
                let (label_id, root, requested) = sel.groups[sel.gi];
                sel.gi += 1;
                if !sel.deferred_mode {
                    if !requested && !sel.pressure {
                        continue;
                    }
                    // With hints enabled, the newest tagged group has most
                    // likely not seen its h2_move yet (it is still mutable —
                    // e.g. Giraph's current message store); the pressure
                    // path defers it *unless moving every older group still
                    // leaves the heap overflowing* (§3.2). Without hints
                    // (NH) everything marked moves, mutable or not.
                    if !requested && sel.hints && label_id == sel.newest_label {
                        sel.deferred.push((label_id, root));
                        continue;
                    }
                    if !requested {
                        if let Some(0) = sel.pressure_budget {
                            continue;
                        }
                    }
                }
                sel.stack.push(Addr::new(root));
                sel.cur_label = label_id;
                sel.cur_counts = !requested;
                sel.in_group = true;
                break true;
            };
            if !started {
                exhausted = true;
                break;
            }
        }
        let before = cyc.move_order.len();
        sel.cur_words += major::tag_closure_step(
            heap,
            &mut sel.stack,
            Label::new(sel.cur_label),
            &mut uw,
            &mut cyc.move_order,
            budget,
        );
        budget -= cyc.move_order.len() - before;
    }
    let cost = uw.cpu_ns(&heap.config.cost);
    cyc.sched.end_unit(&clock, lane, WorkUnitKind::CandidateSelect, cost, uw.extra_ns);
    if !exhausted {
        cyc.sel = Some(sel);
    }
    // Selection drained: the next step runs finish_select.
}

/// The tail of mark termination, after selection has drained: H2 liveness
/// stats, the dead-region sweep, the mark barrier, and freezing the live
/// set into the relocation enumeration.
fn finish_select(heap: &mut Heap, cyc: &mut MajorCycle) {
    // Optional uncharged statistics pass for Figure 10 (live objects per
    // H2 region), before dead regions are swept.
    if heap.track_h2_liveness && heap.h2.is_some() {
        major::record_h2_liveness(heap);
    }
    // Marking-phase task 5: free dead H2 regions (lazy bulk reclamation).
    if heap.h2.is_some() {
        heap.propagate_site_groups();
        let freed = heap.h2.as_mut().unwrap().propagate_and_sweep();
        for rid in &freed {
            heap.h2_starts.remove(&rid.0);
            major::clear_region_cards(heap, rid.0);
        }
    }
    roll_to(heap, cyc, "major:mark", GcPhase::Precompact, 1000);
    // Freeze the live set: the enumeration order (old-then-young, sorted) is
    // both the planning and the relocation order, and the flip point pins
    // which eden allocations stay put.
    cyc.old_base = heap.old.base().raw();
    cyc.old_live = cyc.live.iter().copied().filter(|&a| a >= cyc.old_base).collect();
    cyc.young_live = cyc.live.iter().copied().filter(|&a| a < cyc.old_base).collect();
    cyc.old_live.sort_unstable();
    cyc.young_live.sort_unstable();
    cyc.expect_objects();
    cyc.flip_top = heap.eden.top().raw();
    cyc.forwarding = ForwardTable::recycled(
        std::mem::take(&mut heap.fwd_scratch),
        heap.mem.len(),
        cyc.live.len(),
    );
    cyc.new_top = cyc.old_base;
    cyc.phase = IncrPhase::Plan;
}

fn step_plan(heap: &mut Heap, cyc: &mut MajorCycle) {
    if cyc.assign_idx < cyc.move_order.len() {
        return h2_assign(heap, cyc);
    }
    let total = cyc.live_count();
    if cyc.plan_idx >= total {
        return begin_adjust(heap, cyc);
    }
    let clock = heap.clock.clone();
    let lane = cyc.sched.begin_unit(&clock, WorkUnitKind::PlanChunk);
    let mut uw = Work::default();
    let end = (cyc.plan_idx + OBJECT_CHUNK).min(total);
    for idx in cyc.plan_idx..end {
        let src = cyc.enum_at(idx);
        cyc.sched.claim(DOM_OBJECT | src);
        let header = heap.mem[src as usize];
        // Candidates were already assigned to H2 (an H2-alloc failure
        // would have cleared the candidate bit).
        if object::is_candidate(header) {
            continue;
        }
        let size = object::size_of(header);
        uw.objects += 1;
        if let GcVariant::G1 { region_words } = heap.config.variant {
            if src >= cyc.old_base {
                *cyc.g1_region_live.entry((src - cyc.old_base) / region_words as u64).or_insert(0) +=
                    size as u64;
            }
        }
        let footprint = heap.g1_footprint(size);
        if cyc.new_top + footprint as u64 > heap.old.limit().raw() {
            // The aborted phase charges nothing.
            cyc.sched.abandon();
            heap.clock.emit(EventKind::PhaseEnd { phase: GcPhase::Precompact });
            let placed = cyc.new_top - cyc.old_base;
            cyc.oom = Some(heap.note_oom(OomError {
                requested_words: size,
                context: format!(
                    "live data exceeds the old generation: {total} live objects, \
                     {placed} words placed of {} capacity (old live {}, young live {})",
                    heap.old.capacity_words(),
                    cyc.old_live.len(),
                    cyc.young_live.len()
                ),
            }));
            return;
        }
        if footprint > size {
            heap.stats.g1_humongous_waste_words += (footprint - size) as u64;
        }
        cyc.forwarding.push(src, cyc.new_top);
        cyc.new_old_starts.push(cyc.new_top);
        cyc.new_top += footprint as u64;
    }
    cyc.plan_idx = end;
    let cost = uw.cpu_ns(&heap.config.cost);
    cyc.sched.end_unit(&clock, lane, WorkUnitKind::PlanChunk, cost, 0);
}

/// One unit of the H2 address assignment, in closure-discovery order: each
/// root key-object's transitive closure lands contiguously in its label's
/// regions, preserving the framework's access locality on the device. The
/// region bump allocation is a serial chain: one unit in a whole pause,
/// [`ASSIGN_CHUNK`]-candidate units on lane 0 when sliced. Mutators between
/// chunks never touch the H2 allocator or the candidate bits.
///
/// With a fault plane armed an alloc can fail mid-cycle (injected ENOSPC),
/// so the assignment is one transaction in either shape: stage every
/// assignment against a region snapshot and, on any failure, restore the
/// allocator and keep the whole candidate set in H1 — a half-promoted
/// closure would split a key-object group across heaps with its region
/// accounting already advanced. Without a plane, a candidate H2 cannot fit
/// simply stays in H1 this cycle.
fn h2_assign(heap: &mut Heap, cyc: &mut MajorCycle) {
    let clock = heap.clock.clone();
    let lane = cyc.begin_chain_unit(heap, WorkUnitKind::H2Assign);
    let mut uw = Work::default();
    let Heap { mem, h2, .. } = &mut *heap;
    let h2 = h2.as_mut().expect("candidate without H2");
    let txn = h2.fault_plane().is_some();
    let end = if txn || !cyc.yields {
        cyc.move_order.len()
    } else {
        (cyc.assign_idx + ASSIGN_CHUNK).min(cyc.move_order.len())
    };
    let snap = txn.then(|| h2.regions().snapshot());
    let mut staged: Vec<(u64, u64)> = Vec::with_capacity(end - cyc.assign_idx);
    let mut failed = false;
    for &src in &cyc.move_order[cyc.assign_idx..end] {
        let header = mem[src as usize];
        if !object::is_candidate(header) {
            continue;
        }
        let size = object::size_of(header);
        let label = Label::new(mem[src as usize + 1]);
        uw.objects += 1;
        match h2.alloc(label, size) {
            Ok(dest) => staged.push((src, dest.raw())),
            Err(_) if txn => {
                failed = true;
                break;
            }
            Err(_) => mem[src as usize] = object::without_candidate(header),
        }
    }
    if let (true, Some(snap)) = (failed, snap) {
        h2.regions_mut().restore(snap);
        for &src in &cyc.move_order {
            mem[src as usize] = object::without_candidate(mem[src as usize]);
        }
    } else {
        for (src, dest) in staged {
            cyc.forwarding.push(src, dest);
        }
    }
    cyc.assign_idx = end;
    // Pre-compaction charges CPU only (no extra_ns).
    let cost = uw.cpu_ns(&heap.config.cost);
    cyc.sched.end_unit(&clock, lane, WorkUnitKind::H2Assign, cost, 0);
}

/// Planning is complete: close pre-compaction and re-derive the states of
/// the H2 cards scanned during marking (after this GC every H1 object is in
/// the old generation). A whole-pause cycle then runs its adjust chunks; a
/// sliced one flips in this same step.
fn begin_adjust(heap: &mut Heap, cyc: &mut MajorCycle) {
    // The G1 mixed-collection fraction: live data in the regions a
    // garbage-first policy would actually collect, over total live data.
    // G1 only adjusts and copies the regions it moves.
    cyc.relocate_milli =
        major::g1_moved_fraction_milli(heap, &cyc.g1_region_live, cyc.new_top - cyc.old_base);
    roll_to(heap, cyc, "major:precompact", GcPhase::Adjust, cyc.relocate_milli);
    cyc.expect_objects();
    if let Some(h2) = heap.h2.as_mut() {
        for &(card, has_backward) in &cyc.scanned_cards {
            let state = if has_backward { CardState::OldGen } else { CardState::Clean };
            h2.cards_mut().set_state(card, state);
        }
        // Re-mark everything the mutator dirtied mid-cycle on top.
        for &slot in &cyc.mutator_h2_dirty {
            h2.cards_mut().mark_dirty(slot);
        }
    }
    cyc.phase = IncrPhase::Adjust;
    if cyc.yields {
        // The flip is one atomic step between Plan and Relocate (it may
        // exceed the budget; in practice it is a few backward-fix chunks).
        finish_adjust(heap, cyc);
    }
}

/// One [`OBJECT_CHUNK`] of whole-pause pointer adjustment.
fn step_adjust(heap: &mut Heap, cyc: &mut MajorCycle) {
    let total = cyc.live_count();
    if cyc.adjust_idx >= total {
        return finish_adjust(heap, cyc);
    }
    let clock = heap.clock.clone();
    let lane = cyc.sched.begin_unit(&clock, WorkUnitKind::AdjustChunk);
    let mut uw = Work::default();
    let end = (cyc.adjust_idx + OBJECT_CHUNK).min(total);
    for idx in cyc.adjust_idx..end {
        let src = cyc.enum_at(idx);
        cyc.sched.claim(DOM_OBJECT | src);
        adjust_slots(heap, &cyc.forwarding, src, &mut uw);
    }
    cyc.adjust_idx = end;
    let cost = uw.cpu_ns(&heap.config.cost);
    cyc.sched.end_unit(&clock, lane, WorkUnitKind::AdjustChunk, cost, uw.extra_ns);
}

/// Rewrites the reference slots of the live object at `src` in place to
/// their post-compaction values, re-deriving the card and dependency state
/// of its destination: a newly created backward reference dirties the H2
/// card of the object's future location, a newly created cross-region
/// reference records the directional dependency (§4), and an old→young
/// reference (a sliced cycle's late allocation) dirties the H1 card.
fn adjust_slots(heap: &mut Heap, forwarding: &ForwardTable, src: u64, uw: &mut Work) {
    let dest = forwarding.at(src);
    let dest_addr = Addr::new(dest);
    let (first_slot, end_slot) = heap.ref_slot_range(Addr::new(src));
    for s in first_slot..end_slot {
        let val = heap.mem[s as usize];
        if val == 0 {
            continue;
        }
        uw.adjusted_refs += 1;
        uw.extra_ns += heap.h1_word_extra_ns(Addr::new(s));
        let new_val = if Addr::new(val).is_h2() {
            val // H2 objects never move
        } else {
            forwarding.get(val).unwrap_or(val)
        };
        heap.mem[s as usize] = new_val;
        let new_target = Addr::new(new_val);
        let slot_at_dest = Addr::new(dest + (s - src));
        if dest_addr.is_h2() {
            let h2 = heap.h2.as_mut().unwrap();
            if new_target.is_h1() {
                h2.cards_mut().mark_dirty(slot_at_dest);
            } else if new_target.is_h2() {
                let from = h2.regions().region_of(dest_addr);
                let to = h2.regions().region_of(new_target);
                if from != to {
                    h2.regions_mut().add_dependency(from, to);
                }
            }
        } else if new_target.is_h1() && heap.in_young(new_target) {
            heap.h1_cards.mark_dirty(slot_at_dest);
        }
    }
}

/// Closes pointer adjustment: roots (uncosted — a handful of slot
/// rewrites, including handles created mid-cycle) and backward references
/// become post-compaction addresses, and H1 cards restart from empty. A
/// sliced cycle also adjusts its Plan-window allocations and builds the
/// destination index; from here its mutator holds logical addresses.
fn finish_adjust(heap: &mut Heap, cyc: &mut MajorCycle) {
    let clock = heap.clock.clone();
    for i in 0..heap.roots.len() {
        let a = heap.roots[i];
        if a.is_h1() {
            if let Some(d) = cyc.forwarding.get(a.raw()) {
                heap.roots[i] = Addr::new(d);
            }
        }
    }
    fix_backward(heap, cyc);
    // Plan-window allocations stay put but may hold pre-compaction values.
    if !cyc.plan_late.is_empty() {
        let lane = cyc.sched.begin_unit(&clock, WorkUnitKind::AdjustChunk);
        let mut uw = Work::default();
        for &obj in &cyc.plan_late {
            let (first_slot, end_slot) = heap.ref_slot_range(Addr::new(obj));
            for s in first_slot..end_slot {
                let val = heap.mem[s as usize];
                if val == 0 || Addr::new(val).is_h2() {
                    continue;
                }
                uw.adjusted_refs += 1;
                uw.extra_ns += heap.h1_word_extra_ns(Addr::new(s));
                if let Some(d) = cyc.forwarding.get(val) {
                    heap.mem[s as usize] = d;
                }
            }
        }
        let cost = uw.cpu_ns(&heap.config.cost);
        cyc.sched.end_unit(&clock, lane, WorkUnitKind::AdjustChunk, cost, uw.extra_ns);
    }
    // A sliced cycle's fused adjust re-derives old→young (young = late
    // eden) cards at each destination, and the mutator barrier keeps
    // marking physically during relocation.
    heap.h1_cards.clear_all();
    if cyc.yields {
        cyc.dest_index = (0..cyc.live_count())
            .map(|idx| {
                let src = cyc.enum_at(idx);
                (cyc.forwarding.at(src), src)
            })
            .collect();
        cyc.dest_index.sort_unstable();
    }
    roll_to(heap, cyc, "major:adjust", GcPhase::Compact, cyc.relocate_milli);
    cyc.expect_objects();
    cyc.phase = IncrPhase::Relocate;
}

/// Backward references found by the card scan, plus the H2 slots the
/// mutator pointed at H1 mid-cycle: point them at the new H1 locations
/// (device writes, charged to major GC), [`GRAY_PACKET`] slots per unit.
/// Dedup first: a slot both scanned and re-written must be adjusted exactly
/// once (a second pass could misread an already-forwarded value as a source
/// address). The scan collects slots in ascending address order, so the
/// sort keeps its order.
fn fix_backward(heap: &mut Heap, cyc: &mut MajorCycle) {
    let clock = heap.clock.clone();
    let mut slots: Vec<u64> =
        cyc.backward_slots.iter().chain(cyc.extra_backward.iter()).map(|a| a.raw()).collect();
    slots.sort_unstable();
    slots.dedup();
    for chunk in slots.chunks(GRAY_PACKET) {
        let lane = cyc.sched.begin_unit(&clock, WorkUnitKind::BackwardFix);
        let mut uw = Work::default();
        for &s in chunk {
            let slot = Addr::new(s);
            let val = heap.h2.as_ref().unwrap().read_word_free(slot);
            if val == 0 || Addr::new(val).is_h2() {
                continue;
            }
            let new_val = cyc.forwarding.get(val).unwrap_or(val);
            if new_val != val {
                heap.h2.as_mut().unwrap().write_word(slot, new_val, Category::MajorGc);
            }
            uw.adjusted_refs += 1;
        }
        let cost = uw.cpu_ns(&heap.config.cost);
        cyc.sched.end_unit(&clock, lane, WorkUnitKind::BackwardFix, cost, uw.extra_ns);
    }
}

/// One compaction unit in enumeration order (old-then-young,
/// address-sorted): [`OBJECT_CHUNK`] plain copies in a whole pause,
/// [`RELOC_CHUNK`] fused adjust+copy objects when sliced. H1 copies and
/// adjustment carry the mixed-collection scaling; H2 promotion copies are
/// always paid in full (flat).
fn step_relocate(heap: &mut Heap, cyc: &mut MajorCycle) {
    let total = cyc.live_count();
    if cyc.reloc_idx >= total {
        return finish(heap, cyc);
    }
    let clock = heap.clock.clone();
    let lane = cyc.sched.begin_unit(&clock, WorkUnitKind::CompactChunk);
    let mut uw = Work::default();
    let mut unit_h1_words: u64 = 0;
    let chunk = if cyc.yields { RELOC_CHUNK } else { OBJECT_CHUNK };
    let end = (cyc.reloc_idx + chunk).min(total);
    for idx in cyc.reloc_idx..end {
        let src = cyc.enum_at(idx);
        cyc.sched.claim(DOM_OBJECT | src);
        if cyc.yields {
            // Fused pointer adjustment: rewrite this object's slots in place
            // at the source immediately before the copy.
            adjust_slots(heap, &cyc.forwarding, src, &mut uw);
        }
        let dest = cyc.forwarding.at(src);
        let size = object::size_of(heap.mem[src as usize]);
        // Clear GC bits in the header before the object reaches its new home.
        heap.mem[src as usize] =
            object::without_candidate(object::without_mark(heap.mem[src as usize]));
        uw.copied_words += size as u64;
        let (src_i, src_end) = (src as usize, src as usize + size);
        if Addr::new(dest).is_h2() {
            promote(heap, cyc, src_i, dest, size);
            continue;
        }
        unit_h1_words += size as u64;
        if !cyc.yields && dest > src {
            // The destination overtakes its source (young sources, G1
            // humongous rounding): buffer the copy until every source has
            // been read.
            cyc.stash_meta.push((dest, cyc.stash_words.len(), size));
            cyc.stash_words.extend_from_slice(&heap.mem[src_i..src_end]);
        } else {
            // A sliced (PS) cycle's old-gen destinations are packed
            // monotonically below their sources, and young sources live in
            // eden/survivor, which no destination overlaps.
            debug_assert!(dest <= src || src < cyc.old_base);
            heap.mem.copy_within(src_i..src_end, dest as usize);
            uw.extra_ns += heap.h1_word_extra_ns(Addr::new(dest)) * size as u64;
        }
    }
    cyc.reloc_idx = end;
    let copy_ns = heap.config.cost.gc_copy_word_ns;
    let adjust_cpu = uw.adjusted_refs * heap.config.cost.gc_adjust_ref_ns;
    let h1_cpu = unit_h1_words * copy_ns;
    let h2_cpu = (uw.copied_words - unit_h1_words) * copy_ns;
    cyc.sched.end_unit(
        &clock,
        lane,
        WorkUnitKind::CompactChunk,
        h1_cpu + adjust_cpu,
        h2_cpu + uw.extra_ns,
    );
}

/// Promotes the object at `src_i` to its H2 destination through the
/// promotion buffer, indexing its start for card scans.
fn promote(heap: &mut Heap, cyc: &mut MajorCycle, src_i: usize, dest: u64, size: usize) {
    // Split-field borrow: stream the object out of `mem` straight into the
    // promotion buffer, no intermediate copy.
    let region = {
        let Heap { mem, h2, .. } = &mut *heap;
        let h2 = h2.as_mut().unwrap();
        h2.write_promoted(Addr::new(dest), &mem[src_i..src_i + size], Category::MajorGc);
        h2.regions().region_of(Addr::new(dest))
    };
    heap.h2_starts.entry(region.0).or_default().push(dest);
    if cyc.promoted_regions.last() != Some(&region.0) {
        cyc.promoted_regions.push(region.0);
    }
    heap.stats.objects_promoted_h2 += 1;
    cyc.staged_words += size as u64;
    if heap.lifetimes.is_enabled() {
        let label_word = heap.mem[src_i + 1];
        if label_word != 0 {
            let label = Label::new(label_word);
            heap.lifetimes.record_promotion(label, size as u64);
            heap.note_site_region(label, region.0);
        }
    }
}

/// Retires the cycle's heap state: land stashed copies, restore the start
/// indexes, install the compacted old generation, reset the young spaces
/// and update the transfer policy (§3.2). The final promotion flush and
/// `GcEnd` happen in the driver.
fn finish(heap: &mut Heap, cyc: &mut MajorCycle) {
    for &(dest, off, len) in &cyc.stash_meta {
        heap.mem[dest as usize..dest as usize + len]
            .copy_from_slice(&cyc.stash_words[off..off + len]);
    }
    // Compaction visits sources in H1 address order, but H2 destinations
    // were assigned in closure-discovery order, so the per-region start
    // lists are appended out of address order. Card scans binary-search
    // these lists, which silently misses objects on unsorted input —
    // restore the sort invariant here.
    cyc.promoted_regions.sort_unstable();
    cyc.promoted_regions.dedup();
    for rid in &cyc.promoted_regions {
        if let Some(starts) = heap.h2_starts.get_mut(rid) {
            starts.sort_unstable();
        }
    }
    let forwarding =
        std::mem::replace(&mut cyc.forwarding, ForwardTable::recycled(Vec::new(), 0, 0));
    heap.fwd_scratch = forwarding.reset();
    heap.old.set_top(Addr::new(cyc.new_top));
    heap.old_starts = std::mem::take(&mut cyc.new_old_starts);
    if cyc.yields {
        // Deadwood: eden is not reset (late allocations live above
        // flip_top). Objects in the relocated prefix keep their headers —
        // the linear eden walk stays parsable — but their reference slots
        // are nulled: dead objects' slots still hold pre-compaction
        // addresses, and copied-out sources are garbage.
        let mut a = heap.eden.base().raw();
        while a < cyc.flip_top {
            let size = object::size_of(heap.mem[a as usize]) as u64;
            let (first, end) = heap.ref_slot_range(Addr::new(a));
            heap.mem[first as usize..end as usize].fill(0);
            a += size;
        }
    } else {
        heap.eden.reset();
    }
    heap.from.reset();
    heap.to.reset();
    let live_h1_after = cyc.new_top - cyc.old_base;
    if let Some(h2) = heap.h2.as_mut() {
        h2.policy_mut().note_major_gc_end_satisfying(
            live_h1_after,
            heap.old.capacity_words() as u64,
            &cyc.req_snapshot,
        );
    }
    cyc.done = true;
}
