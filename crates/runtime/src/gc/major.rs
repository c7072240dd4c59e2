//! Helpers the major collector's steps share (the engine and its two
//! drivers live in `gc::incremental`): the dense forwarding table, the mark
//! push, the bounded closure-tagging step of candidate selection, card
//! clearing for swept H2 regions, the G1 mixed-collection fraction, and the
//! uncharged H2 liveness trace behind Figure 10.

use super::Work;
use crate::config::GcVariant;
use crate::heap::Heap;
use crate::object;
use std::collections::HashMap;
use teraheap_core::{Addr, CardState, Label};

/// The compaction forwarding table: `src → dest` for every live object.
///
/// Hit once per reference slot during pointer adjustment and once per object
/// during compaction, this went `HashMap<u64, u64>` → sorted vec + binary
/// search → (now) a dense direct-mapped array indexed by the H1 source
/// address: one bounds-checked load per lookup, no hashing and no
/// `log(live)` probe. The array spans the whole H1 word range, so it is
/// recycled across collections through `Heap::fwd_scratch` (zeroed lazily by
/// [`ForwardTable::reset`], which only touches the entries this GC set)
/// instead of being reallocated and memset every major GC. Entries store
/// `dest + 1` so 0 means "not forwarded"; H2 destinations (`1 << 40` and up)
/// cannot overflow the +1.
pub(super) struct ForwardTable {
    dense: Vec<u64>,
    srcs: Vec<u64>,
}

impl ForwardTable {
    /// Builds the table over `heap_words` of H1, reusing `recycled` (the
    /// previous GC's array, already reset to all-zero) when it is the right
    /// size.
    pub(super) fn recycled(recycled: Vec<u64>, heap_words: usize, live: usize) -> Self {
        let mut dense = recycled;
        dense.resize(heap_words, 0);
        ForwardTable { dense, srcs: Vec::with_capacity(live) }
    }

    /// Records `src → dest`. Sources must be unique (every live object has
    /// exactly one destination).
    pub(super) fn push(&mut self, src: u64, dest: u64) {
        debug_assert_eq!(self.dense[src as usize], 0, "duplicate forwarding source");
        self.dense[src as usize] = dest + 1;
        self.srcs.push(src);
    }

    pub(super) fn get(&self, src: u64) -> Option<u64> {
        match self.dense.get(src as usize) {
            Some(&v) if v != 0 => Some(v - 1),
            _ => None,
        }
    }

    /// Lookup that must succeed (the table covers every live object).
    pub(super) fn at(&self, src: u64) -> u64 {
        self.get(src).expect("live object missing from the forwarding table")
    }

    /// Clears the entries this GC set and hands the all-zero array back for
    /// the next collection.
    pub(super) fn reset(mut self) -> Vec<u64> {
        for src in self.srcs {
            self.dense[src as usize] = 0;
        }
        self.dense
    }
}

pub(super) fn mark_push(
    heap: &mut Heap,
    addr: Addr,
    stack: &mut Vec<Addr>,
    live: &mut Vec<u64>,
    work: &mut Work,
) {
    debug_assert!(addr.is_h1());
    let header = heap.mem[addr.raw() as usize];
    work.objects += 1;
    work.extra_ns += heap.h1_word_extra_ns(addr);
    if object::is_marked(header) {
        return;
    }
    heap.mem[addr.raw() as usize] = object::with_mark(header);
    live.push(addr.raw());
    stack.push(addr);
}

/// One bounded step of a closure tagging: pops from `stack` until `limit`
/// objects were tagged or the stack drains, tagging each object with
/// `label` and the candidate bit and returning the words tagged.
/// JVM-metadata and `Reference`-kind objects are excluded (§3.2). A sliced
/// selector resumes the same stack across pause slices; a whole-pause one
/// runs it with an unbounded limit.
pub(super) fn tag_closure_step(
    heap: &mut Heap,
    stack: &mut Vec<Addr>,
    label: Label,
    work: &mut Work,
    move_order: &mut Vec<u64>,
    limit: usize,
) -> u64 {
    let mut words = 0u64;
    let mut tagged = 0usize;
    while tagged < limit {
        let Some(obj) = stack.pop() else { break };
        if !obj.is_h1() {
            continue;
        }
        let header = heap.mem[obj.raw() as usize];
        if object::is_candidate(header) {
            continue;
        }
        // Only marked (SATB-live) objects join the closure. Whole-pause
        // marking leaves no reachable object unmarked, so this never skips
        // there; a sliced selector interleaves with the mutator,
        // which can link objects allocated *after* mark termination into a
        // tagged group — those are outside the frozen relocation
        // enumeration and must not be assigned H2 addresses this cycle.
        if !object::is_marked(header) {
            continue;
        }
        let desc = heap.classes.get(object::class_of(header));
        if desc.is_reference_kind || desc.is_metadata {
            continue;
        }
        heap.mem[obj.raw() as usize] = object::with_candidate(header);
        heap.mem[obj.raw() as usize + 1] = label.id();
        move_order.push(obj.raw());
        words += object::size_of(header) as u64;
        work.objects += 1;
        tagged += 1;
        // Push in reverse so the LIFO pops children in field/element order:
        // the placement order then matches the mutator's forward traversal,
        // which is what makes H2 scans sequential on the device.
        let (first_slot, end_slot) = heap.ref_slot_range(obj);
        // Slice iteration instead of indexed loads: one bounds check for the
        // whole slot run of this (often large) transitive-move object.
        for &val in heap.mem[first_slot as usize..end_slot as usize].iter().rev() {
            if val != 0 && Addr::new(val).is_h1() {
                stack.push(Addr::new(val));
            }
        }
    }
    words
}

/// Sets every card of a freed H2 region back to clean.
pub(super) fn clear_region_cards(heap: &mut Heap, region: u32) {
    let h2 = heap.h2.as_mut().unwrap();
    let region_words = h2.regions().region_words();
    let seg_words = h2.cards().seg_words();
    let first_card = region as usize * region_words / seg_words;
    let cards_per_region = region_words / seg_words;
    for card in first_card..first_card + cards_per_region {
        h2.cards_mut().set_state(card, CardState::Clean);
    }
}

/// The G1 mixed-collection moved-live fraction, in thousandths. Non-G1
/// variants return 1000 (full compaction cost).
pub(super) fn g1_moved_fraction_milli(heap: &Heap, region_live: &HashMap<u64, u64>, total_live: u64) -> u64 {
    let GcVariant::G1 { region_words } = heap.config.variant else {
        return 1000;
    };
    if total_live == 0 || region_live.is_empty() {
        return 1000;
    }
    // Garbage per old region = capacity - live; collect the most-garbage
    // regions first until 90% of the garbage is reclaimed.
    // (garbage, live) pairs per old-generation G1 region.
    let mut per_region: Vec<(u64, u64)> = region_live
        .values()
        .map(|&l| ((region_words as u64).saturating_sub(l), l))
        .collect();
    per_region.sort_unstable_by_key(|r| std::cmp::Reverse(r.0));
    let total_garbage: u64 = per_region.iter().map(|(g, _)| g).sum();
    if total_garbage == 0 {
        return 1000;
    }
    let target = total_garbage * 9 / 10;
    let mut got = 0u64;
    let mut moved_live = 0u64;
    for (g, l) in per_region {
        if got >= target {
            break;
        }
        got += g;
        moved_live += l;
    }
    (moved_live * 1000 / total_live).clamp(1, 1000)
}

/// Uncharged full trace through both heaps recording per-H2-region live
/// object counts and words — the instrumentation behind Figure 10.
pub(super) fn record_h2_liveness(heap: &mut Heap) {
    let mut visited: std::collections::HashSet<u64> = std::collections::HashSet::new();
    let mut stack: Vec<Addr> = heap
        .roots
        .iter()
        .copied()
        .filter(|a| !a.is_null())
        .collect();
    while let Some(obj) = stack.pop() {
        if !visited.insert(obj.raw()) {
            continue;
        }
        if obj.is_h2() {
            let size = {
                let h2 = heap.h2.as_ref().unwrap();
                object::size_of(h2.read_word_free(obj))
            };
            let h2 = heap.h2.as_mut().unwrap();
            h2.regions_mut().record_live_object(obj, size);
            // `ref_slot_range` reads H2 headers through the uncharged path,
            // matching this statistics pass.
            let (first_slot, end_slot) = heap.ref_slot_range(obj);
            for s in first_slot..end_slot {
                let val = heap.h2.as_ref().unwrap().read_word_free(Addr::new(s));
                if val != 0 {
                    stack.push(Addr::new(val));
                }
            }
        } else {
            let (first_slot, end_slot) = heap.ref_slot_range(obj);
            for s in first_slot..end_slot {
                let val = heap.mem[s as usize];
                if val != 0 {
                    stack.push(Addr::new(val));
                }
            }
        }
    }
}
