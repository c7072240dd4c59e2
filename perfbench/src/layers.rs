//! Per-layer simulated counters, read after a run from the program's own
//! public accessors: `SimClock::category_ns`, `Heap::stats`,
//! `MmapSim::stats`, `SharedDevice::tenant_io` and
//! `Tracer::{counts, span_stats, emitted, dropped}`.

use std::collections::BTreeMap;
use teraheap_runtime::obs::Category;
use teraheap_runtime::Heap;

/// Metric name → value.
pub type Metrics = BTreeMap<&'static str, f64>;

/// Counters summed (or, for pause percentiles, maxed) over every heap a
/// run created.
#[derive(Debug, Clone, Default)]
pub struct Layers {
    page_faults: u64,
    seq_faults: u64,
    evictions: u64,
    read_bytes: u64,
    write_bytes: u64,
    io_ns: u64,
    device_ops: u64,
    queued_ns: u64,
    io_retries: u64,
    h2_objects: u64,
    h2_words: u64,
    regions_reclaimed: u64,
    cards_minor: u64,
    minor_scan_ns: u64,
    fwd_fenced: u64,
    backward_seen: u64,
    minor_gcs: u64,
    major_gcs: u64,
    minor_ns: u64,
    major_ns: u64,
    mark_ns: u64,
    precompact_ns: u64,
    adjust_ns: u64,
    compact_ns: u64,
    pause_p50_ns: f64,
    pause_p99_ns: f64,
    incr_slices: u64,
    wb_remembered: u64,
    lane_stall_ns: u64,
    serializations: u64,
    deserializations: u64,
    serde_ns: u64,
    events_emitted: u64,
    events_dropped: u64,
}

impl Layers {
    /// Adds one heap's counters. The major-pause percentiles are the
    /// tracer's span histogram of that heap — incremental slices when the
    /// heap runs pause-budgeted majors, whole stop-world majors otherwise
    /// (the fig14 definition); the worst heap is kept, which bounds the
    /// pooled percentile from above.
    pub fn add_heap(&mut self, heap: &Heap) {
        let clock = heap.clock();
        self.io_ns += clock.category_ns(Category::Io);
        self.serde_ns += clock.category_ns(Category::SerDe);
        let s = heap.stats();
        self.h2_objects += s.objects_promoted_h2;
        self.cards_minor += s.h2_cards_scanned_minor;
        self.minor_scan_ns += s.h2_minor_scan_ns;
        self.fwd_fenced += s.forward_refs_fenced;
        self.backward_seen += s.backward_refs_seen;
        self.minor_gcs += s.minor_count;
        self.major_gcs += s.major_count;
        self.minor_ns += s.minor_ns;
        self.major_ns += s.major_ns;
        self.mark_ns += s.phases.marking_ns;
        self.precompact_ns += s.phases.precompact_ns;
        self.adjust_ns += s.phases.adjust_ns;
        self.compact_ns += s.phases.compact_ns;
        self.incr_slices += s.incr_slices;
        self.wb_remembered += s.write_barrier_remembered;
        self.lane_stall_ns += s.lane_stall_ns;
        if let Some(h2) = heap.h2() {
            self.h2_words += h2.words_promoted();
            self.regions_reclaimed += h2.regions().reclaimed_total();
            let io = h2.mmap().stats();
            self.page_faults += io.page_faults();
            self.seq_faults += io.seq_faults();
            self.evictions += io.evictions();
            self.read_bytes += io.read_bytes();
            self.write_bytes += io.write_bytes();
            self.io_retries += io.io_retries();
        }
        let tracer = clock.tracer();
        self.events_emitted += tracer.emitted();
        self.events_dropped += tracer.dropped();
        self.device_ops += tracer
            .counts()
            .iter()
            .filter(|(name, _)| *name == "device_read" || *name == "device_write")
            .map(|&(_, n)| n)
            .sum::<u64>();
        let slot = if heap.config().pause_budget_ns > 0 {
            "major_slice"
        } else {
            "major_gc"
        };
        if let Some(st) = tracer.span_stats().into_iter().find(|st| st.name == slot) {
            self.pause_p50_ns = self.pause_p50_ns.max(st.p50_ns);
            self.pause_p99_ns = self.pause_p99_ns.max(st.p99_ns);
        }
    }

    /// Block-manager / out-of-core Kryo calls of one job.
    pub fn add_serde_calls(&mut self, serializations: u64, deserializations: u64) {
        self.serializations += serializations;
        self.deserializations += deserializations;
    }

    /// Queueing delay the shared-device arbiter charged a tenant.
    pub fn add_queued_ns(&mut self, ns: u64) {
        self.queued_ns += ns;
    }

    /// Writes the `storage.*`, `core.*`, `runtime.*`, `kryo.*` and `obs.*`
    /// metrics.
    pub fn write(&self, m: &mut Metrics) {
        let ms = |ns: u64| ns as f64 / 1e6;
        let mb = |b: u64| b as f64 / (1 << 20) as f64;
        m.insert("storage.page_faults", self.page_faults as f64);
        m.insert(
            "storage.seq_fault_pct",
            if self.page_faults == 0 {
                0.0
            } else {
                100.0 * self.seq_faults as f64 / self.page_faults as f64
            },
        );
        m.insert("storage.evictions", self.evictions as f64);
        m.insert("storage.read_mb", mb(self.read_bytes));
        m.insert("storage.write_mb", mb(self.write_bytes));
        m.insert("storage.io_sim_ms", ms(self.io_ns));
        m.insert("storage.device_ops", self.device_ops as f64);
        m.insert("storage.device_queued_ms", ms(self.queued_ns));
        m.insert("storage.io_retries", self.io_retries as f64);
        m.insert("core.h2_objects_promoted", self.h2_objects as f64);
        m.insert("core.h2_words_promoted", self.h2_words as f64);
        m.insert("core.h2_regions_reclaimed", self.regions_reclaimed as f64);
        m.insert("core.h2_cards_scanned_minor", self.cards_minor as f64);
        m.insert("core.h2_minor_scan_sim_ms", ms(self.minor_scan_ns));
        m.insert("core.forward_refs_fenced", self.fwd_fenced as f64);
        m.insert("core.backward_refs_seen", self.backward_seen as f64);
        m.insert("runtime.minor_gcs", self.minor_gcs as f64);
        m.insert("runtime.major_gcs", self.major_gcs as f64);
        m.insert("runtime.minor_gc_sim_ms", ms(self.minor_ns));
        m.insert("runtime.major_gc_sim_ms", ms(self.major_ns));
        m.insert("runtime.major_mark_sim_ms", ms(self.mark_ns));
        m.insert("runtime.major_precompact_sim_ms", ms(self.precompact_ns));
        m.insert("runtime.major_adjust_sim_ms", ms(self.adjust_ns));
        m.insert("runtime.major_compact_sim_ms", ms(self.compact_ns));
        m.insert("runtime.gc_pause_p50_us", self.pause_p50_ns / 1e3);
        m.insert("runtime.gc_pause_p99_us", self.pause_p99_ns / 1e3);
        m.insert("runtime.incr_slices", self.incr_slices as f64);
        m.insert(
            "runtime.write_barrier_remembered",
            self.wb_remembered as f64,
        );
        m.insert("runtime.lane_stall_sim_ms", ms(self.lane_stall_ns));
        m.insert("kryo.serializations", self.serializations as f64);
        m.insert("kryo.deserializations", self.deserializations as f64);
        m.insert("kryo.serde_sim_ms", ms(self.serde_ns));
        m.insert("obs.events_emitted", self.events_emitted as f64);
        m.insert("obs.events_dropped", self.events_dropped as f64);
    }
}
