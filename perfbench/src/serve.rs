//! The `serve` workload: a closed loop of client sessions over tenant
//! heaps that share one NVMe `SharedDevice`.
//!
//! Each tenant holds a hot (H1) and a cold (H2) copy of one table. Reads
//! are the query plane's `op_for` point / range / aggregate mix; writes are
//! appends, `update_value` and `delete_row`. The session loop is the one
//! `run_query_plane` runs (same op order, same latency accounting), with
//! writes mixed in; with writes off it reproduces `run_query_plane`
//! exactly, which the tests pin.
//!
//! Every answer is checked after the timed phase against a plain `Vec`
//! mirror of each table that replays the same writes in the same order.

use crate::layers::{Layers, Metrics};
use crate::spans::Spans;
use crate::Rep;
use std::sync::Arc;
use std::time::Instant;
use teraheap_core::H2Config;
use teraheap_query::{
    gen_rows, op_for, run_query, Agg, Fnv, LatencyHistogram, LatencySummary, OpKind, Query,
    QueryPlaneConfig, Table, TableConfig, TablePlacement, COLS,
};
use teraheap_runtime::{Heap, HeapConfig};
use teraheap_storage::{DeviceSpec, SharedDevice, SimClock, TenantId};
use teraheap_util::rng::Rng;

/// Keys of generated rows are multiples of this (as in `gen_rows`).
const KEY_STRIDE: u64 = 8;

/// Latency bucket of the writes, after the three read kinds.
const WRITE: usize = 3;

/// Shape of one serve run.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// The query plane's shape: device, heaps, tenants, sessions, ops,
    /// table size, read mix, think time and seed.
    pub plane: QueryPlaneConfig,
    /// Percent of ops that are writes.
    pub write_pct: u64,
}

/// The benchmark's `serve` workload on `seed`.
pub fn config(seed: u64) -> ServeConfig {
    let mut plane = QueryPlaneConfig::new(DeviceSpec::nvme_ssd());
    plane.tenants = 2;
    plane.sessions = 16;
    plane.total_ops = 48_000;
    plane.rows_per_table = 4096;
    // Both copies fit H1 until the set-up majors move the cold one to H2.
    // The timed loop's appends then fill the old generation to within 2x
    // young of full twice per tenant, so two minor collections and two
    // incremental majors per tenant run while ops are timed.
    plane.heap = HeapConfig::builder(8 << 10, 40 << 10)
        .pause_budget_ns(50_000) // fig14's budget
        .build()
        .expect("valid heap config");
    // The page cache (32 KiB) holds a fifth of the cold copy (~160 KiB).
    plane.h2 = H2Config::builder()
        .region_words(2 << 10)
        .n_regions(64)
        .card_seg_words(512)
        .resident_budget_bytes(32 << 10)
        .page_size(4096)
        .promo_buffer_bytes(16 << 10)
        .build()
        .expect("valid H2 config");
    plane.seed = seed;
    ServeConfig {
        plane,
        write_pct: 30,
    }
}

/// One operation of the stream, on a tenant's hot or cold table copy.
#[derive(Debug, Clone, Copy)]
enum Op {
    Read {
        kind: OpKind,
        query: Query,
        use_index: bool,
    },
    Append {
        vals: [u64; 2],
    },
    Update {
        pick: u64,
        col: usize,
        val: u64,
    },
    Delete {
        pick: u64,
    },
}

/// Derives operation `i` and whether it targets the hot copy: a write
/// with probability `write_pct`, else the query plane's own op `i`.
fn op_at(cfg: &ServeConfig, contents: &[[u64; COLS]], i: usize) -> (bool, Op) {
    let mut rng = Rng::seed_from_u64(
        cfg.plane.seed ^ 0x5772_17e5 ^ (i as u64).wrapping_mul(0xD1B5_4A32_D192_ED03),
    );
    if rng.gen_range(0u64..100) >= cfg.write_pct {
        let s = op_for(&cfg.plane, contents, i);
        let read = Op::Read {
            kind: s.kind,
            query: s.query,
            use_index: s.use_index,
        };
        return (s.hot, read);
    }
    let hot = rng.gen_range(0u64..100) < cfg.plane.hot_pct as u64;
    let write = match rng.gen_range(0u64..100) {
        0..=49 => Op::Append {
            vals: [rng.next_u64() >> 16, rng.next_u64() >> 16],
        },
        50..=84 => Op::Update {
            pick: rng.next_u64(),
            col: 1 + rng.gen_range(0u64..2) as usize,
            val: rng.next_u64() >> 16,
        },
        _ => Op::Delete {
            pick: rng.next_u64(),
        },
    };
    (hot, write)
}

/// What one executed op did, for the mirror replay.
#[derive(Debug, Clone, Copy)]
enum Done {
    Read {
        query: Query,
        answer: (u64, u64, u64),
    },
    Append {
        row: [u64; COLS],
    },
    Update {
        row: usize,
        col: usize,
        val: u64,
    },
    Delete {
        row: usize,
        was_live: bool,
    },
}

struct Tenant {
    id: TenantId,
    heap: Heap,
    tables: [Table; 2], // [cold, hot]
}

/// A finished serve run. The fields beside `rep` are what
/// `run_query_plane` reports, for the fidelity test.
pub struct Outcome {
    #[cfg_attr(not(test), allow(dead_code))]
    pub all: LatencySummary,
    #[cfg_attr(not(test), allow(dead_code))]
    pub makespan_ns: u64,
    /// FNV over `(op index, answer checksum, rows matched)` in op order,
    /// as `run_query_plane` computes it; writes contribute their outcome.
    #[cfg_attr(not(test), allow(dead_code))]
    pub checksum: u64,
    pub rep: Rep,
}

fn table(placement: TablePlacement, table_id: u64, chunk_rows: usize) -> Table {
    Table::new(TableConfig {
        table_id,
        cols: COLS,
        chunk_rows,
        key_col: 0,
        placement,
    })
}

/// Runs one serve repetition: set-up (device, tenant heaps, both table
/// copies, one major collection each), the timed session loop, then the
/// mirror check.
pub fn run(cfg: &ServeConfig, spans: &mut Spans) -> Outcome {
    let p = &cfg.plane;
    assert!(
        p.tenants > 0 && p.sessions >= p.tenants && p.total_ops > 0,
        "empty plane"
    );
    let first_span = spans.spans().len();

    let t = Instant::now();
    let setup_span = spans.begin("serve.setup");
    let contents = gen_rows(p.rows_per_table, p.seed);
    let device = SharedDevice::for_server(p.device, p.tenants * p.h2.footprint_bytes());
    let mut tenants: Vec<Tenant> = (0..p.tenants)
        .map(|_| {
            let clock = Arc::new(SimClock::new());
            let id = device
                .add_tenant(clock.clone(), p.h2.footprint_bytes())
                .expect("device capacity is tenants x footprint");
            let mut heap = Heap::with_clock(p.heap, clock);
            heap.attach_h2(p.h2, &device)
                .expect("tenant partition fits the H2 footprint");
            let mut tables = [
                table(TablePlacement::Cold, 2, p.chunk_rows),
                table(TablePlacement::Hot, 1, p.chunk_rows),
            ];
            let sp = spans.begin("query.load");
            for row in &contents {
                let [cold, hot] = &mut tables;
                hot.append_row(&mut heap, row).expect("hot copy fits H1");
                cold.append_row(&mut heap, row)
                    .expect("cold copy fits H1 until the major");
            }
            spans.end(sp);
            let sp = spans.begin("runtime.gc_major");
            heap.gc_major().expect("set-up major collection");
            spans.end(sp);
            Tenant { id, heap, tables }
        })
        .collect();
    spans.end(setup_span);
    let setup_ns = t.elapsed().as_nanos() as u64;

    struct Sess {
        ready_ns: u64,
        next: usize,
    }
    // Session s replays ops s, s + sessions, s + 2·sessions, ...
    let mut sessions: Vec<Sess> = (0..p.sessions)
        .map(|s| Sess {
            ready_ns: s as u64 * p.think_ns / p.sessions as u64,
            next: s,
        })
        .collect();
    let mut all = LatencyHistogram::new();
    // Point, range, aggregate (`OpKind::index`), then writes.
    let mut per_kind: [LatencyHistogram; 4] = Default::default();
    let mut results = vec![(0u64, 0u64); p.total_ops];
    let mut log: Vec<(usize, Done)> = Vec::with_capacity(p.total_ops);
    let (mut scanned, mut matched) = (0u64, 0u64);
    let mut makespan_ns = 0u64;
    let mut failed = 0u64;

    let t = Instant::now();
    let loop_span = spans.begin("serve.loop");
    while let Some(s) = (0..p.sessions)
        .filter(|&s| sessions[s].next < p.total_ops)
        .min_by_key(|&s| (sessions[s].ready_ns, s))
    {
        let i = sessions[s].next;
        sessions[s].next += p.sessions;
        let (hot, op) = op_at(cfg, &contents, i);
        let ti = s % p.tenants;
        let tenant = &mut tenants[ti];
        let heap = &mut tenant.heap;
        let table = &mut tenant.tables[hot as usize];
        let clock_before = heap.clock().total_ns();
        let (bucket, done) = match op {
            Op::Read {
                kind,
                query,
                use_index,
            } => {
                let sp = spans.begin("query.read");
                let res = run_query(heap, table, &query, use_index);
                spans.end(sp);
                scanned += res.rows_scanned;
                matched += res.rows_matched;
                results[i] = (res.checksum, res.rows_matched);
                let answer = res.answer();
                (kind.index(), Done::Read { query, answer })
            }
            Op::Append { vals } => {
                let row = [table.rows() as u64 * KEY_STRIDE, vals[0], vals[1]];
                let sp = spans.begin("query.write");
                let res = table.append_row(heap, &row);
                spans.end(sp);
                if let Err(e) = res {
                    eprintln!("serve op {i}: append: {e}");
                    failed += 1;
                }
                results[i] = (row[0], 1);
                (WRITE, Done::Append { row })
            }
            Op::Update { pick, col, val } => {
                let n = table.rows();
                let start = (pick % n as u64) as usize;
                let row = (0..n)
                    .map(|k| (start + k) % n)
                    .find(|&r| !table.is_deleted(r))
                    .expect("tables keep live rows");
                let sp = spans.begin("query.write");
                table.update_value(heap, row, col, val);
                spans.end(sp);
                results[i] = (row as u64, val);
                (WRITE, Done::Update { row, col, val })
            }
            Op::Delete { pick } => {
                let row = (pick % table.rows() as u64) as usize;
                let sp = spans.begin("query.write");
                let was_live = table.delete_row(heap, row);
                spans.end(sp);
                results[i] = (row as u64, was_live as u64);
                (WRITE, Done::Delete { row, was_live })
            }
        };
        log.push((2 * ti + hot as usize, done));
        let clock_after = heap.clock().total_ns();
        // Closed loop: service starts once the client has sent the op and
        // the tenant is free; latency runs from send to completion.
        let sent = sessions[s].ready_ns;
        let completion = sent.max(clock_before) + (clock_after - clock_before);
        sessions[s].ready_ns = completion + p.think_ns;
        makespan_ns = makespan_ns.max(completion);
        all.record(completion - sent);
        per_kind[bucket].record(completion - sent);
    }
    spans.end(loop_span);
    let timed_ns = t.elapsed().as_nanos() as u64;

    let mismatches = check_against_mirror(&contents, p.tenants, &log);
    failed += mismatches;

    let mut fnv = Fnv::new();
    for (i, &(c, m)) in results.iter().enumerate() {
        fnv.push(i as u64);
        fnv.push(c);
        fnv.push(m);
    }
    let all_summary = all.summary();

    let mut sim = Metrics::new();
    sim.insert("sim_s", makespan_ns as f64 / 1e9);
    sim.insert(
        "sim_ops_per_s",
        p.total_ops as f64 / (makespan_ns.max(1) as f64 / 1e9),
    );
    sim.insert("lat_p50_us", all_summary.p50_ns as f64 / 1e3);
    sim.insert("lat_p99_us", all_summary.p99_ns as f64 / 1e3);
    sim.insert("lat_p999_us", all_summary.p999_ns as f64 / 1e3);
    for (name, h) in [
        "query.point_p99_us",
        "query.range_p99_us",
        "query.agg_p99_us",
        "query.write_p99_us",
    ]
    .iter()
    .zip(&per_kind)
    {
        sim.insert(name, h.quantile_permille(990) as f64 / 1e3);
    }
    sim.insert(
        "query.rows_scanned_per_match",
        matched as f64 / scanned.max(1) as f64,
    );
    let mut layers = Layers::default();
    for t in &tenants {
        layers.add_heap(&t.heap);
        layers.add_queued_ns(device.tenant_io(t.id).map_or(0, |io| io.queued_ns));
    }
    layers.write(&mut sim);

    let mut host = Metrics::new();
    if spans.enabled() {
        let pct = |name: &str, q: u64| {
            let mut d = spans.durations_since(first_span, name);
            d.sort_unstable();
            crate::quantile_permille(&d, q) as f64 / 1e3
        };
        host.insert("query.read_host_us_p50", pct("query.read", 500));
        host.insert("query.read_host_us_p99", pct("query.read", 990));
        host.insert("query.write_host_us_p50", pct("query.write", 500));
        host.insert("query.write_host_us_p99", pct("query.write", 990));
        let load: u64 = spans.durations_since(first_span, "query.load").iter().sum();
        host.insert("query.load_host_ms", load as f64 / 1e6);
    }
    Outcome {
        all: all_summary,
        makespan_ns,
        checksum: fnv.finish(),
        rep: Rep {
            setup_ns: vec![setup_ns],
            timed_ns: vec![timed_ns],
            sim,
            host,
            answers: results
                .iter()
                .map(|&(c, m)| c ^ m.rotate_left(32))
                .collect(),
            attempted: p.total_ops as u64,
            failed,
        },
    }
}

/// A table as a plain row vector with tombstones.
struct Mirror {
    rows: Vec<[u64; COLS]>,
    deleted: Vec<bool>,
}

impl Mirror {
    fn answer(&self, q: &Query) -> (u64, u64, u64) {
        let mut fnv = Fnv::new();
        let (mut n, mut sum, mut mn, mut mx) = (0u64, 0u64, u64::MAX, 0u64);
        for (row, vals) in self.rows.iter().enumerate() {
            if self.deleted[row] || !q.filter.matches(vals[q.filter.col]) {
                continue;
            }
            let v = vals[q.project];
            fnv.push(row as u64);
            fnv.push(v);
            n += 1;
            sum = sum.wrapping_add(v);
            mn = mn.min(v);
            mx = mx.max(v);
        }
        let agg = match q.agg {
            None => 0,
            Some(Agg::Count) => n,
            Some(Agg::Sum) => sum,
            Some(Agg::Min) => mn,
            Some(Agg::Max) => mx,
        };
        (n, agg, fnv.finish())
    }
}

/// Replays the executed ops on one mirror per table and counts the ops
/// whose outcome differs.
fn check_against_mirror(contents: &[[u64; COLS]], tenants: usize, log: &[(usize, Done)]) -> u64 {
    let mut mirrors: Vec<Mirror> = (0..2 * tenants)
        .map(|_| Mirror {
            rows: contents.to_vec(),
            deleted: vec![false; contents.len()],
        })
        .collect();
    let mut mismatches = 0;
    for &(t, done) in log {
        let m = &mut mirrors[t];
        let ok = match done {
            Done::Read { query, answer } => m.answer(&query) == answer,
            Done::Append { row } => {
                m.rows.push(row);
                m.deleted.push(false);
                true
            }
            Done::Update { row, col, val } => {
                let live = row < m.rows.len() && !m.deleted[row];
                if live {
                    m.rows[row][col] = val;
                }
                live
            }
            Done::Delete { row, was_live } => {
                let live = row < m.rows.len() && !m.deleted[row];
                if live {
                    m.deleted[row] = true;
                }
                live == was_live
            }
        };
        mismatches += u64::from(!ok);
    }
    mismatches
}

#[cfg(test)]
mod tests {
    use super::*;
    use teraheap_query::run_query_plane;

    /// With writes off and fig17's shape, the session loop is
    /// `run_query_plane`'s, to the nanosecond.
    #[test]
    fn session_loop_reproduces_run_query_plane() {
        let mut plane = QueryPlaneConfig::new(DeviceSpec::nvme_ssd());
        plane.sessions = 8;
        plane.tenants = 4;
        plane.total_ops = 512;
        let want = run_query_plane(&plane).expect("plane runs");
        let got = run(
            &ServeConfig {
                plane,
                write_pct: 0,
            },
            &mut Spans::new(false),
        );
        assert_eq!(got.checksum, want.checksum);
        assert_eq!(got.all.p50_ns, want.all.p50_ns);
        assert_eq!(got.all.p99_ns, want.all.p99_ns);
        assert_eq!(got.all.p999_ns, want.all.p999_ns);
        assert_eq!(got.makespan_ns, want.makespan_ns);
        assert_eq!(got.rep.failed, 0);
    }

    /// The writes make minor collections and incremental major slices run
    /// inside the timed loop: the set-up alone has fewer of both.
    #[test]
    fn writes_drive_gc_while_ops_are_timed() {
        let cfg = config(42);
        let reads_only = run(
            &ServeConfig {
                write_pct: 0,
                ..cfg.clone()
            },
            &mut Spans::new(false),
        )
        .rep;
        let mixed = run(&cfg, &mut Spans::new(false)).rep;
        assert_eq!(mixed.failed, 0);
        for name in ["runtime.minor_gcs", "runtime.incr_slices"] {
            assert!(
                mixed.sim[name] > reads_only.sim[name],
                "{name}: {} vs {}",
                mixed.sim[name],
                reads_only.sim[name]
            );
        }
        assert!(
            mixed.sim["storage.page_faults"] > 0.0 && mixed.sim["storage.device_queued_ms"] > 0.0
        );
    }

    #[test]
    fn mirror_catches_a_wrong_answer() {
        let contents = gen_rows(64, 7);
        let q = Query {
            filter: teraheap_query::Predicate {
                col: 0,
                lo: 0,
                hi: u64::MAX,
            },
            project: 1,
            agg: Some(Agg::Count),
        };
        let right = Mirror {
            rows: contents.clone(),
            deleted: vec![false; 64],
        }
        .answer(&q);
        let log = [(
            0,
            Done::Read {
                query: q,
                answer: right,
            },
        )];
        assert_eq!(check_against_mirror(&contents, 1, &log), 0);
        let wrong = (right.0 - 1, right.1, right.2);
        let log = [(
            0,
            Done::Read {
                query: q,
                answer: wrong,
            },
        )];
        assert_eq!(check_against_mirror(&contents, 1, &log), 1);
    }
}
