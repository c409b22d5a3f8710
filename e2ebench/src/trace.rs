//! The traced run: each read request runs as the chain of public calls
//! the server makes, every call wrapped in a span, and the per-layer
//! metrics are read from those spans, the program's counters and a few
//! direct calls into single layers.
//!
//! No instrumentation is added inside the program: spans are recorded
//! here, around the calls, and the program's own `QueryProfile` spans
//! are nested under the bench span that caused them.

use std::collections::{BTreeMap, HashMap};
use std::io::Write as _;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use eon_cache::CacheMode;
use eon_columnar::RosReader;
use eon_core::{EonDb, SessionOpts};
use eon_exec::agg::{aggregate_partial, merge_partials};
use eon_exec::{AggFunc, AggSpec, Expr};
use eon_net::wire::{read_frame, write_frame};
use eon_net::{EonClient, Response, MAX_FRAME_BYTES};
use eon_obs::QueryProfile;
use eon_storage::{FileSystem, MemFs};
use eon_types::{EonError, Result, Schema, Value};

use crate::cluster::Delta;
use crate::gen::{Shape, Stmt};
use crate::stats::{self, FlatSpan, Span};
use crate::workload::{wire_sql, QueryLog, WriterLog};
use crate::{metric, Metric};

/// Where runs leave their span files and run records, relative to the
/// checkout root the benchmark runs from.
pub const OUT_DIR: &str = "e2ebench/out";

/// In-memory span store, written out when the run ends.
pub struct Tracer {
    epoch: Instant,
    /// Next span id and the spans so far; ids are handed out under the
    /// same lock, so a nested profile's ids never collide.
    store: Mutex<(u64, Vec<Span>)>,
    next_request: AtomicU64,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            store: Mutex::new((1, Vec::new())),
            next_request: AtomicU64::new(1),
        }
    }

    pub fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    pub fn at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_micros() as u64
    }

    fn request_id(&self) -> u64 {
        self.next_request.fetch_add(1, Ordering::Relaxed)
    }

    fn record(
        &self,
        parent: Option<&Span>,
        request: u64,
        name: &str,
        label: &str,
        start: u64,
        end: u64,
    ) -> Span {
        let mut store = self.store.lock().expect("span store poisoned");
        let span = Span {
            id: store.0,
            parent: parent.map(|p| p.id),
            request,
            name: name.to_owned(),
            label: label.to_owned(),
            start_us: start,
            end_us: end,
        };
        store.0 += 1;
        store.1.push(span.clone());
        span
    }

    /// Nest a profile's flat spans under `parent`.
    fn nest(&self, parent: &Span, profile: &QueryProfile) {
        let flat: Vec<FlatSpan> = profile
            .spans()
            .into_iter()
            .map(|s| FlatSpan {
                name: s.name,
                label: s.label,
                micros: s.micros,
            })
            .collect();
        let mut store = self.store.lock().expect("span store poisoned");
        let nested = stats::nest_profile(parent, &flat, &mut store.0);
        store.1.extend(nested);
    }

    fn snapshot(&self) -> Vec<Span> {
        self.store.lock().expect("span store poisoned").1.clone()
    }

    /// Write every span as one JSON object per line.
    pub fn write(&self, path: &str) -> Result<()> {
        if let Some(dir) = std::path::Path::new(path).parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.snapshot() {
            writeln!(
                out,
                "{{\"id\": {}, \"parent\": {}, \"request\": {}, \"name\": \"{}\", \"label\": \"{}\", \"start_us\": {}, \"end_us\": {}}}",
                s.id,
                s.parent.map_or("null".to_owned(), |p| p.to_string()),
                s.request,
                s.name,
                s.label.replace('"', "'"),
                s.start_us,
                s.end_us
            )?;
        }
        out.flush()?;
        Ok(())
    }
}

/// A loopback peer that echoes every frame back, standing in for the
/// socket between server and client in the traced chain.
pub struct Echo {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    acceptor: JoinHandle<()>,
}

impl Echo {
    pub fn start(max_conns: usize) -> Result<Echo> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let flag = stop.clone();
        let acceptor = std::thread::spawn(move || {
            let mut conns = Vec::new();
            while !flag.load(Ordering::SeqCst) && conns.len() < max_conns {
                match listener.accept() {
                    Ok((s, _)) => conns.push(std::thread::spawn(move || echo(s))),
                    Err(_) => std::thread::sleep(Duration::from_millis(1)),
                }
            }
            for c in conns {
                let _ = c.join();
            }
        });
        Ok(Echo {
            addr,
            stop,
            acceptor,
        })
    }

    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting and wait for every echo connection to close.
    pub fn stop(self) {
        self.stop.store(true, Ordering::SeqCst);
        let _ = self.acceptor.join();
    }
}

fn echo(stream: TcpStream) {
    let _ = stream.set_nonblocking(false);
    let _ = stream.set_nodelay(true);
    let Ok(mut w) = stream.try_clone() else {
        return;
    };
    let mut r = stream;
    while let Ok(Some(frame)) = read_frame(&mut r, MAX_FRAME_BYTES) {
        if write_frame(&mut w, &frame).is_err() {
            break;
        }
    }
}

struct Schemas(Arc<eon_catalog::CatalogState>);

impl eon_sql::SchemaSource for Schemas {
    fn table_schema(&self, name: &str) -> Result<Schema> {
        self.0
            .table_by_name(name)
            .map(|t| t.schema.clone())
            .ok_or_else(|| EonError::UnknownTable(name.to_owned()))
    }
}

/// One read request as the chain of calls the server makes, each in a
/// span: compile, distributed query (with its profile nested), response
/// encode, a frame round trip over loopback, response decode.
pub fn traced_request(
    db: &EonDb,
    tracer: &Tracer,
    conn: &mut TcpStream,
    stmt: &Stmt,
) -> Result<Vec<Vec<Value>>> {
    let request = tracer.request_id();
    let t0 = tracer.now_us();
    let (plan, columns) = eon_sql::compile_with_columns(&stmt.sql, &Schemas(db.snapshot()?))?;
    let t1 = tracer.now_us();
    let (rows, profile) = db.query_profiled(&plan, &SessionOpts::default())?;
    let t2 = tracer.now_us();
    let payload = Response::Rows { columns, rows }.encode();
    let t3 = tracer.now_us();
    write_frame(conn, &payload)?;
    let echoed = read_frame(conn, MAX_FRAME_BYTES)?
        .ok_or_else(|| EonError::NodeDown("echo peer closed".into()))?;
    let t4 = tracer.now_us();
    let response = Response::decode(&echoed)?;
    let t5 = tracer.now_us();

    let root = tracer.record(None, request, "request", stmt.shape.name(), t0, t5);
    tracer.record(Some(&root), request, "sql.compile", "", t0, t1);
    let query = tracer.record(Some(&root), request, "core.query", "", t1, t2);
    tracer.nest(&query, &profile);
    tracer.record(
        Some(&root),
        request,
        "net.encode",
        &payload.len().to_string(),
        t2,
        t3,
    );
    tracer.record(Some(&root), request, "net.frame_round_trip", "", t3, t4);
    tracer.record(Some(&root), request, "net.decode", "", t4, t5);
    match response {
        Response::Rows { rows, .. } => Ok(rows),
        other => Err(EonError::Query(format!("unexpected response {other:?}"))),
    }
}

/// Everything the per-layer metrics are computed from.
pub struct LayerInputs<'a> {
    pub db: &'a EonDb,
    pub clients: &'a mut [EonClient],
    pub stmts: &'a [Stmt],
    pub untraced: &'a QueryLog,
    pub traced: &'a QueryLog,
    pub writer: &'a WriterLog,
    /// Counter movement over the read window.
    pub window: Delta,
    /// Counter movement while the writer ran.
    pub writes: Delta,
    pub total_user_bytes: u64,
    pub error_rate: f64,
}

fn med(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        stats::median(v)
    }
}

fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

fn finite(v: &[f64]) -> Vec<f64> {
    v.iter().copied().filter(|x| x.is_finite()).collect()
}

/// Median wall time of `f` over `n` calls, in microseconds.
fn time_us(n: usize, mut f: impl FnMut() -> Result<()>) -> Result<f64> {
    let mut v = Vec::with_capacity(n);
    for _ in 0..n {
        let t = Instant::now();
        f()?;
        v.push(t.elapsed().as_secs_f64() * 1e6);
    }
    Ok(med(&v))
}

/// Per-request facts pulled from the span tree.
#[derive(Default)]
struct RequestFacts {
    shape: String,
    by_name: BTreeMap<String, f64>,
    local_max: f64,
    slot_wait_max: f64,
    scan_max: f64,
    response_bytes: f64,
}

fn request_facts(spans: &[Span]) -> Vec<RequestFacts> {
    let mut by_req: BTreeMap<u64, RequestFacts> = BTreeMap::new();
    let mut scans: HashMap<(u64, String), f64> = HashMap::new();
    for s in spans {
        let f = by_req.entry(s.request).or_default();
        let d = s.dur_us() as f64;
        match s.name.as_str() {
            "request" => f.shape = s.label.clone(),
            "local_phase" => f.local_max = f.local_max.max(d),
            "slot_wait" => f.slot_wait_max = f.slot_wait_max.max(d),
            "scan_pipeline" => {
                let node = s.label.split(':').next().unwrap_or("").to_owned();
                *scans.entry((s.request, node)).or_default() += d;
            }
            "net.encode" => f.response_bytes = s.label.parse().unwrap_or(0.0),
            _ => {}
        }
        *f.by_name.entry(s.name.clone()).or_default() += d;
    }
    for ((req, _), d) in scans {
        let f = by_req.entry(req).or_default();
        f.scan_max = f.scan_max.max(d);
    }
    by_req
        .into_values()
        .filter(|f| !f.shape.is_empty())
        .collect()
}

/// Decode every container of `sales` and aggregate the decoded rows by
/// group the way a participant does: (decode ns per row, partial
/// aggregate ns per row, merge of the per-container partials in us).
fn replay(db: &EonDb) -> Result<(f64, f64, f64)> {
    let snap = db.snapshot()?;
    let table = snap
        .table_by_name("sales")
        .ok_or_else(|| EonError::UnknownTable("sales".into()))?;
    let local = MemFs::new();
    let keys: Vec<String> = snap
        .containers
        .values()
        .filter(|c| c.table == table.oid)
        .map(|c| c.key.clone())
        .collect();
    for k in &keys {
        local.write(k, db.shared().read(k)?)?;
    }
    let aggs = [
        AggSpec::new(AggFunc::CountStar, Expr::col(0)),
        AggSpec::sum(Expr::col(2)),
    ];
    let (mut decode, mut agg, mut rows_total) = (Duration::ZERO, Duration::ZERO, 0u64);
    let mut partials = Vec::new();
    for k in &keys {
        let reader = RosReader::open(&local, k)?;
        let mut columns: Vec<Vec<Value>> = Vec::new();
        for col in 0..reader.column_count() {
            let keep = vec![true; reader.footer().columns[col].blocks.len()];
            let mut io = eon_columnar::ReadStats::default();
            let blocks = reader.read_column_blocks_encoded(&local, col, &keep, None, &mut io)?;
            let t = Instant::now();
            let values: Vec<Value> = blocks.iter().flatten().flat_map(|b| b.decode()).collect();
            decode += t.elapsed();
            columns.push(std::hint::black_box(values));
        }
        let n = reader.total_rows() as usize;
        rows_total += n as u64;
        let rows: Vec<Vec<Value>> = (0..n)
            .map(|i| columns.iter().map(|c| c[i].clone()).collect())
            .collect();
        let t = Instant::now();
        partials.push(aggregate_partial(&rows, &[1], &aggs)?);
        agg += t.elapsed();
    }
    let t = Instant::now();
    std::hint::black_box(merge_partials(partials, &aggs));
    let merge = t.elapsed();
    let per_row = |d: Duration| d.as_secs_f64() * 1e9 / rows_total.max(1) as f64;
    Ok((per_row(decode), per_row(agg), merge.as_secs_f64() * 1e6))
}

/// The per-layer metrics of a traced run.
pub fn per_layer(tracer: &Tracer, x: LayerInputs) -> Result<Vec<Metric>> {
    // Load and mergeout profiles become span trees of their own.
    for (start, end, name, profile) in &x.writer.profiles {
        let root = tracer.record(None, tracer.request_id(), name, "", *start, *end);
        tracer.nest(&root, profile);
    }
    let spans = tracer.snapshot();
    let facts = request_facts(&spans);
    let facts_requests: std::collections::BTreeSet<u64> = spans
        .iter()
        .filter(|s| s.name == "request")
        .map(|s| s.request)
        .collect();
    let of = |name: &str| -> Vec<f64> {
        facts
            .iter()
            .map(|f| f.by_name.get(name).copied().unwrap_or(0.0))
            .collect()
    };

    // Coverage: the share of each read request's time that layer spans
    // account for. What they leave uncovered is the self time of the
    // bench's own wrappers: the request root, and the part of
    // `core.query` that the program's profile spans do not cover.
    let self_t = stats::self_times(&spans);
    let requests: Vec<(&Span, u64)> = spans
        .iter()
        .zip(self_t)
        .filter(|(s, _)| {
            facts_requests.contains(&s.request)
                && matches!(s.name.as_str(), "request" | "core.query")
        })
        .collect();
    let total: f64 = requests
        .iter()
        .filter(|(s, _)| s.name == "request")
        .map(|(s, _)| s.dur_us() as f64)
        .sum();
    let uncovered: f64 = requests.iter().map(|(_, t)| *t as f64).sum();
    let coverage = 1.0 - uncovered / total.max(1.0);
    let untraced_p50 = med(&finite(&x.untraced.latencies()));
    let traced_p50 = med(&finite(&x.traced.latencies()));

    // Net: the row-returning statement where the mix has one.
    let net_stmt = x
        .stmts
        .iter()
        .find(|s| s.shape == Shape::Filter)
        .unwrap_or(&x.stmts[0]);
    let net_facts: Vec<&RequestFacts> = facts
        .iter()
        .filter(|f| f.shape == net_stmt.shape.name())
        .collect();
    let net_of = |name: &str| -> f64 {
        med(&net_facts
            .iter()
            .map(|f| f.by_name.get(name).copied().unwrap_or(0.0))
            .collect::<Vec<_>>())
    };
    let (mut client_us, mut server_us) = (Vec::new(), Vec::new());
    for _ in 0..8 {
        let t = Instant::now();
        wire_sql(&mut x.clients[0], &net_stmt.sql)?;
        client_us.push(t.elapsed().as_secs_f64() * 1e6);
        let t = Instant::now();
        x.db.sql_query(&net_stmt.sql, &SessionOpts::default())?;
        server_us.push(t.elapsed().as_secs_f64() * 1e6);
    }

    // Single-layer calls.
    let participation_us = time_us(200, || {
        x.db.participation(&SessionOpts::default()).map(|_| ())
    })?;
    // The smallest container: it fits even a small depot, so the second
    // read of it is a hit.
    let snap = x.db.snapshot()?;
    let key = snap
        .containers
        .values()
        .min_by_key(|c| (c.size_bytes, c.oid))
        .map(|c| c.key.clone())
        .ok_or_else(|| EonError::Internal("no containers".into()))?;
    let s3_get_us = time_us(20, || x.db.shared().read(&key).map(|_| ()))?;
    let up = x.db.membership().up_ids();
    let node =
        x.db.membership()
            .get(up[0])
            .ok_or_else(|| EonError::Internal("no live node".into()))?;
    node.cache.read_with(&key, CacheMode::Normal)?;
    let read_hit_us = time_us(200, || {
        node.cache.read_with(&key, CacheMode::Normal).map(|_| ())
    })?;
    let (decode_ns, agg_ns, merge_us) = replay(x.db)?;

    let w = &x.window;
    let queries = (x.untraced.samples.len() + x.traced.samples.len()).max(1) as f64;
    let per_q = |name: &str| w.get(name) / queries;
    let (hits, misses) = (w.get("depot_hits_total"), w.get("depot_misses_total"));
    let read_verbs = ["get", "select", "list"]
        .iter()
        .map(|v| w.with("s3_requests_total", &format!("verb=\"{v}\"")))
        .sum::<f64>();
    let blocks_skipped =
        w.get("scan_blocks_pruned_total") + w.get("scan_blocks_late_skipped_total");
    let blocks_read = w.get("scan_encoded_blocks_total");
    let copies = x.writer.acked_copies.max(1) as f64;
    let load = |name: &str| -> f64 {
        med(&x
            .writer
            .profiles
            .iter()
            .flat_map(|(_, _, _, p)| p.spans())
            .filter(|s| s.name == name)
            .map(|s| s.micros as f64)
            .collect::<Vec<_>>())
    };
    let lateness: Vec<f64> = x
        .writer
        .ops
        .iter()
        .map(|o| o.lateness_us() as f64 / 1e3)
        .collect();

    Ok(vec![
        metric("net.overhead_us", "us", med(&client_us) - med(&server_us)),
        metric("net.response_encode_us", "us", net_of("net.encode")),
        metric("net.response_decode_us", "us", net_of("net.decode")),
        metric(
            "net.response_bytes",
            "B",
            med(&net_facts
                .iter()
                .map(|f| f.response_bytes)
                .collect::<Vec<_>>()),
        ),
        metric("sql.compile_us", "us", med(&of("sql.compile"))),
        metric("shard.participation_us", "us", participation_us),
        metric("core.query_us", "us", med(&of("core.query"))),
        metric(
            "core.local_phase_us",
            "us",
            med(&facts.iter().map(|f| f.local_max).collect::<Vec<_>>()),
        ),
        metric(
            "core.scan_pipeline_us",
            "us",
            med(&facts.iter().map(|f| f.scan_max).collect::<Vec<_>>()),
        ),
        metric(
            "core.coordinator_merge_us",
            "us",
            med(&of("coordinator_merge")),
        ),
        metric(
            "core.failovers",
            "count",
            w.get("coordinator_failovers_total"),
        ),
        metric("core.admission_wait_us", "us", mean(&of("admission_wait"))),
        metric(
            "cluster.slot_wait_us",
            "us",
            mean(&facts.iter().map(|f| f.slot_wait_max).collect::<Vec<_>>()),
        ),
        metric(
            "cluster.slot_acquisitions_per_query",
            "count",
            per_q("exec_slot_acquisitions_total"),
        ),
        metric(
            "cache.hit_ratio",
            "ratio",
            if hits + misses > 0.0 {
                hits / (hits + misses)
            } else {
                1.0
            },
        ),
        metric("cache.misses_per_query", "count", misses / queries),
        metric(
            "cache.evictions_per_query",
            "count",
            per_q("depot_evictions_total"),
        ),
        metric(
            "cache.singleflight_waits",
            "count",
            w.get("depot_singleflight_waits_total"),
        ),
        metric("cache.read_hit_us", "us", read_hit_us),
        metric(
            "storage.s3_requests_per_query",
            "count",
            read_verbs / queries,
        ),
        metric("storage.s3_get_us", "us", s3_get_us),
        metric(
            "storage.s3_puts_per_copy",
            "count",
            x.writes.with("s3_requests_total", "verb=\"put\"") / copies,
        ),
        metric(
            "storage.s3_retries",
            "count",
            w.get("s3_retries_total") + x.writes.get("s3_retries_total"),
        ),
        metric(
            "pushdown.selects_per_query",
            "count",
            per_q("scan_pushdown_selects_total"),
        ),
        metric(
            "pushdown.fallbacks_per_query",
            "count",
            per_q("scan_pushdown_fallbacks_total"),
        ),
        metric(
            "pushdown.bytes_saved_per_query",
            "B",
            per_q("scan_pushdown_bytes_saved_total"),
        ),
        metric("columnar.decode_ns_per_row", "ns/row", decode_ns),
        metric(
            "columnar.blocks_skipped_ratio",
            "ratio",
            blocks_skipped / (blocks_skipped + blocks_read).max(1.0),
        ),
        metric(
            "columnar.rows_short_circuited_per_query",
            "count",
            per_q("scan_rows_short_circuited_total"),
        ),
        metric("exec.partial_agg_ns_per_row", "ns/row", agg_ns),
        metric("exec.merge_partials_us", "us", merge_us),
        metric("load.pipeline_us", "us", load("load_pipeline")),
        metric("load.upload_fanout_us", "us", load("load_upload_fanout")),
        metric("load.commit_us", "us", load("load_commit")),
        metric("load.copies_acked", "count", x.writer.acked_copies as f64),
        metric(
            "catalog.appends_per_statement",
            "count",
            x.writes.get("commit_appends_total") / x.writes.get("commit_statements_total").max(1.0),
        ),
        metric("tm.mergeout_us", "us", med(&x.writer.mergeout_ms) * 1e3),
        metric("tm.mergeout_jobs", "count", x.writer.mergeout_jobs as f64),
        metric(
            "tm.bytes_rewritten_per_user_byte",
            "B/B",
            x.writes.get("tm_mergeout_bytes_rewritten_total") / x.total_user_bytes as f64,
        ),
        metric("gen.lag_ms", "ms", mean(&lateness)),
        metric("trace.coverage", "ratio", coverage),
        metric(
            "trace.overhead_pct",
            "%",
            (traced_p50 - untraced_p50) / untraced_p50 * 100.0,
        ),
        metric("error_rate", "ratio", x.error_rate),
    ])
}
