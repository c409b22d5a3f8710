//! The three workloads: set-up, the timed window, the COPY writer and
//! the output checks.

use std::collections::BTreeMap;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use eon_core::EonDb;
use eon_net::{EonClient, EonServer, ServerHandle, ServerOpts, SqlOutcome};
use eon_obs::QueryProfile;
use eon_types::{EonError, Result, Value};

use crate::cluster::{self, Cluster, Delta, Setup};
use crate::gen::{self, Cycle, Params, Rng, Shape, Stmt};
use crate::stats::{self, OpenLoopOp};
use crate::trace::{self, Tracer};
use crate::{metric, Outcome};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Reads over the wire with one connection in a closed loop on a
    /// table that fits the depot many times over: the CPU-bound query
    /// path does all the work, storage and depot none.
    WarmDashboard,
    /// The same shapes with one connection on a wide table loaded in
    /// many small COPYs, every depot emptied before each statement:
    /// depot misses, S3 GETs and SELECTs carry the latency.
    ColdScan,
    /// One open-loop COPY writer beside one closed-loop reader: the
    /// only workload that drives the load pipeline, catalog commit and
    /// mergeout while queries run.
    IngestMixed,
}

/// The open-loop COPY writer beside the reader of `ingest_mixed`:
/// 25 COPY/s of `BATCH_ROWS` rows each, and every `MERGEOUT_EVERY`th
/// COPY, when it falls due, first waits for a mergeout pass. The COPY
/// behind a mergeout (one in ten) waits for all of it, so the 95th
/// percentile reads the typical Tuple Mover stall and the median an
/// undisturbed COPY. One batch size keeps each population in one
/// piece: with 1-row batches among 100-row ones, the median fell in
/// the gap between them.
const WRITER_INTERVAL_US: u64 = 40_000;
const BATCH_ROWS: usize = 100;
const MERGEOUT_EVERY: u64 = 10;
/// The COPY probe of the read-only workloads: COPYs sent one after
/// another while no statement runs, in rounds of `PROBE_ROUND` into a
/// freshly created `PROBE_TABLE` (every COPY adds containers and the
/// next one commits against a larger catalog; fresh rounds keep that
/// count steady, as mergeout does on `ingest_mixed`). Untraced, the
/// rounds are spread evenly over the read window, so the COPY samples
/// see the host over the whole run as the query samples do; traced,
/// they run after it, so the window's counters hold reads only.
/// Batches are 100 rows and every tenth is 10 000 rows, so the median
/// reads the typical small COPY and the 95th percentile the typical
/// bulk one: each falls inside one cluster of batch sizes, where a
/// tail percentile of small COPYs would read the host's scheduling
/// noise. 400 COPYs put 20 samples beyond the 95th percentile.
const PROBE_BATCH_ROWS: [usize; 10] = [100, 100, 100, 100, 10_000, 100, 100, 100, 100, 100];
const PROBE_ROUND: usize = 40;
const PROBE_ROUNDS: usize = 10;
const PROBE_TABLE: &str = "copy_probe";
/// Reader connections, on every workload. With two, `cold_scan`'s
/// latencies measured the two connections' interleaving on the host's
/// two cores as much as the program.
const CONNECTIONS: usize = 1;
/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Passes over the statement mix on every connection before timing.
const WARMUP_PASSES: usize = 2;
/// Share of a traced run's window spent untraced over the wire; the
/// rest runs the traced call chain.
const UNTRACED_SHARE: f64 = 0.4;
/// Query answers an untraced window collects at least: 11 lie beyond
/// the 95th percentile.
const MIN_QUERY_SAMPLES: usize = 220;

impl Workload {
    pub fn parse(s: &str) -> std::result::Result<Self, String> {
        match s {
            "warm_dashboard" => Ok(Workload::WarmDashboard),
            "cold_scan" => Ok(Workload::ColdScan),
            "ingest_mixed" => Ok(Workload::IngestMixed),
            other => Err(format!("unknown workload {other}")),
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::WarmDashboard => "warm_dashboard",
            Workload::ColdScan => "cold_scan",
            Workload::IngestMixed => "ingest_mixed",
        }
    }

    pub fn setup(self) -> Setup {
        match self {
            Workload::WarmDashboard => Setup {
                rows: 200_000,
                load_batches: 1,
                with_note: false,
                depot_bytes: None,
                commit_append_us: 0,
            },
            // 30 COPYs leave 90 containers of about 1000 rows: each big
            // enough (its `note` column alone passes 32 KiB) for pushdown
            // to engage, and few enough that one connection finishes the
            // 200-odd queries a 95th percentile needs in one window. The
            // depot keeps its default size and is emptied before every
            // statement instead (see `empties_depots`).
            Workload::ColdScan => Setup {
                rows: 90_000,
                load_batches: 30,
                with_note: true,
                depot_bytes: None,
                commit_append_us: 0,
            },
            // The durable catalog-log append is modelled at 200 us per
            // commit, the value the commit ablation uses.
            Workload::IngestMixed => Setup {
                rows: 200_000,
                load_batches: 1,
                with_note: false,
                depot_bytes: None,
                commit_append_us: 200,
            },
        }
    }

    /// The statement cycle each connection runs.
    pub fn mix(self) -> Vec<Shape> {
        use Shape::*;
        match self {
            // SUM runs twice per cycle so that the median falls inside
            // one statement's latencies rather than in the gap between
            // two statements that each take half the samples.
            Workload::WarmDashboard | Workload::ColdScan => {
                vec![Sum, Count, Filter, GroupBy, Sum, Join, Range]
            }
            Workload::IngestMixed => vec![Count, Sum, Range],
        }
    }

    /// Every statement starts on empty depots and faults in (or pushes
    /// down) all it reads. A depot smaller than the data, thrashing
    /// under concurrent scans, would do the same work, but there a
    /// concurrent eviction can turn a depot hit into a `NOT_FOUND`
    /// failure (`FileCache::read_range` reads the local copy after
    /// releasing its lock), and the number of such failures differs
    /// from run to run.
    fn empties_depots(self) -> bool {
        self == Workload::ColdScan
    }

    fn concurrent_writer(self) -> bool {
        self == Workload::IngestMixed
    }
}

/// Checks every answer a reader sees.
pub struct Checker<'a> {
    refs: &'a BTreeMap<Shape, Vec<Vec<Value>>>,
    /// Rows are being appended: COUNT and SUM may only grow, and only
    /// answers over the initial rows are exact.
    growing: bool,
    last: BTreeMap<Shape, Vec<Vec<Value>>>,
}

impl<'a> Checker<'a> {
    pub fn new(refs: &'a BTreeMap<Shape, Vec<Vec<Value>>>, growing: bool) -> Self {
        Checker {
            refs,
            growing,
            last: BTreeMap::new(),
        }
    }

    /// `None` when `rows` is a correct answer to `shape`.
    pub fn check(&mut self, shape: Shape, rows: Vec<Vec<Value>>) -> Option<String> {
        let rows = gen::canonical(rows);
        let want = &self.refs[&shape];
        let ok = if self.growing && matches!(shape, Shape::Count | Shape::Sum) {
            // The initial answer is the floor, the previous one seen on
            // this connection must not be above the new one.
            let floor = self.last.get(&shape).unwrap_or(want);
            rows.len() == 1 && rows[0].len() == 1 && rows[0][0] >= floor[0][0]
        } else {
            &rows == want
        };
        if ok {
            self.last.insert(shape, rows);
            None
        } else {
            Some(format!(
                "{}: got {:?}, want {}{:?}",
                shape.name(),
                truncated(&rows),
                if self.growing { "at least " } else { "" },
                truncated(self.last.get(&shape).unwrap_or(want))
            ))
        }
    }
}

fn truncated(rows: &[Vec<Value>]) -> String {
    let s = format!("{rows:?}");
    if s.len() > 200 {
        format!("{}… ({} rows)", &s[..200], rows.len())
    } else {
        s
    }
}

/// Outcomes of one reader's statements.
#[derive(Default)]
pub struct QueryLog {
    /// (shape, latency ms); a failed statement is `f64::INFINITY`.
    pub samples: Vec<(Shape, f64)>,
    pub failed: u64,
    /// Typed failures by wire code.
    pub codes: BTreeMap<u16, u64>,
    pub mismatches: Vec<String>,
}

impl QueryLog {
    fn record(&mut self, shape: Shape, ms: f64, result: Result<Vec<Vec<Value>>>, ck: &mut Checker) {
        match result {
            Ok(rows) => {
                self.samples.push((shape, ms));
                if let Some(m) = ck.check(shape, rows) {
                    self.mismatches.push(m);
                }
            }
            Err(e) => self.fail(shape, &e),
        }
    }

    fn fail(&mut self, shape: Shape, e: &EonError) {
        self.samples.push((shape, f64::INFINITY));
        self.failed += 1;
        *self.codes.entry(e.wire_code()).or_default() += 1;
    }

    fn merge(&mut self, other: QueryLog) {
        self.samples.extend(other.samples);
        self.failed += other.failed;
        for (k, v) in other.codes {
            *self.codes.entry(k).or_default() += v;
        }
        self.mismatches.extend(other.mismatches);
    }

    pub fn latencies(&self) -> Vec<f64> {
        self.samples.iter().map(|s| s.1).collect()
    }

    pub fn ok(&self) -> u64 {
        self.samples.len() as u64 - self.failed
    }
}

/// What runs before each read statement: on `cold_scan`, emptying every
/// depot. It stays outside the statement's latency.
fn before_statement(w: Workload, db: &EonDb) -> Result<()> {
    if w.empties_depots() {
        cluster::empty_depots(db)
    } else {
        Ok(())
    }
}

/// One statement over the wire.
pub fn wire_sql(client: &mut EonClient, sql: &str) -> Result<Vec<Vec<Value>>> {
    match client.sql(sql)? {
        SqlOutcome::Rows { rows, .. } => Ok(rows),
        other => Err(EonError::Query(format!("unexpected response {other:?}"))),
    }
}

/// A running cluster with its server and open client connections.
pub struct Env {
    pub cluster: Cluster,
    pub server: ServerHandle,
    pub clients: Vec<EonClient>,
}

impl Env {
    /// Build, load, serve and warm up: everything before timing starts.
    fn start(
        w: Workload,
        rows: &[Vec<Value>],
        stmts: &[Stmt],
        log: &mut QueryLog,
        ck: &mut Checker,
    ) -> Result<Env> {
        let cluster = cluster::build(&w.setup(), rows)?;
        // Compile every statement once in process, so a statement the
        // engine cannot plan fails the set-up, not the window.
        for s in stmts {
            cluster.db.sql_explain(&s.sql)?;
        }
        let server =
            EonServer::bind(cluster.db.clone(), "127.0.0.1:0", ServerOpts::default())?.spawn();
        let mut clients = (0..CONNECTIONS)
            .map(|_| EonClient::connect(server.addr()))
            .collect::<Result<Vec<_>>>()?;
        for client in &mut clients {
            for _ in 0..WARMUP_PASSES {
                for s in stmts {
                    let r = before_statement(w, &cluster.db);
                    let t = Instant::now();
                    let r = r.and_then(|()| wire_sql(client, &s.sql));
                    log.record(s.shape, t.elapsed().as_secs_f64() * 1e3, r, ck);
                }
            }
        }
        Ok(Env {
            cluster,
            server,
            clients,
        })
    }

    /// Disconnect, stop the server and wait for its sessions to end.
    fn stop(mut self) {
        self.clients.clear();
        self.server.stop();
        let deadline = Instant::now() + Duration::from_secs(10);
        while self.server.active_sessions() > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
    }
}

/// A measuring window shared by the readers and the writer beside them.
struct Window {
    start: Instant,
    min: Duration,
    max: Duration,
    /// Answers the readers must have together before the window may
    /// close at `min`.
    min_samples: usize,
    samples: AtomicUsize,
    closed: AtomicBool,
}

impl Window {
    fn new(start: Instant, min: Duration, max: Duration, min_samples: usize) -> Self {
        Window {
            start,
            min,
            max,
            min_samples,
            samples: AtomicUsize::new(0),
            closed: AtomicBool::new(false),
        }
    }

    /// Whether to send another statement.
    fn open(&self) -> bool {
        if self.closed.load(Ordering::Relaxed) {
            return false;
        }
        let e = self.start.elapsed();
        let enough = self.samples.load(Ordering::Relaxed) >= self.min_samples;
        let done = e >= self.max || (e >= self.min && enough);
        if done {
            self.closed.store(true, Ordering::Relaxed);
        }
        !done
    }
}

/// Closed-loop reader over one connection while `window` is open,
/// running the COPY probe's rounds, if it has one, at evenly spaced
/// times between statements.
#[allow(clippy::too_many_arguments)]
fn read_wire(
    w: Workload,
    db: &EonDb,
    client: &mut EonClient,
    stmts: &[Stmt],
    order: &mut Cycle,
    window: &Window,
    mut probe: Option<&mut Probe>,
    ck: &mut Checker,
) -> Result<QueryLog> {
    let mut log = QueryLog::default();
    while window.open() {
        if let Some(probe) = probe.as_deref_mut() {
            let due = window
                .min
                .mul_f64((probe.rounds as f64 + 0.5) / PROBE_ROUNDS as f64);
            if probe.rounds < PROBE_ROUNDS && window.start.elapsed() >= due {
                probe.round(db, None)?;
                continue;
            }
        }
        let s = &stmts[order.next_index()];
        let r = before_statement(w, db);
        let t = Instant::now();
        let r = r.and_then(|()| wire_sql(client, &s.sql));
        log.record(s.shape, t.elapsed().as_secs_f64() * 1e3, r, ck);
        window.samples.fetch_add(1, Ordering::Relaxed);
    }
    Ok(log)
}

/// What the open-loop COPY writer saw.
#[derive(Default)]
pub struct WriterLog {
    pub ops: Vec<OpenLoopOp>,
    /// COPY latency from due time to ack, ms; failures are infinite.
    pub latencies: Vec<f64>,
    /// Rows of each COPY, aligned with `latencies`.
    pub batch_rows: Vec<usize>,
    pub failed: u64,
    pub codes: BTreeMap<u16, u64>,
    pub acked_copies: u64,
    pub acked_rows: i64,
    pub acked_sum: i64,
    pub acked_user_bytes: u64,
    pub mergeout_ms: Vec<f64>,
    pub mergeout_jobs: u64,
    pub mergeout_failed: u64,
    /// Load and mergeout profiles when traced: (root start us, root
    /// end us, name, profile).
    pub profiles: Vec<(u64, u64, &'static str, QueryProfile)>,
}

/// The COPY probe of the read-only workloads (see `PROBE_ROUND`).
struct Probe {
    rng: Rng,
    with_note: bool,
    rounds: usize,
    /// Wall time spent in rounds, s.
    seconds: f64,
    log: WriterLog,
    mismatches: Vec<String>,
}

impl Probe {
    fn new(seed: u64, with_note: bool) -> Self {
        Probe {
            rng: Rng::new(seed ^ 0x0b0b_0b0b),
            with_note,
            rounds: 0,
            seconds: 0.0,
            log: WriterLog::default(),
            mismatches: Vec::new(),
        }
    }

    /// One round: create the table, COPY into it, check it, drop it.
    fn round(&mut self, db: &EonDb, tracer: Option<&Tracer>) -> Result<()> {
        let started = Instant::now();
        let (rng, with_note, log) = (&mut self.rng, self.with_note, &mut self.log);
        cluster::create_sales_table(db, PROBE_TABLE, with_note)?;
        let (mut rows, mut sum) = (0, 0);
        for k in 0..PROBE_ROUND {
            let batch: Vec<Vec<Value>> = (0..PROBE_BATCH_ROWS[k % PROBE_BATCH_ROWS.len()])
                .map(|_| {
                    rows += 1;
                    gen::sales_row(rng, rows, with_note)
                })
                .collect();
            let batch_sum = gen::price_sum(&batch);
            log.batch_rows.push(batch.len());
            let t = Instant::now();
            let t0 = tracer.map(|tr| tr.now_us());
            let result = match (tracer, t0) {
                (Some(tr), Some(t0)) => db.copy_into_profiled(PROBE_TABLE, batch).map(|(_, p)| {
                    log.profiles.push((t0, tr.now_us(), "copy", p));
                }),
                _ => db.copy_into(PROBE_TABLE, batch).map(|_| ()),
            };
            match result {
                Ok(()) => {
                    log.latencies.push(t.elapsed().as_secs_f64() * 1e3);
                    log.acked_copies += 1;
                    sum += batch_sum;
                }
                Err(e) => {
                    log.latencies.push(f64::INFINITY);
                    log.failed += 1;
                    *log.codes.entry(e.wire_code()).or_default() += 1;
                }
            }
        }
        let want = vec![vec![Value::Int(rows), Value::Int(sum)]];
        match db.sql(&format!("SELECT COUNT(*), SUM(price) FROM {PROBE_TABLE}")) {
            Ok(got) if got == want => {}
            Ok(got) => self
                .mismatches
                .push(format!("{PROBE_TABLE}: got {got:?}, want {want:?}")),
            Err(e) => self.mismatches.push(format!("{PROBE_TABLE}: {e}")),
        }
        db.drop_table(PROBE_TABLE)?;
        self.rounds += 1;
        self.seconds += started.elapsed().as_secs_f64();
        Ok(())
    }
}

/// One timed mergeout pass.
fn mergeout(db: &EonDb, tracer: Option<&Tracer>, log: &mut WriterLog) {
    let t = Instant::now();
    let t0 = tracer.map(|tr| tr.now_us());
    match db.run_mergeout() {
        Ok(jobs) => {
            log.mergeout_jobs += jobs as u64;
            log.mergeout_ms.push(t.elapsed().as_secs_f64() * 1e3);
            if let (Some(tr), Some(t0)) = (tracer, t0) {
                log.profiles
                    .push((t0, tr.now_us(), "tm.mergeout", QueryProfile::new()));
            }
        }
        Err(e) => {
            log.mergeout_failed += 1;
            *log.codes.entry(e.wire_code()).or_default() += 1;
        }
    }
}

/// Open-loop COPY writer into `sales`, its rows generated from `seed`
/// with ids from `first_id`. Each COPY is timed from when it was due,
/// so a stall (a slow commit, a mergeout between sends) also charges
/// the COPYs queued behind it.
fn write_loop(
    db: &EonDb,
    with_note: bool,
    seed: u64,
    first_id: i64,
    window: &Window,
    tracer: Option<&Tracer>,
) -> WriterLog {
    let mut rng = Rng::new(seed ^ 0x00c0_ffee);
    let mut log = WriterLog::default();
    let mut next_id = first_id;
    let start = Instant::now();
    for i in 0u64.. {
        let due = Duration::from_micros(stats::due_us(i, WRITER_INTERVAL_US));
        if !window.open() {
            break;
        }
        let batch: Vec<Vec<Value>> = (0..BATCH_ROWS)
            .map(|_| {
                next_id += 1;
                gen::sales_row(&mut rng, next_id - 1, with_note)
            })
            .collect();
        let (n, sum, bytes) = (
            batch.len() as i64,
            gen::price_sum(&batch),
            gen::user_bytes(&batch),
        );
        log.batch_rows.push(batch.len());
        if let Some(wait) = (start + due).checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        if i > 0 && i % MERGEOUT_EVERY == 0 {
            mergeout(db, tracer, &mut log);
        }
        let sent = start.elapsed();
        let result = match tracer {
            Some(t) => db.copy_into_profiled("sales", batch).map(|(_, p)| {
                let (s, e) = (t.at(start + sent), t.now_us());
                log.profiles.push((s, e, "copy", p));
            }),
            None => db.copy_into("sales", batch).map(|_| ()),
        };
        let acked = start.elapsed();
        match result {
            Ok(()) => {
                let op = OpenLoopOp {
                    due_us: due.as_micros() as u64,
                    sent_us: sent.as_micros() as u64,
                    acked_us: acked.as_micros() as u64,
                };
                log.latencies.push(op.latency_us() as f64 / 1e3);
                log.ops.push(op);
                log.acked_copies += 1;
                log.acked_rows += n;
                log.acked_sum += sum;
                log.acked_user_bytes += bytes;
            }
            Err(e) => {
                log.latencies.push(f64::INFINITY);
                log.failed += 1;
                *log.codes.entry(e.wire_code()).or_default() += 1;
            }
        }
    }
    log
}

/// The table's final COUNT and SUM must equal the initial load plus
/// every acknowledged COPY.
fn final_check(db: &EonDb, count: i64, sum: i64) -> Option<String> {
    let want = vec![vec![Value::Int(count), Value::Int(sum)]];
    match db.sql("SELECT COUNT(*), SUM(price) FROM sales") {
        Ok(rows) if rows == want => None,
        Ok(rows) => Some(format!("final table: got {rows:?}, want {want:?}")),
        Err(e) => Some(format!("final table: {e}")),
    }
}

fn p(samples: &[f64], q: f64, what: &str) -> Result<f64> {
    stats::percentile(samples, q).ok_or_else(|| {
        EonError::Internal(format!(
            "{} samples of {what} cannot support its {}th percentile",
            samples.len(),
            (q * 100.0).round()
        ))
    })
}

fn codes_note(codes: &BTreeMap<u16, u64>) -> String {
    let v: Vec<String> = codes
        .iter()
        .map(|(c, n)| format!("{}={n}", eon_types::WireError::code_name(*c)))
        .collect();
    v.join(",")
}

/// Run one workload and return what to print.
pub fn run(w: Workload, seed: u64, seconds: f64, traced: bool) -> Result<Outcome> {
    let setup = w.setup();
    let mut rng = Rng::new(seed);
    let rows: Vec<Vec<Value>> = (0..setup.rows)
        .map(|id| gen::sales_row(&mut rng, id, setup.with_note))
        .collect();
    let params = Params::new(seed, setup.rows, setup.with_note);
    let refs = gen::reference(&params, &rows);
    let stmts: Vec<Stmt> = w.mix().into_iter().map(|s| params.stmt(s)).collect();
    let initial_user_bytes = gen::user_bytes(&rows) + gen::user_bytes(&gen::regions_rows());

    let mut warmup = QueryLog::default();
    let mut setup_s = Vec::new();
    let mut env: Option<Env> = None;
    for _ in 0..if traced { 1 } else { SETUPS } {
        if let Some(old) = env.take() {
            old.stop();
        }
        let mut ck = Checker::new(&refs, false);
        let t = Instant::now();
        env = Some(Env::start(w, &rows, &stmts, &mut warmup, &mut ck)?);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let mut env = env.expect("at least one set-up ran");
    let db = env.cluster.db.clone();
    let registry = env.cluster.registry.clone();

    let tracer = traced.then(Tracer::new);
    let before = cluster::counters(&registry);
    // Stored bytes of the tables the readers see: for the read-only
    // workloads, those at the start of the window (the COPY probe's
    // tables come and go beside them); on ingest_mixed, those at its end.
    let mut stored_bytes = env.cluster.ledger.stored_bytes();
    let seconds = Duration::from_secs_f64(seconds);
    let started = Instant::now();
    // Untraced, the window lasts `seconds`, longer (up to three times)
    // if that is what it takes to read a 95th percentile. Traced, its
    // first part runs over the wire and the rest as the traced chain.
    let (wire_window, chain_window) = if traced {
        let wire = seconds.mul_f64(UNTRACED_SHARE);
        (
            Window::new(started, wire, wire, 0),
            Window::new(started, seconds, seconds, 0),
        )
    } else {
        let w = Window::new(started, seconds, seconds * 3, MIN_QUERY_SAMPLES);
        (w, Window::new(started, Duration::ZERO, Duration::ZERO, 0))
    };
    let writer_window = if traced { &chain_window } else { &wire_window };
    let echo = if traced {
        Some(trace::Echo::start(CONNECTIONS)?)
    } else {
        None
    };

    // The timed window: readers in a closed loop, and on ingest_mixed
    // the open-loop writer beside them. The first reader runs the COPY
    // probe of the read-only workloads between its statements.
    let mut probe = (!w.concurrent_writer()).then(|| Probe::new(seed, setup.with_note));
    let mut window_probe = if traced { None } else { probe.as_mut() };
    let (untraced_log, traced_log, writer_log) = std::thread::scope(|scope| -> Result<_> {
        let writer = w.concurrent_writer().then(|| {
            let db = db.clone();
            let tracer = tracer.as_ref();
            scope.spawn(move || {
                write_loop(
                    &db,
                    setup.with_note,
                    seed,
                    setup.rows,
                    writer_window,
                    tracer,
                )
            })
        });
        let mut readers = Vec::new();
        for (c, client) in env.clients.iter_mut().enumerate() {
            let (stmts, refs, db) = (&stmts, &refs, db.clone());
            let tracer = tracer.as_ref();
            let echo_addr = echo.as_ref().map(|e| e.addr());
            let (wire_window, chain_window) = (&wire_window, &chain_window);
            let probe = window_probe.take();
            readers.push(scope.spawn(move || -> Result<(QueryLog, QueryLog)> {
                let mut ck = Checker::new(refs, w.concurrent_writer());
                let mut order = Cycle::new(stmts.len(), seed ^ (0x5eed_0000 + c as u64));
                let wire = read_wire(
                    w,
                    &db,
                    client,
                    stmts,
                    &mut order,
                    wire_window,
                    probe,
                    &mut ck,
                )?;
                let mut chain = QueryLog::default();
                if let (Some(tracer), Some(addr)) = (tracer, echo_addr) {
                    let mut conn = TcpStream::connect(addr)?;
                    conn.set_nodelay(true)?;
                    while chain_window.open() {
                        let s = &stmts[order.next_index()];
                        let r = before_statement(w, &db);
                        let t = Instant::now();
                        let r = r.and_then(|()| trace::traced_request(&db, tracer, &mut conn, s));
                        chain.record(s.shape, t.elapsed().as_secs_f64() * 1e3, r, &mut ck);
                    }
                }
                Ok((wire, chain))
            }));
        }
        let (mut wire, mut chain) = (QueryLog::default(), QueryLog::default());
        for r in readers {
            let (a, b) = r.join().expect("reader thread panicked")?;
            wire.merge(a);
            chain.merge(b);
        }
        let wlog = writer.map(|h| h.join().expect("writer thread panicked"));
        Ok((wire, chain, wlog))
    })?;
    let window_s = started.elapsed().as_secs_f64();
    let read_s = window_s - probe.as_ref().map_or(0.0, |p| p.seconds);
    let after_window = cluster::counters(&registry);
    if w.concurrent_writer() {
        stored_bytes = env.cluster.ledger.stored_bytes();
    }
    if let Some(e) = echo {
        e.stop();
    }

    let mut mismatches = warmup.mismatches.clone();
    mismatches.extend(untraced_log.mismatches.iter().cloned());
    mismatches.extend(traced_log.mismatches.iter().cloned());
    let writer_log = match (writer_log, probe) {
        (Some(l), _) => l,
        (None, Some(mut probe)) => {
            while probe.rounds < PROBE_ROUNDS {
                probe.round(&db, tracer.as_ref())?;
            }
            mismatches.extend(probe.mismatches);
            probe.log
        }
        (None, None) => unreachable!("the read-only workloads run the probe"),
    };
    if let Some(m) = final_check(
        &db,
        setup.rows + writer_log.acked_rows,
        gen::price_sum(&rows) + writer_log.acked_sum,
    ) {
        mismatches.push(m);
    }
    let after_writer = cluster::counters(&registry);

    let queries = untraced_log.samples.len() as u64 + traced_log.samples.len() as u64;
    let query_failed = untraced_log.failed + traced_log.failed;
    let copies = writer_log.latencies.len() as u64;
    let mergeouts = writer_log.mergeout_ms.len() as u64 + writer_log.mergeout_failed;
    // Warm-up statements count too: a failure during set-up is still a
    // failed operation.
    let attempted = warmup.samples.len() as u64 + queries + copies + mergeouts;
    let failed = warmup.failed + query_failed + writer_log.failed + writer_log.mergeout_failed;
    let error_rate = failed as f64 / attempted.max(1) as f64;
    // User bytes stored at the end of the read window.
    let total_user_bytes = if w.concurrent_writer() {
        initial_user_bytes + writer_log.acked_user_bytes
    } else {
        initial_user_bytes
    };

    let mut codes = untraced_log.codes.clone();
    for (k, v) in traced_log
        .codes
        .iter()
        .chain(&writer_log.codes)
        .chain(&warmup.codes)
    {
        *codes.entry(*k).or_default() += v;
    }
    let mut notes = vec![
        (
            "query_samples".to_owned(),
            untraced_log.samples.len().to_string(),
        ),
        (
            "traced_query_samples".to_owned(),
            traced_log.samples.len().to_string(),
        ),
        ("copy_samples".to_owned(), copies.to_string()),
        ("mergeouts".to_owned(), mergeouts.to_string()),
        ("read_s".to_owned(), read_s.to_string()),
        ("setup_s".to_owned(), format!("{setup_s:?}")),
        ("errors".to_owned(), codes_note(&codes)),
        ("stored_bytes".to_owned(), stored_bytes.to_string()),
        ("user_bytes".to_owned(), total_user_bytes.to_string()),
        (
            "depot_bytes_per_node".to_owned(),
            db.config().cache_bytes.to_string(),
        ),
    ];
    for m in mismatches.iter().take(5) {
        notes.push(("mismatch".to_owned(), m.clone()));
    }
    for m in &mismatches {
        eprintln!("e2ebench: check failed: {m}");
    }
    let mut shapes = w.mix();
    shapes.sort();
    shapes.dedup();
    for shape in shapes {
        let lat: Vec<f64> = untraced_log
            .samples
            .iter()
            .filter(|s| s.0 == shape)
            .map(|s| s.1)
            .collect();
        if !lat.is_empty() {
            eprintln!(
                "e2ebench: {:<14} n={:<5} median {:.2} ms",
                shape.name(),
                lat.len(),
                stats::median(&lat)
            );
        }
    }
    let mut sizes = writer_log.batch_rows.clone();
    sizes.sort();
    sizes.dedup();
    for rows in sizes {
        let lat: Vec<f64> = writer_log
            .latencies
            .iter()
            .zip(&writer_log.batch_rows)
            .filter(|(_, r)| **r == rows)
            .map(|(l, _)| *l)
            .collect();
        if !lat.is_empty() {
            let (q1, q3) = if lat.len() > 1 {
                stats::quartiles(&lat)
            } else {
                (lat[0], lat[0])
            };
            eprintln!(
                "e2ebench: COPY {rows:>3} rows  n={:<5} median {:.2} ms, quartiles {q1:.2}..{q3:.2} ms, max {:.2} ms",
                lat.len(),
                stats::median(&lat),
                lat.iter().cloned().fold(0.0, f64::max)
            );
        }
    }
    eprintln!(
        "e2ebench: set-ups {setup_s:.3?} s (spread {:.3}), window {window_s:.2} s, reads {read_s:.2} s, copies {copies}",
        if setup_s.len() > 1 {
            stats::spread(&setup_s)
        } else {
            0.0
        }
    );

    let metrics = if traced {
        let t = tracer.as_ref().expect("traced run has a tracer");
        let ctx = trace::LayerInputs {
            db: &db,
            clients: &mut env.clients,
            stmts: &stmts,
            untraced: &untraced_log,
            traced: &traced_log,
            writer: &writer_log,
            window: Delta::between(&before, &after_window),
            writes: if w.concurrent_writer() {
                Delta::between(&before, &after_window)
            } else {
                Delta::between(&after_window, &after_writer)
            },
            total_user_bytes,
            error_rate,
        };
        let out = trace::per_layer(t, ctx)?;
        let path = format!("{}/spans-{}-seed{seed}.jsonl", trace::OUT_DIR, w.name());
        t.write(&path)?;
        notes.push(("spans".to_owned(), path));
        out
    } else {
        let lat = untraced_log.latencies();
        let cost = Delta::between(&before, &after_writer).get("s3_cost_nanodollars_total");
        let ok_ratio = 1.0 - error_rate;
        vec![
            metric("setup_s", "s", stats::median(&setup_s)),
            metric("query_p50_ms", "ms", p(&lat, 0.5, "queries")?),
            metric("query_p95_ms", "ms", p(&lat, 0.95, "queries")?),
            metric("query_qps", "1/s", untraced_log.ok() as f64 / read_s),
            metric("copy_p50_ms", "ms", p(&writer_log.latencies, 0.5, "COPYs")?),
            metric(
                "copy_p95_ms",
                "ms",
                p(&writer_log.latencies, 0.95, "COPYs")?,
            ),
            metric("ok_ratio", "ratio", ok_ratio),
            metric(
                "s3_cost_nusd_per_op",
                "nUSD/op",
                cost / (queries + copies).max(1) as f64,
            ),
            metric(
                "storage_bytes_per_user_byte",
                "B/B",
                stored_bytes as f64 / total_user_bytes as f64,
            ),
            metric("peak_rss_mb", "MiB", cluster::peak_rss_mb()),
        ]
    };
    env.stop();
    Ok(Outcome {
        correct: mismatches.is_empty(),
        attempted,
        failed,
        metrics,
        notes,
    })
}
