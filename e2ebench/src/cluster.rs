//! Building the cluster under test: the S3 simulator behind a byte
//! ledger, the default `EonConfig` with each workload's stated
//! exceptions, the seeded load, and counter snapshots.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use bytes::Bytes;
use parking_lot::Mutex;

use eon_columnar::Projection;
use eon_core::{EonConfig, EonDb};
use eon_obs::Registry;
use eon_storage::{FileSystem, FsStats, S3Config, S3SimFs, SelectEngine, SharedFs};
use eon_types::{schema, Result, Value};

use crate::gen;

/// Shared storage as the S3 simulator sees it, plus a ledger of the
/// bytes of every live object, so stored bytes are known without
/// paying a LIST and a size request per key at the end of a run.
pub struct Ledger {
    inner: Arc<S3SimFs>,
    live: Mutex<HashMap<String, u64>>,
}

impl Ledger {
    pub fn stored_bytes(&self) -> u64 {
        self.live.lock().values().sum()
    }
}

impl FileSystem for Ledger {
    fn write(&self, path: &str, data: Bytes) -> Result<()> {
        let len = data.len() as u64;
        self.inner.write(path, data)?;
        self.live.lock().insert(path.to_owned(), len);
        Ok(())
    }
    fn read(&self, path: &str) -> Result<Bytes> {
        self.inner.read(path)
    }
    fn read_range(&self, path: &str, offset: u64, len: u64) -> Result<Bytes> {
        self.inner.read_range(path, offset, len)
    }
    fn size(&self, path: &str) -> Result<u64> {
        self.inner.size(path)
    }
    fn list(&self, prefix: &str) -> Result<Vec<String>> {
        self.inner.list(prefix)
    }
    fn exists(&self, path: &str) -> Result<bool> {
        self.inner.exists(path)
    }
    fn delete(&self, path: &str) -> Result<()> {
        self.inner.delete(path)?;
        self.live.lock().remove(path);
        Ok(())
    }
    fn select(&self, path: &str, request: &[u8]) -> Result<Option<Bytes>> {
        self.inner.select(path, request)
    }
    fn install_select_engine(&self, engine: Arc<dyn SelectEngine>) {
        self.inner.install_select_engine(engine)
    }
    fn stats(&self) -> FsStats {
        self.inner.stats()
    }
    fn kind(&self) -> &'static str {
        self.inner.kind()
    }
}

/// How one workload's cluster and data are set up.
#[derive(Debug, Clone, Copy)]
pub struct Setup {
    /// Rows of `sales` loaded before timing starts.
    pub rows: i64,
    /// COPY statements the initial load is split into (no mergeout
    /// runs during the load, so each leaves its own containers).
    pub load_batches: i64,
    /// Add the high-cardinality `note` column.
    pub with_note: bool,
    /// Depot capacity per node; `None` keeps the default 256 MiB.
    pub depot_bytes: Option<u64>,
    /// Modelled durable catalog-log append per commit.
    pub commit_append_us: u64,
}

pub struct Cluster {
    pub db: Arc<EonDb>,
    pub registry: Registry,
    pub ledger: Arc<Ledger>,
}

/// Create the cluster and load `rows` into `sales` (plus `regions`).
pub fn build(setup: &Setup, rows: &[Vec<Value>]) -> Result<Cluster> {
    let registry = Registry::new();
    let ledger = Arc::new(Ledger {
        inner: Arc::new(S3SimFs::with_metrics(S3Config::default(), &registry)),
        live: Mutex::new(HashMap::new()),
    });
    let mut config = EonConfig::default()
        .observability(registry.clone())
        .commit_append_us(setup.commit_append_us);
    if let Some(b) = setup.depot_bytes {
        config = config.cache_bytes(b);
    }
    let db = EonDb::create(ledger.clone() as SharedFs, config)?;

    create_sales_table(&db, "sales", setup.with_note)?;
    let r = schema![("region_id", Int), ("region", Str)];
    db.create_table(
        "regions",
        r.clone(),
        vec![Projection::replicated("regions_rep", &r, &[0])],
    )?;
    db.copy_into("regions", gen::regions_rows())?;
    let per_batch = (rows.len() as i64 + setup.load_batches - 1) / setup.load_batches;
    for chunk in rows.chunks(per_batch as usize) {
        db.copy_into("sales", chunk.to_vec())?;
    }
    Ok(Cluster {
        db,
        registry,
        ledger,
    })
}

/// Create a table with the `sales` schema, sorted and segmented by id.
pub fn create_sales_table(db: &EonDb, name: &str, with_note: bool) -> Result<()> {
    let mut s = schema![
        ("id", Int),
        ("grp", Str),
        ("price", Int),
        ("region_id", Int)
    ];
    if with_note {
        s = schema![
            ("id", Int),
            ("grp", Str),
            ("price", Int),
            ("region_id", Int),
            ("note", Str)
        ];
    }
    let proj = Projection::super_projection(format!("{name}_super"), &s, &[0], &[0]);
    db.create_table(name, s, vec![proj])?;
    Ok(())
}

/// Empty every node's depot.
pub fn empty_depots(db: &EonDb) -> Result<()> {
    for node in db.membership().all() {
        node.cache.clear()?;
    }
    Ok(())
}

/// Every counter and gauge series of the registry, keyed by its
/// rendered name and labels.
pub fn counters(registry: &Registry) -> BTreeMap<String, f64> {
    registry
        .prometheus_text()
        .lines()
        .filter_map(|line| {
            let (series, value) = line.rsplit_once(' ')?;
            Some((series.to_owned(), value.parse::<f64>().ok()?))
        })
        .collect()
}

/// Counter movement between two snapshots.
pub struct Delta(BTreeMap<String, f64>);

impl Delta {
    pub fn between(before: &BTreeMap<String, f64>, after: &BTreeMap<String, f64>) -> Self {
        Delta(
            after
                .iter()
                .map(|(k, v)| (k.clone(), v - before.get(k).copied().unwrap_or(0.0)))
                .collect(),
        )
    }

    /// Movement of `name`, summed over all its labels.
    pub fn get(&self, name: &str) -> f64 {
        self.with(name, "")
    }

    /// Movement of the `name` series whose labels contain `label`
    /// (as rendered, e.g. `verb="put"`).
    pub fn with(&self, name: &str, label: &str) -> f64 {
        self.0
            .iter()
            .filter(|(series, _)| series.split('{').next() == Some(name) && series.contains(label))
            .map(|(_, v)| v)
            .sum()
    }
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(f64::NAN)
}
