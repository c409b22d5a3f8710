//! Seeded inputs: table rows, COPY batches and statements, plus the
//! reference answers computed from the same rows without the engine.

use std::collections::BTreeMap;

use eon_types::Value;

/// SplitMix64: a tiny, fully specified generator, so a seed names the
/// same inputs on every platform and toolchain.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// The order one connection runs a statement mix in: each cycle runs
/// every statement once, shuffled, so the statements that run side by
/// side on different connections vary instead of locking in step.
pub struct Cycle {
    rng: Rng,
    order: Vec<usize>,
    pos: usize,
}

impl Cycle {
    pub fn new(len: usize, seed: u64) -> Self {
        Cycle {
            rng: Rng::new(seed),
            order: (0..len).collect(),
            pos: len,
        }
    }

    /// Index of the next statement.
    pub fn next_index(&mut self) -> usize {
        if self.pos == self.order.len() {
            for i in (1..self.order.len()).rev() {
                let j = self.rng.below(i as u64 + 1) as usize;
                self.order.swap(i, j);
            }
            self.pos = 0;
        }
        self.pos += 1;
        self.order[self.pos - 1]
    }
}

pub const GROUPS: u64 = 16;
pub const REGIONS: [&str; 5] = ["NA", "EU", "APAC", "LATAM", "MEA"];
/// Prices are uniform in `1..=MAX_PRICE`.
pub const MAX_PRICE: u64 = 1000;

/// One `sales` row: `id, grp, price, region_id` and, on the wide
/// table, a high-cardinality `note`.
pub fn sales_row(rng: &mut Rng, id: i64, with_note: bool) -> Vec<Value> {
    let mut row = vec![
        Value::Int(id),
        Value::Str(format!("g{:02}", rng.below(GROUPS))),
        Value::Int(1 + rng.below(MAX_PRICE) as i64),
        Value::Int(rng.below(REGIONS.len() as u64) as i64),
    ];
    if with_note {
        row.push(Value::Str(format!(
            "{:016x}{:016x}",
            rng.next_u64(),
            rng.next_u64()
        )));
    }
    row
}

pub fn regions_rows() -> Vec<Vec<Value>> {
    REGIONS
        .iter()
        .enumerate()
        .map(|(i, r)| vec![Value::Int(i as i64), Value::Str((*r).to_owned())])
        .collect()
}

/// Bytes a user hands the loader for `rows`: the rows as CSV text.
pub fn user_bytes(rows: &[Vec<Value>]) -> u64 {
    rows.iter()
        .map(|r| {
            let fields: u64 = r
                .iter()
                .map(|v| match v {
                    Value::Str(s) => s.len() as u64,
                    Value::Int(i) => i.to_string().len() as u64,
                    other => format!("{other:?}").len() as u64,
                })
                .sum();
            fields + r.len() as u64 // separators and the newline
        })
        .sum()
}

/// The query shapes of the dashboard mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Shape {
    Sum,
    Count,
    Filter,
    GroupBy,
    Join,
    Range,
}

impl Shape {
    pub fn name(self) -> &'static str {
        match self {
            Shape::Sum => "sum",
            Shape::Count => "count",
            Shape::Filter => "filter_rows",
            Shape::GroupBy => "group_by",
            Shape::Join => "join_group_by",
            Shape::Range => "id_range",
        }
    }
}

/// A statement with the seed's constants filled in.
#[derive(Debug, Clone)]
pub struct Stmt {
    pub shape: Shape,
    pub sql: String,
}

/// Constants of the seeded statements.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// `grp` value the row-returning filter selects.
    pub filter_grp: u64,
    /// The filter keeps prices at or above this (about 1%).
    pub filter_min_price: i64,
    /// `[range_lo, range_lo + RANGE_LEN)` for the pruned id range.
    pub range_lo: i64,
    /// The filter also returns the wide table's `note` column.
    pub with_note: bool,
}

pub const RANGE_LEN: i64 = 2000;

impl Params {
    pub fn new(seed: u64, rows: i64, with_note: bool) -> Self {
        let mut rng = Rng::new(seed.wrapping_mul(31).wrapping_add(7));
        Params {
            filter_grp: rng.below(GROUPS),
            filter_min_price: MAX_PRICE as i64 - 9,
            range_lo: rng.below((rows - RANGE_LEN) as u64) as i64,
            with_note,
        }
    }

    pub fn stmt(&self, shape: Shape) -> Stmt {
        let sql = match shape {
            Shape::Sum => "SELECT SUM(price) FROM sales".to_owned(),
            Shape::Count => "SELECT COUNT(*) FROM sales".to_owned(),
            Shape::Filter => format!(
                "SELECT id, price{} FROM sales WHERE grp = 'g{:02}' AND price >= {}",
                if self.with_note { ", note" } else { "" },
                self.filter_grp,
                self.filter_min_price
            ),
            Shape::GroupBy => "SELECT grp, COUNT(*), SUM(price) FROM sales GROUP BY grp".to_owned(),
            Shape::Join => "SELECT r.region, COUNT(*), SUM(s.price) FROM sales s \
                            JOIN regions r ON s.region_id = r.region_id GROUP BY r.region"
                .to_owned(),
            Shape::Range => format!(
                "SELECT COUNT(*), SUM(price) FROM sales WHERE id >= {} AND id < {}",
                self.range_lo,
                self.range_lo + RANGE_LEN
            ),
        };
        Stmt { shape, sql }
    }
}

/// Reference answers for every shape over a set of `sales` rows,
/// each sorted so the comparison ignores row order.
pub fn reference(params: &Params, rows: &[Vec<Value>]) -> BTreeMap<Shape, Vec<Vec<Value>>> {
    let int = |v: &Value| match v {
        Value::Int(i) => *i,
        other => panic!("generated an Int column holding {other:?}"),
    };
    let (mut count, mut sum) = (0i64, 0i64);
    let mut filtered = Vec::new();
    let mut by_grp: BTreeMap<String, (i64, i64)> = BTreeMap::new();
    let mut by_region: BTreeMap<String, (i64, i64)> = BTreeMap::new();
    let (mut range_count, mut range_sum) = (0i64, 0i64);
    let filter_grp = Value::Str(format!("g{:02}", params.filter_grp));
    for r in rows {
        let (id, price) = (int(&r[0]), int(&r[2]));
        count += 1;
        sum += price;
        if r[1] == filter_grp && price >= params.filter_min_price {
            let mut out = vec![Value::Int(id), Value::Int(price)];
            if params.with_note {
                out.push(r[4].clone());
            }
            filtered.push(out);
        }
        if let Value::Str(g) = &r[1] {
            let e = by_grp.entry(g.clone()).or_default();
            e.0 += 1;
            e.1 += price;
        }
        let e = by_region
            .entry(REGIONS[int(&r[3]) as usize].to_owned())
            .or_default();
        e.0 += 1;
        e.1 += price;
        if id >= params.range_lo && id < params.range_lo + RANGE_LEN {
            range_count += 1;
            range_sum += price;
        }
    }
    let grouped = |m: BTreeMap<String, (i64, i64)>| -> Vec<Vec<Value>> {
        m.into_iter()
            .map(|(k, (c, s))| vec![Value::Str(k), Value::Int(c), Value::Int(s)])
            .collect()
    };
    filtered.sort();
    let mut out = BTreeMap::new();
    out.insert(Shape::Sum, vec![vec![Value::Int(sum)]]);
    out.insert(Shape::Count, vec![vec![Value::Int(count)]]);
    out.insert(Shape::Filter, filtered);
    out.insert(Shape::GroupBy, grouped(by_grp));
    out.insert(Shape::Join, grouped(by_region));
    out.insert(
        Shape::Range,
        vec![vec![Value::Int(range_count), Value::Int(range_sum)]],
    );
    out
}

/// Rows in a canonical order for comparison with a reference.
pub fn canonical(mut rows: Vec<Vec<Value>>) -> Vec<Vec<Value>> {
    rows.sort();
    rows
}

/// Sum of the `price` column.
pub fn price_sum(rows: &[Vec<Value>]) -> i64 {
    rows.iter()
        .map(|r| match r[2] {
            Value::Int(p) => p,
            _ => 0,
        })
        .sum()
}
