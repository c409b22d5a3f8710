//! The benchmark's own arithmetic: percentiles under the
//! "ten samples beyond" rule, medians and quartile spread, open-loop
//! lateness, and self time of nested spans.

use std::collections::HashMap;

/// A percentile is reported only when at least this many samples lie
/// strictly beyond it; with fewer, its value is one or two outliers.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of `samples` (any order), `q` in (0, 1).
/// `None` when fewer than [`MIN_BEYOND`] samples lie beyond the chosen
/// rank. A failed operation enters as `f64::INFINITY`, so it counts as
/// missing every latency limit instead of vanishing from the sample.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    let n = samples.len();
    if n == 0 {
        return None;
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    if n - rank < MIN_BEYOND {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank - 1])
}

/// Median (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First and third quartile, computed exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive"
/// method), so spreads printed here match the ones a reader computes
/// over repeated runs. Needs at least two values.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need two values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let ld = v.len();
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (q(1), q(3))
}

/// Inter-quartile distance as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values)
}

/// One send of an open-loop generator, in microseconds since the
/// schedule's start: when it was due, when it was sent, when the
/// system acknowledged it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpenLoopOp {
    pub due_us: u64,
    pub sent_us: u64,
    pub acked_us: u64,
}

impl OpenLoopOp {
    /// How late the generator sent this operation.
    pub fn lateness_us(&self) -> u64 {
        self.sent_us.saturating_sub(self.due_us)
    }

    /// Latency as the caller sees it: from when the operation was due,
    /// so a stall also charges the operations queued behind it.
    pub fn latency_us(&self) -> u64 {
        self.acked_us.saturating_sub(self.due_us)
    }
}

/// Due time of the `i`-th send of a schedule with a fixed interval.
pub fn due_us(i: u64, interval_us: u64) -> u64 {
    i * interval_us
}

/// A recorded span. Times are microseconds since the run's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub request: u64,
    pub name: String,
    pub label: String,
    pub start_us: u64,
    pub end_us: u64,
}

impl Span {
    pub fn dur_us(&self) -> u64 {
        self.end_us.saturating_sub(self.start_us)
    }
}

/// A flat `QueryProfile` span: name, label and duration only.
#[derive(Debug, Clone, PartialEq)]
pub struct FlatSpan {
    pub name: String,
    pub label: String,
    pub micros: u64,
}

/// Lay the flat spans of one query profile out under `parent`.
///
/// The profile records durations without start times, so intervals are
/// rebuilt from how the coordinator runs a query: admission first; then
/// every participant in parallel, each waiting for slots and then
/// running its local phase, whose table scans run one after another;
/// the coordinator merge last, ending with the query. A `scan_pipeline`
/// labelled `node<N>:<table>` belongs to the `local_phase` labelled
/// `node<N>`. Load spans nest the same way: `load_upload_fanout` and
/// `load_commit` run in sequence inside `load_pipeline`.
pub fn nest_profile(parent: &Span, flat: &[FlatSpan], next_id: &mut u64) -> Vec<Span> {
    let of = |name: &'static str| flat.iter().filter(move |s| s.name == name);
    let mut spans: Vec<Span> = Vec::new();
    let mut push = |name: &str, label: &str, parent: &Span, start: u64, dur: u64| -> Span {
        let start = start.clamp(parent.start_us, parent.end_us);
        let end = start.saturating_add(dur).min(parent.end_us);
        let s = Span {
            id: *next_id,
            parent: Some(parent.id),
            request: parent.request,
            name: name.to_owned(),
            label: label.to_owned(),
            start_us: start,
            end_us: end,
        };
        *next_id += 1;
        spans.push(s.clone());
        s
    };

    let mut cursor = parent.start_us;
    for s in of("admission_wait") {
        let a = push(&s.name, &s.label, parent, cursor, s.micros);
        cursor = a.end_us;
    }
    let participants_start = cursor;
    let mut participants_end = cursor;
    for lp in of("local_phase") {
        let mut t = participants_start;
        for sw in of("slot_wait").filter(|s| s.label == lp.label) {
            t = push(&sw.name, &sw.label, parent, t, sw.micros).end_us;
        }
        let local = push(&lp.name, &lp.label, parent, t, lp.micros);
        participants_end = participants_end.max(local.end_us);
        let prefix = format!("{}:", lp.label);
        let mut t = local.start_us;
        for sp in of("scan_pipeline").filter(|s| s.label.starts_with(&prefix)) {
            t = push(&sp.name, &sp.label, &local, t, sp.micros).end_us;
        }
    }
    for m in of("coordinator_merge") {
        let start = parent.end_us.saturating_sub(m.micros).max(participants_end);
        push(&m.name, &m.label, parent, start, m.micros);
    }
    for lp in of("load_pipeline") {
        let pipe = push(&lp.name, &lp.label, parent, parent.start_us, lp.micros);
        let mut t = pipe.start_us;
        for name in ["load_upload_fanout", "load_commit"] {
            for s in of(name) {
                t = push(&s.name, &s.label, &pipe, t, s.micros).end_us;
            }
        }
    }
    spans
}

/// Self time of every span: its duration minus the part of its interval
/// that its children's intervals cover (overlapping children count
/// once). Returned in the order of `spans`.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for c in spans {
        if let Some(p) = c.parent {
            children.entry(p).or_default().push((c.start_us, c.end_us));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut kids: Vec<(u64, u64)> = children
                .get(&s.id)
                .into_iter()
                .flatten()
                .map(|&(a, b)| (a.max(s.start_us), b.min(s.end_us)))
                .filter(|(a, b)| a < b)
                .collect();
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_us;
            for (a, b) in kids {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.dur_us() - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        // p95 of 1..=200: nearest rank 190, with 10 samples above it.
        assert_eq!(percentile(&seq(200), 0.95), Some(190.0));
        // 199 samples: rank 190 again, but only 9 lie beyond.
        assert_eq!(percentile(&seq(199), 0.95), None);
        // The median: rank 10 of 20 leaves 10 beyond; rank 10 of 19, 9.
        assert_eq!(percentile(&seq(20), 0.5), Some(10.0));
        assert_eq!(percentile(&seq(21), 0.5), Some(11.0));
        assert_eq!(percentile(&seq(19), 0.5), None);
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn percentile_ignores_order_and_counts_failures_as_slowest() {
        let mut v = seq(200);
        v.reverse();
        assert_eq!(percentile(&v, 0.95), Some(190.0));
        // 15 failed operations out of 200 push the p95 onto a failure.
        let mut v: Vec<f64> = seq(185);
        v.extend([f64::INFINITY; 15]);
        assert_eq!(percentile(&v, 0.95), Some(f64::INFINITY));
        assert_eq!(percentile(&v, 0.5), Some(100.0));
    }

    #[test]
    fn median_and_spread_match_hand_values() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        assert_eq!(quartiles(&seq(10)), (2.75, 8.25));
        // statistics.quantiles([5, 1, 4, 2, 3], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), (1.5, 4.5));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[1.0, 2.0, 3.0]), (1.0, 3.0));
        assert_eq!(spread(&seq(10)), 1.0);
        assert_eq!(spread(&[7.0; 4]), 0.0);
    }

    #[test]
    fn open_loop_charges_lateness_to_the_ops_behind_a_stall() {
        // 50 ops/s; the second op stalls for 30 ms, so the third is
        // sent 10 ms late and its latency counts from its due time.
        let iv = 20_000;
        let ops = [
            OpenLoopOp {
                due_us: due_us(0, iv),
                sent_us: 0,
                acked_us: 5_000,
            },
            OpenLoopOp {
                due_us: due_us(1, iv),
                sent_us: 20_000,
                acked_us: 50_000,
            },
            OpenLoopOp {
                due_us: due_us(2, iv),
                sent_us: 50_000,
                acked_us: 55_000,
            },
            OpenLoopOp {
                due_us: due_us(3, iv),
                sent_us: 60_000,
                acked_us: 65_000,
            },
        ];
        let late: Vec<u64> = ops.iter().map(|o| o.lateness_us()).collect();
        let lat: Vec<u64> = ops.iter().map(|o| o.latency_us()).collect();
        assert_eq!(late, [0, 0, 10_000, 0]);
        assert_eq!(lat, [5_000, 30_000, 15_000, 5_000]);
        // A send that beats its due time is not negative lateness.
        let early = OpenLoopOp {
            due_us: 100,
            sent_us: 90,
            acked_us: 95,
        };
        assert_eq!((early.lateness_us(), early.latency_us()), (0, 0));
    }

    fn span(id: u64, parent: Option<u64>, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            request: 1,
            name: format!("s{id}"),
            label: String::new(),
            start_us: start,
            end_us: end,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span(1, None, 0, 100),
            span(2, Some(1), 10, 40),
            span(3, Some(1), 30, 60), // overlaps 2: counted once
            span(4, Some(1), 70, 80),
            span(5, Some(2), 15, 25),
        ];
        assert_eq!(self_times(&spans), [40, 20, 30, 10, 10]);
    }

    fn flat(name: &str, label: &str, micros: u64) -> FlatSpan {
        FlatSpan {
            name: name.into(),
            label: label.into(),
            micros,
        }
    }

    #[test]
    fn flat_query_profile_nests_under_its_participants() {
        let parent = Span {
            id: 1,
            parent: None,
            request: 7,
            name: "core.query".into(),
            label: String::new(),
            start_us: 1000,
            end_us: 1100,
        };
        let profile = [
            flat("admission_wait", "sc0", 5),
            flat("slot_wait", "node1", 3),
            flat("slot_wait", "node2", 10),
            flat("scan_pipeline", "node1:sales", 40),
            flat("scan_pipeline", "node1:regions", 15),
            flat("local_phase", "node1", 60),
            flat("scan_pipeline", "node2:sales", 45),
            flat("local_phase", "node2", 50),
            flat("coordinator_merge", "", 8),
        ];
        let mut next = 10;
        let nested = nest_profile(&parent, &profile, &mut next);
        assert_eq!(next, 19);
        let find = |name: &str, label: &str| {
            nested
                .iter()
                .find(|s| s.name == name && s.label == label)
                .unwrap_or_else(|| panic!("{name} {label} missing"))
                .clone()
        };
        let local1 = find("local_phase", "node1");
        let local2 = find("local_phase", "node2");
        assert_eq!((local1.start_us, local1.end_us), (1008, 1068));
        assert_eq!((local2.start_us, local2.end_us), (1015, 1065));
        let scan = find("scan_pipeline", "node1:regions");
        assert_eq!(
            (scan.start_us, scan.end_us, scan.parent),
            (1048, 1063, Some(local1.id))
        );
        assert_eq!(find("scan_pipeline", "node2:sales").parent, Some(local2.id));
        let merge = find("coordinator_merge", "");
        assert_eq!((merge.start_us, merge.end_us), (1092, 1100));
        assert!(nested.iter().all(|s| s.request == 7));

        let mut all = vec![parent];
        all.extend(nested.iter().cloned());
        let st = self_times(&all);
        let self_of = |id: u64| st[all.iter().position(|s| s.id == id).unwrap()];
        // Covered: admission + the slowest participant (1000..1068)
        // and the merge (1092..1100): 76 of 100 us.
        assert_eq!(self_of(1), 24);
        // local_phase minus the same node's scans.
        assert_eq!(self_of(local1.id), 5);
        assert_eq!(self_of(local2.id), 5);
    }

    #[test]
    fn load_profile_nests_fanout_and_commit_inside_the_pipeline() {
        let parent = span(1, None, 0, 10);
        let profile = [
            flat("load_upload_fanout", "node0", 6),
            flat("load_commit", "node0", 2),
            flat("load_pipeline", "node0", 9),
        ];
        let mut next = 2;
        let nested = nest_profile(&parent, &profile, &mut next);
        let got: Vec<(&str, u64, u64, Option<u64>)> = nested
            .iter()
            .map(|s| (s.name.as_str(), s.start_us, s.end_us, s.parent))
            .collect();
        assert_eq!(
            got,
            [
                ("load_pipeline", 0, 9, Some(1)),
                ("load_upload_fanout", 0, 6, Some(2)),
                ("load_commit", 6, 8, Some(2)),
            ]
        );
    }
}
