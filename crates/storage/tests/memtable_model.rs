//! `Memtable` against a naive model: a list of every write in order.
//!
//! Three tables whose names share prefixes, keys over a tiny alphabet
//! (so keys share prefixes too), and puts and deletes at non-decreasing
//! LSNs — an LSN repeats the way a batch shares one. At random pins the
//! memtable must answer `get` and bounded, unbounded and inverted
//! `range` exactly as the model does; its flush iterator must list
//! every surviving version in
//! `(key asc, lsn desc)` order; `len` and `approx_bytes` must count
//! what was written.

use std::cmp::Reverse;

use proptest::prelude::*;

use preserva_storage::memtable::Memtable;
use preserva_storage::Lsn;

const TABLES: [&str; 3] = ["t", "t2", "tt"];

#[derive(Debug, Clone)]
enum Op {
    Put(usize, Vec<u8>, Vec<u8>),
    Delete(usize, Vec<u8>),
}

fn key() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(0u8..3, 0..4)
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        5 => (0..3usize, key(), proptest::collection::vec(any::<u8>(), 0..6))
            .prop_map(|(t, k, v)| Op::Put(t, k, v)),
        2 => (0..3usize, key()).prop_map(|(t, k)| Op::Delete(t, k)),
    ]
}

/// `(table, key, lsn, value)`; a `None` value is a tombstone.
type Point = (String, Vec<u8>, Lsn, Option<Vec<u8>>);

/// Every write, in order, at its LSN.
#[derive(Default)]
struct Model {
    points: Vec<Point>,
    bytes: usize,
}

impl Model {
    /// Newest point version at or below `pin`; a later write at the same
    /// LSN replaces an earlier one.
    fn get(&self, table: &str, key: &[u8], pin: Lsn) -> Option<(Lsn, Option<Vec<u8>>)> {
        let mut best: Option<(Lsn, Option<Vec<u8>>)> = None;
        for (t, k, lsn, v) in &self.points {
            if t == table && k == key && *lsn <= pin && best.as_ref().is_none_or(|b| *lsn >= b.0) {
                best = Some((*lsn, v.clone()));
            }
        }
        best
    }

    fn range(
        &self,
        table: &str,
        start: &[u8],
        end: Option<&[u8]>,
        pin: Lsn,
    ) -> Vec<(Vec<u8>, Lsn, Option<Vec<u8>>)> {
        let mut keys: Vec<&Vec<u8>> = self
            .points
            .iter()
            .filter(|(t, k, _, _)| {
                t == table && k.as_slice() >= start && end.is_none_or(|e| k.as_slice() < e)
            })
            .map(|(_, k, _, _)| k)
            .collect();
        keys.sort();
        keys.dedup();
        keys.into_iter()
            .filter_map(|k| self.get(table, k, pin).map(|(lsn, v)| (k.clone(), lsn, v)))
            .collect()
    }

    /// The surviving versions in flush order: `(key asc, lsn desc)`.
    fn versions(&self) -> Vec<Point> {
        let mut out: Vec<Point> = Vec::new();
        for p in &self.points {
            out.retain(|(t, k, lsn, _)| (t, k, lsn) != (&p.0, &p.1, &p.2));
            out.push(p.clone());
        }
        out.sort_by(|a, b| (&a.0, &a.1, Reverse(a.2)).cmp(&(&b.0, &b.1, Reverse(b.2))));
        out
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn memtable_matches_the_model(
        ops in proptest::collection::vec((op(), 0u64..3), 1..80),
        pins in proptest::collection::vec(0u64..170, 1..6),
        bounds in proptest::collection::vec((key(), key()), 1..6),
    ) {
        let mut mem = Memtable::new();
        let mut model = Model::default();
        let mut lsn: Lsn = 1;
        for (op, step) in ops {
            // A zero step keeps the previous op's LSN, as a batch does.
            lsn += step;
            match op {
                Op::Put(t, k, v) => {
                    model.bytes += TABLES[t].len() + k.len() + v.len() + 8;
                    model.points.push((TABLES[t].to_string(), k.clone(), lsn, Some(v.clone())));
                    mem.put(TABLES[t], k, v, lsn);
                }
                Op::Delete(t, k) => {
                    model.bytes += TABLES[t].len() + k.len() + 8;
                    model.points.push((TABLES[t].to_string(), k.clone(), lsn, None));
                    mem.delete(TABLES[t], k, lsn);
                }
            }
        }
        prop_assert_eq!(mem.len(), model.points.len());
        prop_assert_eq!(mem.approx_bytes(), model.bytes);

        let flushed: Vec<_> = mem
            .iter()
            .map(|(t, k, lsn, v)| (t.to_string(), k.to_vec(), lsn, v.map(<[u8]>::to_vec)))
            .collect();
        prop_assert_eq!(flushed, model.versions());

        let probes: Vec<Vec<u8>> = model
            .points
            .iter()
            .map(|(_, k, _, _)| k.clone())
            .chain(bounds.iter().flat_map(|(a, b)| [a.clone(), b.clone()]))
            .collect();
        for pin in pins.into_iter().chain([Lsn::MAX]) {
            for table in TABLES {
                for k in &probes {
                    let got = mem.get(table, k, pin).map(|(l, v)| (l, v.map(<[u8]>::to_vec)));
                    prop_assert_eq!(got, model.get(table, k, pin));
                }
                for (a, b) in &bounds {
                    let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
                    let cases: [(&[u8], Option<&[u8]>); 3] =
                        [(lo, Some(hi)), (lo, None), (hi, Some(lo))];
                    for (start, end) in cases {
                        let got: Vec<_> = mem
                            .range(table, start, end, pin)
                            .map(|(k, l, v)| (k.to_vec(), l, v.map(<[u8]>::to_vec)))
                            .collect();
                        let want = model.range(table, start, end, pin);
                        prop_assert_eq!(got, want, "range {:?}..{:?} of {} at {}", start, end, table, pin);
                    }
                }
            }
        }
    }
}
