//! Golden answers: per-query digests of the canonical result rows,
//! committed for every data seed the benchmark generates.
//!
//! `golden.tsv` holds one line per `(data seed, query)`:
//! `seed<TAB>query<TAB>rows<TAB>digest`. The digest is FNV-1a (64 bit) over
//! `bdcc_exec::canonical_rows` joined with newlines, so every scheme, plan
//! shape and memory budget must reproduce exactly the committed rows (floats
//! rounded as `canonical_rows` rounds them). The file is produced by
//! `e2ebench --make-golden`, which refuses to write a digest the three
//! schemes disagree on.

use std::collections::HashMap;

use bdcc_exec::{canonical_rows, Batch};

const GOLDEN_TSV: &str = include_str!("../golden.tsv");

/// Row count and digest of one query result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest {
    pub rows: usize,
    pub hash: u64,
}

impl Digest {
    pub fn of(batch: &Batch) -> Digest {
        let rows = canonical_rows(batch);
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for (i, row) in rows.iter().enumerate() {
            if i > 0 {
                h = fnv(h, b"\n");
            }
            h = fnv(h, row.as_bytes());
        }
        Digest { rows: rows.len(), hash: h }
    }
}

fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The committed answers, keyed by `(data seed, query id)`.
#[derive(Debug)]
pub struct Golden(HashMap<(u64, usize), Digest>);

impl Golden {
    pub fn load() -> Golden {
        let mut map = HashMap::new();
        for line in GOLDEN_TSV.lines().filter(|l| !l.is_empty() && !l.starts_with('#')) {
            let f: Vec<&str> = line.split('\t').collect();
            assert_eq!(f.len(), 4, "golden.tsv: malformed line {line:?}");
            let parse = |s: &str| s.parse::<u64>().expect("golden.tsv: bad number");
            let hash = u64::from_str_radix(f[3], 16).expect("golden.tsv: bad digest");
            map.insert(
                (parse(f[0]), parse(f[1]) as usize),
                Digest { rows: parse(f[2]) as usize, hash },
            );
        }
        Golden(map)
    }

    /// Whether `batch` is the committed answer of `query` on `data_seed`'s
    /// database. A missing entry is a mismatch.
    pub fn matches(&self, data_seed: u64, query: usize, batch: &Batch) -> bool {
        self.0.get(&(data_seed, query)) == Some(&Digest::of(batch))
    }

    /// Number of data seeds covered (every seed must cover all 22 queries).
    pub fn seeds(&self) -> usize {
        self.0.len() / 22
    }
}

/// One `golden.tsv` line.
pub fn line(data_seed: u64, query: usize, d: Digest) -> String {
    format!("{data_seed}\t{query}\t{}\t{:016x}", d.rows, d.hash)
}
