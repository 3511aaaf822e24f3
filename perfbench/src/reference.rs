//! Expected outputs kept with the benchmark (`reference.txt`).
//!
//! Every line is `<kind> <key> <value...>`:
//!
//! * `sim <field> <value>` — seed-independent facts of one
//!   `sim_allpairs_p1024` op (its message pattern and cycle count do
//!   not depend on the input values);
//! * `fig <id> <fnv64>` — the FNV-1a hash of each fast-mode figure
//!   CSV;
//! * `serve <seed> <offered> <admitted> <completed> <drops> <retries>
//!   <timed_out> <p50> <p99> <p999>` — one `serve_overload_p16` op's
//!   counters and latency percentiles (cycles) for that seed.
//!
//! `qsm-perfbench write-reference` regenerates the file; a diff of it
//! shows which simulated outputs a change moved.

use std::collections::BTreeMap;

/// The committed reference, parsed once.
pub struct Reference {
    pub sim: BTreeMap<String, String>,
    pub figs: BTreeMap<String, u64>,
    pub serve: BTreeMap<u64, ServeRef>,
}

/// One serving op's checked outputs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeRef {
    pub offered: u64,
    pub admitted: u64,
    pub completed: u64,
    pub drops: u64,
    pub retries: u64,
    pub timed_out: u64,
    pub p50: f64,
    pub p99: f64,
    pub p999: f64,
}

impl ServeRef {
    /// The reference line for `seed`.
    pub fn line(&self, seed: u64) -> String {
        format!(
            "serve {seed} {} {} {} {} {} {} {:?} {:?} {:?}",
            self.offered,
            self.admitted,
            self.completed,
            self.drops,
            self.retries,
            self.timed_out,
            self.p50,
            self.p99,
            self.p999
        )
    }
}

/// 64-bit FNV-1a.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

impl Reference {
    /// The reference compiled into this binary.
    pub fn committed() -> Self {
        Self::parse(include_str!("../reference.txt")).expect("reference.txt is well formed")
    }

    /// Parse reference text; `Err` names the first bad line.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut r =
            Reference { sim: BTreeMap::new(), figs: BTreeMap::new(), serve: BTreeMap::new() };
        for (no, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let f: Vec<&str> = line.split_whitespace().collect();
            let bad = || format!("reference.txt line {}: {line}", no + 1);
            match f.as_slice() {
                ["sim", key, value] => {
                    r.sim.insert(key.to_string(), value.to_string());
                }
                ["fig", id, hash] => {
                    let h = u64::from_str_radix(hash, 16).map_err(|_| bad())?;
                    r.figs.insert(id.to_string(), h);
                }
                ["serve", seed, rest @ ..] if rest.len() == 9 => {
                    let u = |i: usize| rest[i].parse::<u64>().map_err(|_| bad());
                    let x = |i: usize| rest[i].parse::<f64>().map_err(|_| bad());
                    let s = ServeRef {
                        offered: u(0)?,
                        admitted: u(1)?,
                        completed: u(2)?,
                        drops: u(3)?,
                        retries: u(4)?,
                        timed_out: u(5)?,
                        p50: x(6)?,
                        p99: x(7)?,
                        p999: x(8)?,
                    };
                    r.serve.insert(seed.parse().map_err(|_| bad())?, s);
                }
                _ => return Err(bad()),
            }
        }
        Ok(r)
    }

    /// A seed-independent `sim` fact.
    pub fn sim(&self, key: &str) -> &str {
        self.sim.get(key).map(String::as_str).unwrap_or_else(|| panic!("reference lacks sim {key}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv64_known_values() {
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn serve_lines_round_trip() {
        let s = ServeRef {
            offered: 10,
            admitted: 10,
            completed: 10,
            drops: 1,
            retries: 1,
            timed_out: 0,
            p50: 123.0,
            p99: 4567.5,
            p999: 8910.0,
        };
        let r = Reference::parse(&s.line(7)).unwrap();
        assert_eq!(r.serve[&7], s);
        assert!(Reference::parse("serve 7 1 2").is_err());
    }

    #[test]
    fn committed_reference_parses() {
        let r = Reference::committed();
        assert_eq!(r.figs.len(), crate::workloads::FIGURES.len());
        assert!(!r.serve.is_empty());
    }
}
