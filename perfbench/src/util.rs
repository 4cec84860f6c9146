//! Small self-contained helpers: the input generator, the digest, order
//! statistics, the host fingerprint and a minimal JSON writer.
//!
//! The input generator and the digest live here rather than in the
//! workspace so that a change to the program under test can never change
//! the benchmark's inputs or the way its outputs are fingerprinted.

use std::fmt::Write as _;

/// SplitMix64: the benchmark's own deterministic input generator.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator whose whole output is a function of `seed` and `stream`.
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..hi` (`hi > lo`).
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo)
    }

    /// `true` with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64 <= p
    }
}

/// FNV-1a over everything a workload simulated: two runs of one seed must
/// produce the same value, whatever the host.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xCBF2_9CE4_8422_2325)
    }
}

impl Digest {
    /// Fold raw bytes in.
    pub fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= u64::from(x);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    /// Fold one integer in.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Fold a value's `Debug` rendering in (for deterministic metric
    /// structs: counters, histograms, vectors — never hash maps).
    pub fn debug(&mut self, v: &impl std::fmt::Debug) {
        self.bytes(format!("{v:?}").as_bytes());
    }

    /// The digest as 16 hex digits.
    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// Nearest-rank quantile of an ascending slice (`q` in `[0, 1]`); 0 when
/// empty.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Median of unsorted values; 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    quantile(&v, 0.5)
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Peak resident set of this process in MB (`VmHWM`), 0 when unknown.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Where a result was measured. Results compare only on one host.
pub struct Host {
    pub cpu: String,
    pub nproc: usize,
    pub rustc: &'static str,
    pub git_rev: String,
    pub threads: usize,
}

impl Host {
    /// Fingerprint of this machine and checkout. The benchmark runs the
    /// whole workload on the calling thread, so `threads` is always 1.
    pub fn probe() -> Host {
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        Host {
            cpu,
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            rustc: env!("PERFBENCH_RUSTC_VERSION"),
            git_rev: git_rev().unwrap_or_else(|| "unknown".to_string()),
            threads: 1,
        }
    }
}

/// The checked-out commit, read from `.git` in the working directory
/// without running git; `None` outside a repository.
fn git_rev() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(refname) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(rev) = std::fs::read_to_string(format!(".git/{refname}")) {
        return Some(rev.trim().to_string());
    }
    let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
    packed
        .lines()
        .find(|l| l.ends_with(refname))
        .and_then(|l| l.split_whitespace().next())
        .map(str::to_string)
}

/// A JSON object assembled field by field.
#[derive(Default)]
pub struct Json(String);

impl Json {
    fn key(&mut self, k: &str) {
        self.0.push(if self.0.is_empty() { '{' } else { ',' });
        let _ = write!(self.0, "\"{}\":", escape(k));
    }

    /// A numeric field; non-finite values are written as 0.
    pub fn num(&mut self, k: &str, v: f64) -> &mut Self {
        self.key(k);
        let v = if v.is_finite() { v } else { 0.0 };
        let _ = write!(self.0, "{v}");
        self
    }

    /// An integer field.
    pub fn int(&mut self, k: &str, v: u64) -> &mut Self {
        self.key(k);
        let _ = write!(self.0, "{v}");
        self
    }

    /// A string field.
    pub fn str(&mut self, k: &str, v: &str) -> &mut Self {
        self.key(k);
        let _ = write!(self.0, "\"{}\"", escape(v));
        self
    }

    /// A boolean field.
    pub fn bool(&mut self, k: &str, v: bool) -> &mut Self {
        self.key(k);
        self.0.push_str(if v { "true" } else { "false" });
        self
    }

    /// A nested object or array, already rendered.
    pub fn raw(&mut self, k: &str, v: &str) -> &mut Self {
        self.key(k);
        self.0.push_str(v);
        self
    }

    /// The rendered object.
    pub fn finish(&self) -> String {
        if self.0.is_empty() {
            "{}".to_string()
        } else {
            format!("{}}}", self.0)
        }
    }
}

/// Escape a string for a JSON literal.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}
