//! Pins every deterministic experiment table at quick size and the default
//! seed: a change that moves one simulated picosecond, one bound or one
//! printed digit of any E-series table fails here.
//!
//! Each pin is an FNV-1a 64 digest of one table's `to_csv()` (inline, not
//! `DefaultHasher`, whose algorithm may change between Rust releases).
//! Left out: E15, which panics at its default seed (ROADMAP item 4), and
//! E20's first table, which holds wall-clock latencies. A change that
//! moves a pin on purpose records the old and new values in CHANGES.md.

use ccr_edf_suite::netsim::experiments::{by_id, ExpOptions};

/// FNV-1a 64-bit.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Run experiment `id` at quick size and the default seed, and compare the
/// digest of each deterministic table with `want`, in table order.
fn check(id: &str, want: &[u64]) {
    let (_, _, run) = by_id(id).expect("registered experiment");
    let opts = ExpOptions {
        quick: true,
        threads: 1,
        ..ExpOptions::default()
    };
    let got: Vec<(String, u64)> = run(&opts)
        .tables
        .iter()
        .filter(|t| !t.title().starts_with("E20a"))
        .map(|t| (t.title().to_string(), fnv1a(t.to_csv().as_bytes())))
        .collect();
    let digests: Vec<u64> = got.iter().map(|&(_, d)| d).collect();
    assert_eq!(digests, want, "{id} quick tables moved; now {got:#018x?}");
}

#[test]
fn e01_priority() {
    check(
        "e1",
        &[0xf60c2f9f95733225, 0xd93d343b87c65428, 0xe2c67280aabbe990],
    );
}

#[test]
fn e02_handover() {
    check("e2", &[0xe3a4a2d65398f28d, 0x3a49cf3d38b60683]);
}

#[test]
fn e03_slot_length() {
    check(
        "e3",
        &[0x74f968ab27ee0430, 0xbbc5429ffd646bec, 0x43972c30f9c77b15],
    );
}

#[test]
fn e04_umax() {
    check(
        "e4",
        &[0xf686473f45d8fc81, 0x61f3e7ff055dbaf5, 0xe8ba06a98c6b1160],
    );
}

#[test]
fn e05_latency_bound() {
    check("e5", &[0x3aefac61a584da82]);
}

#[test]
fn e06_shootout() {
    check("e6", &[0x29c6543650340cd0, 0x02aa225a9b08bb40]);
}

#[test]
fn e07_spatial_reuse() {
    check("e7", &[0x59f0d7f6b7ad41a7]);
}

#[test]
fn e08_admission() {
    check("e8", &[0xc6cde254386e3a90, 0xe78f4b1d69dc61f6]);
}

#[test]
fn e09_services() {
    check("e9", &[0xbcf2b34dc598e3dd, 0x1e9aa54525493e0e]);
}

#[test]
fn e10_slot_sweep() {
    check("e10", &[0xbf9af2a4cb1df9f5]);
}

#[test]
fn e11_mapping() {
    check("e11", &[0x3c3b8e829fa8ef02]);
}

#[test]
fn e12_bounds() {
    check("e12", &[0x7641a7dbcddaea92, 0x3bd4f057cef3c881]);
}

#[test]
fn e13_fairness() {
    check("e13", &[0x690f4a8b9df3c92d, 0x9c1573e655e87fe4]);
}

#[test]
fn e14_three_way() {
    check("e14", &[0x47bfc783911d6a0b]);
}

#[test]
fn e16_hetero() {
    check("e16", &[0x3897764ea851ad4b]);
}

#[test]
fn e17_multiring() {
    check("e17", &[0x8ce9fb27aa159389]);
}

#[test]
fn e18_chaos() {
    check(
        "e18",
        &[
            0x9d766dece6561e8b,
            0x00699953018b2b2d,
            0x71fa59cf6c273c35,
            0x1c0c7290508beaa1,
        ],
    );
}

#[test]
fn e19_calculus() {
    check(
        "e19",
        &[0x0122dfc22a98f513, 0x83c1379b6f91ab19, 0x7665fddc3c1275cb],
    );
}

#[test]
fn e20_churn_headroom() {
    check("e20", &[0xe8f539f1a7391934]);
}

#[test]
fn e21_gateway() {
    check("e21", &[0x2d9d127071aa9839, 0x4d82378362c55b24]);
}

#[test]
fn e22_survivability() {
    check("e22", &[0xb67fd8e9beb163e1, 0x82b068961da679c1]);
}

#[test]
fn e23_synthesis() {
    check("e23", &[0xd967c3184e9c64d5, 0x07b85f0dae97a7e8]);
}
