//! `ccr-experiments` — regenerate every table/figure of the reproduction.
//!
//! ```text
//! ccr-experiments list
//! ccr-experiments all   [--quick] [--seed S] [--csv DIR] [--threads T]
//! ccr-experiments e19   [--quick] [--seed S] [--csv DIR]
//! ccr-experiments model [--nodes N] [--slot-bytes B] [--link-m L]
//! ```
//!
//! `model` prints the closed-form quantities of Equations 1-6 for a
//! configuration without running any simulation.

use ccr_netsim::experiments::{by_id, registry, ExpOptions, ExperimentResult};
use std::io::Write;
use std::path::PathBuf;
use std::time::Instant;

fn usage() -> ! {
    eprintln!(
        "usage: ccr-experiments <list|all|model|e1..e23> [--quick] [--seed S] [--csv DIR] \
         [--threads T] [--nodes N] [--slot-bytes B] [--link-m L]"
    );
    std::process::exit(2);
}

fn print_model(nodes: u16, slot_bytes: u32, link_m: f64) {
    use ccr_edf::analysis::AnalyticModel;
    use ccr_edf::config::{ConfigError, NetworkConfig};
    let builder = NetworkConfig::builder(nodes)
        .slot_bytes(slot_bytes)
        .link_length_m(link_m);
    let invalid = |e: ConfigError| -> ! {
        eprintln!("invalid configuration: {e}");
        std::process::exit(2);
    };
    let cfg = match builder.clone().build() {
        Ok(c) => c,
        // Only a short slot has a fix: enlarge it to the Eq. 2 minimum.
        Err(e @ ConfigError::SlotTooShort { .. }) => {
            eprintln!("infeasible configuration: {e}");
            let c = builder.build_auto_slot().unwrap_or_else(|e| invalid(e));
            eprintln!(
                "using the minimum feasible slot instead: {} B",
                c.slot_bytes
            );
            c
        }
        Err(e) => invalid(e),
    };
    let a = AnalyticModel::new(&cfg);
    println!(
        "configuration: N = {}, slot = {} B, links = {link_m} m",
        cfg.n_nodes, cfg.slot_bytes
    );
    println!("t_slot               : {}", cfg.slot_time());
    println!("t_node               : {}", cfg.t_node());
    println!("collection (Eq. 2)   : {}", a.collection_time());
    println!("distribution         : {}", a.distribution_time());
    println!("min slot bytes       : {}", a.min_slot_bytes());
    println!("t_handover max (Eq.1): {}", a.max_handover());
    println!("t_latency (Eq. 4)    : {}", a.worst_latency());
    println!("U_max (Eq. 6)        : {:.4}", a.u_max());
    println!(
        "data bandwidth       : {:.2} Gbit/s",
        cfg.phys.data_bandwidth_bps() / 1e9
    );
}

struct Args {
    command: String,
    opts: ExpOptions,
    csv_dir: Option<PathBuf>,
    nodes: u16,
    slot_bytes: u32,
    link_m: f64,
}

fn parse_args() -> Args {
    let mut args = std::env::args().skip(1);
    let Some(command) = args.next() else { usage() };
    let mut opts = ExpOptions::default();
    let mut csv_dir = None;
    let mut nodes = 16u16;
    let mut slot_bytes = 2048u32;
    let mut link_m = 10.0f64;
    while let Some(a) = args.next() {
        match a.as_str() {
            "--quick" => opts.quick = true,
            "--nodes" => {
                nodes = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--slot-bytes" => {
                slot_bytes = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--link-m" => {
                link_m = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--seed" => {
                let v = args.next().unwrap_or_else(|| usage());
                opts.seed = v.parse().unwrap_or_else(|_| usage());
            }
            "--threads" => {
                let v = args.next().unwrap_or_else(|| usage());
                opts.threads = v.parse().unwrap_or_else(|_| usage());
            }
            "--csv" => {
                let v = args.next().unwrap_or_else(|| usage());
                csv_dir = Some(PathBuf::from(v));
            }
            _ => usage(),
        }
    }
    Args {
        command,
        opts,
        csv_dir,
        nodes,
        slot_bytes,
        link_m,
    }
}

fn emit(id: &str, title: &str, result: &ExperimentResult, csv_dir: &Option<PathBuf>) {
    println!("=== {id}: {title} ===\n");
    for t in &result.tables {
        println!("{}", t.render());
    }
    for n in &result.notes {
        println!("note: {n}");
    }
    println!();
    if let Some(dir) = csv_dir {
        std::fs::create_dir_all(dir).expect("create csv dir");
        for (i, t) in result.tables.iter().enumerate() {
            let path = dir.join(format!("{id}_{i}.csv"));
            let mut f = std::fs::File::create(&path).expect("create csv");
            f.write_all(t.to_csv().as_bytes()).expect("write csv");
            eprintln!("wrote {}", path.display());
        }
    }
}

fn main() {
    let args = parse_args();
    match args.command.as_str() {
        "list" => {
            for (id, title, _) in registry() {
                println!("{id:<4} {title}");
            }
        }
        "model" => print_model(args.nodes, args.slot_bytes, args.link_m),
        "all" => {
            let total = Instant::now();
            for (id, title, run) in registry() {
                let t0 = Instant::now();
                let result = run(&args.opts);
                emit(id, title, &result, &args.csv_dir);
                eprintln!("[{id}] finished in {:.1}s", t0.elapsed().as_secs_f64());
            }
            eprintln!("all experiments in {:.1}s", total.elapsed().as_secs_f64());
        }
        id => match by_id(id) {
            Some((id, title, run)) => {
                let t0 = Instant::now();
                let result = run(&args.opts);
                emit(id, title, &result, &args.csv_dir);
                eprintln!("[{id}] finished in {:.1}s", t0.elapsed().as_secs_f64());
            }
            None => usage(),
        },
    }
}
