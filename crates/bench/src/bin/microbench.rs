//! Component microbenchmark rig (see DESIGN.md §12).
//!
//! Usage:
//!
//! ```text
//! microbench [--quick] [--out FILE] [--check [--baseline FILE] [--factor F]]
//! ```
//!
//! Default run measures every benchmark (warmup + median-of-K) and writes
//! `BENCH.json` in the current directory — run it from the repo root to
//! refresh the committed numbers. `--quick` switches to the reduced-K CI
//! configuration (fewer samples, smaller instances). `--check` compares
//! the fresh medians against the committed `BENCH.json` (or `--baseline
//! FILE`) and exits 1 when any benchmark errors, is missing, or regresses
//! more than `--factor` (default 2.5) times its baseline median; it also
//! enforces the same-run ordering gates in `micro::CROSS_CHECKS`. With
//! `--check`, nothing is written unless `--out` is also given.

use jetstream_bench::micro::{self, MicroConfig};

fn usage() -> ! {
    eprintln!("usage: microbench [--quick] [--out FILE] [--check [--baseline FILE] [--factor F]]");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut quick = false;
    let mut check = false;
    let mut out_file: Option<String> = None;
    let mut baseline_file = String::from("BENCH.json");
    let mut factor = 2.5_f64;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--quick" => quick = true,
            "--check" => check = true,
            "--out" => {
                i += 1;
                out_file = Some(args.get(i).cloned().unwrap_or_else(|| usage()));
            }
            "--baseline" => {
                i += 1;
                baseline_file = args.get(i).cloned().unwrap_or_else(|| usage());
            }
            "--factor" => {
                i += 1;
                factor = args.get(i).and_then(|s| s.parse().ok()).unwrap_or_else(|| usage());
            }
            _ => usage(),
        }
        i += 1;
    }

    let (cfg, mode) =
        if quick { (MicroConfig::quick(), "quick") } else { (MicroConfig::full(), "full") };
    let results = match micro::run_all(&cfg) {
        Ok(results) => results,
        Err(e) => {
            eprintln!("microbench failed: {e}");
            std::process::exit(1);
        }
    };
    let json = micro::to_json(&results, &cfg, mode);

    let destination = match (&out_file, check) {
        (Some(path), _) => Some(path.clone()),
        (None, false) => Some(String::from("BENCH.json")),
        (None, true) => None,
    };
    if let Some(path) = destination {
        if let Err(e) = std::fs::write(&path, &json) {
            eprintln!("microbench: cannot write {path}: {e}");
            std::process::exit(1);
        }
        eprintln!("[microbench] results written to {path}");
    } else {
        print!("{json}");
    }

    if check {
        let committed = match std::fs::read_to_string(&baseline_file) {
            Ok(text) => text,
            Err(e) => {
                eprintln!("microbench: cannot read baseline {baseline_file}: {e}");
                std::process::exit(1);
            }
        };
        let baseline = micro::parse_medians(&committed);
        if baseline.is_empty() {
            eprintln!("microbench: baseline {baseline_file} contains no benchmarks");
            std::process::exit(1);
        }
        let mut problems = micro::regressions(&results, &baseline, factor);
        // Same-run ordering gates (e.g. incremental snapshot maintenance
        // must beat the full rebuild) are immune to machine-speed drift:
        // both sides come from this very run.
        problems.extend(micro::cross_regressions(&results));
        if !problems.is_empty() {
            for p in &problems {
                eprintln!("microbench: {p}");
            }
            std::process::exit(1);
        }
        eprintln!(
            "[microbench] check ok: {} benchmarks within {factor}x of {baseline_file}, {} cross-checks hold",
            results.len(),
            micro::CROSS_CHECKS.len()
        );
    }
}
