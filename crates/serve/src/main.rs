//! `jetstream-serve`: the streaming ingestion server.
//!
//! ```text
//! jetstream-serve serve [--listen ADDR] [--unix PATH] [--algorithm NAME]
//!                       [--root N] [--profile NAME] [--scale N]
//!                       [--flush-updates N] [--flush-ms MS]
//!                       [--durable DIR] [--checkpoint-interval N]
//!                       [--inflight N]
//! ```
//!
//! `serve` runs until stdin reaches EOF (press Ctrl-D), then shuts down
//! gracefully — sealing the open batch and, for durable backends, writing
//! a final checkpoint (see DESIGN.md §15).

use std::io::BufRead;
use std::path::PathBuf;

use jetstream_algorithms::Workload;
use jetstream_core::{EngineConfig, StreamingEngine};
use jetstream_graph::gen::DatasetProfile;
use jetstream_graph::AdjacencyGraph;
use jetstream_serve::admission::FlushPolicy;
use jetstream_serve::backend::Backend;
use jetstream_serve::server::{self, Endpoint, ServerConfig};
use jetstream_store::{DurableEngine, RecoveryOptions, StoreOptions};

fn usage() -> ! {
    eprintln!(
        "usage: jetstream-serve serve [--listen ADDR] [--unix PATH] [--algorithm NAME] \
         [--root N] [--profile NAME] [--scale N] [--flush-updates N] [--flush-ms MS] \
         [--durable DIR] [--checkpoint-interval N] [--inflight N]"
    );
    std::process::exit(2);
}

fn fail(msg: &str) -> ! {
    eprintln!("jetstream-serve: {msg}");
    std::process::exit(1);
}

fn parse_workload(name: &str) -> Workload {
    let unknown = || fail(&format!("unknown algorithm {}", name.to_ascii_lowercase()));
    Workload::from_name(name).unwrap_or_else(unknown)
}

fn parse_profile(name: &str) -> DatasetProfile {
    let unknown = || fail(&format!("unknown dataset profile {}", name.to_ascii_lowercase()));
    DatasetProfile::from_name(name).unwrap_or_else(unknown)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("serve") => cmd_serve(&args[1..]),
        _ => usage(),
    }
}

struct ServeOpts {
    listen: Option<String>,
    unix: Option<PathBuf>,
    workload: Workload,
    root: u32,
    profile: DatasetProfile,
    scale: u32,
    flush_updates: usize,
    flush_ms: u64,
    durable: Option<PathBuf>,
    checkpoint_interval: u64,
    inflight: u32,
}

fn take_value<'a>(args: &'a [String], i: &mut usize) -> &'a str {
    *i += 1;
    match args.get(*i) {
        Some(v) => v,
        None => usage(),
    }
}

fn parse_serve_opts(args: &[String]) -> ServeOpts {
    let mut opts = ServeOpts {
        listen: None,
        unix: None,
        workload: Workload::Sssp,
        root: 0,
        profile: DatasetProfile::Facebook,
        scale: 1000,
        flush_updates: FlushPolicy::default().max_updates,
        flush_ms: FlushPolicy::default().max_delay_ns / 1_000_000,
        durable: None,
        checkpoint_interval: StoreOptions::default().checkpoint_interval,
        inflight: ServerConfig::default().inflight_limit,
    };
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--listen" => opts.listen = Some(take_value(args, &mut i).to_string()),
            "--unix" => opts.unix = Some(PathBuf::from(take_value(args, &mut i))),
            "--algorithm" => opts.workload = parse_workload(take_value(args, &mut i)),
            "--root" => opts.root = parse_num(take_value(args, &mut i)),
            "--profile" => opts.profile = parse_profile(take_value(args, &mut i)),
            "--scale" => opts.scale = parse_num(take_value(args, &mut i)),
            "--flush-updates" => opts.flush_updates = parse_num(take_value(args, &mut i)),
            "--flush-ms" => opts.flush_ms = parse_num(take_value(args, &mut i)),
            "--durable" => opts.durable = Some(PathBuf::from(take_value(args, &mut i))),
            "--checkpoint-interval" => {
                opts.checkpoint_interval = parse_num(take_value(args, &mut i));
            }
            "--inflight" => opts.inflight = parse_num(take_value(args, &mut i)),
            _ => usage(),
        }
        i += 1;
    }
    if opts.listen.is_none() && opts.unix.is_none() {
        opts.listen = Some(String::from("127.0.0.1:7477"));
    }
    let checked = check_inflight(opts.inflight).and_then(|()| {
        opts.profile.check_scale(opts.scale).map_err(|why| format!("invalid --scale: {why}"))
    });
    if let Err(msg) = checked {
        fail(&msg);
    }
    opts
}

/// `--inflight 0` would answer `Busy` to every update message.
fn check_inflight(inflight: u32) -> Result<(), String> {
    if inflight == 0 {
        return Err(String::from("--inflight must be at least 1"));
    }
    Ok(())
}

/// `--root N` must name a vertex of the graph the engine is mounted on.
fn check_root(root: u32, graph: &AdjacencyGraph) -> Result<(), String> {
    let num_vertices = graph.num_vertices();
    if root as usize >= num_vertices {
        return Err(format!("--root {root} is outside the graph's {num_vertices} vertices"));
    }
    Ok(())
}

fn parse_num<T: std::str::FromStr>(s: &str) -> T {
    match s.parse() {
        Ok(v) => v,
        Err(_) => fail(&format!("bad numeric argument {s}")),
    }
}

fn build_backend(opts: &ServeOpts) -> Backend {
    let alg = || opts.workload.instantiate(opts.root);
    let config = EngineConfig::default();
    let generate = || {
        let graph = opts.profile.generate(opts.scale);
        if let Err(msg) = check_root(opts.root, &graph) {
            fail(&msg);
        }
        graph
    };
    let Some(dir) = &opts.durable else {
        eprintln!(
            "[serve] generating {} (scale {}) and computing the initial state...",
            opts.profile.name(),
            opts.scale
        );
        let graph = generate();
        let mut engine = StreamingEngine::new(alg(), graph, config);
        engine.initial_compute();
        return Backend::Volatile(Box::new(engine));
    };
    let options =
        StoreOptions { checkpoint_interval: opts.checkpoint_interval, ..StoreOptions::default() };
    if dir.join("MANIFEST").exists() {
        eprintln!("[serve] recovering store at {}", dir.display());
        match DurableEngine::recover(dir, alg(), config, options, RecoveryOptions::default()) {
            Ok((engine, report)) => {
                if let Err(msg) = check_root(opts.root, engine.engine().graph()) {
                    fail(&msg);
                }
                eprintln!(
                    "[serve] recovered to sequence {} ({} batches replayed)",
                    report.recovered_sequence, report.replayed_batches
                );
                Backend::Durable(Box::new(engine))
            }
            Err(e) => fail(&format!("recovery failed: {e}")),
        }
    } else {
        eprintln!(
            "[serve] creating store at {} from {} (scale {})",
            dir.display(),
            opts.profile.name(),
            opts.scale
        );
        let graph = generate();
        let mut engine = StreamingEngine::new(alg(), graph, config);
        engine.initial_compute();
        match DurableEngine::create(dir, engine, options) {
            Ok(engine) => Backend::Durable(Box::new(engine)),
            Err(e) => fail(&format!("store creation failed: {e}")),
        }
    }
}

fn cmd_serve(args: &[String]) {
    let opts = parse_serve_opts(args);
    let backend = build_backend(&opts);
    let algorithm = backend.engine().algorithm().name().to_string();
    let num_vertices = backend.graph().num_vertices();
    let config = ServerConfig {
        flush: FlushPolicy {
            max_updates: opts.flush_updates,
            max_delay_ns: opts.flush_ms.saturating_mul(1_000_000),
        },
        inflight_limit: opts.inflight,
    };
    let mut endpoints = Vec::new();
    if let Some(addr) = &opts.listen {
        endpoints.push(Endpoint::Tcp(addr.clone()));
    }
    if let Some(path) = &opts.unix {
        endpoints.push(Endpoint::Unix(path.clone()));
    }
    let handle = match server::start(backend, config, &endpoints) {
        Ok(handle) => handle,
        Err(e) => fail(&format!("cannot start: {e}")),
    };
    if let Some(addr) = handle.tcp_addr() {
        eprintln!("[serve] listening on tcp {addr}");
    }
    if let Some(path) = &opts.unix {
        eprintln!("[serve] listening on unix {}", path.display());
    }
    eprintln!("[serve] {algorithm} over {num_vertices} vertices; Ctrl-D to stop");
    // Park until stdin closes; the session threads do all the work.
    let stdin = std::io::stdin();
    for line in stdin.lock().lines() {
        if line.is_err() {
            break;
        }
    }
    eprintln!("[serve] shutting down...");
    let report = handle.shutdown();
    let s = report.stats;
    eprintln!(
        "[serve] applied {} batches / {} updates ({} safe, {} unsafe, {} all-safe-delete), \
         {} busy, {} rejected, {} checkpoints, {} connections",
        s.batches_applied,
        s.updates_applied,
        s.safe_updates,
        s.unsafe_updates,
        s.fast_path_batches,
        s.busy_rejections,
        s.rejected_updates,
        s.checkpoints,
        s.connections
    );
    if let Some(fatal) = report.fatal {
        fail(&format!("server stopped on fatal error: {fatal}"));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn option_values_the_engine_cannot_serve_are_refused() {
        assert_eq!(check_inflight(1), Ok(()));
        assert!(check_inflight(0).unwrap_err().contains("--inflight"));

        let graph = AdjacencyGraph::new(513);
        assert_eq!(check_root(512, &graph), Ok(()));
        let err = check_root(513, &graph).unwrap_err();
        assert!(err.contains("--root 513") && err.contains("513 vertices"), "{err}");

        let fb = parse_profile("fb");
        assert_eq!(fb.check_scale(1000), Ok(()));
        assert!(fb.check_scale(0).unwrap_err().contains("positive"));
        assert!(fb.check_scale(u32::MAX).unwrap_err().contains("too few vertices"));
    }
}
