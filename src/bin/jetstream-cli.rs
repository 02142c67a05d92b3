//! Command-line front end for JetStream.
//!
//! ```text
//! jetstream-cli run      --graph g.txt --algorithm sssp [--root N]
//!                        [--updates u.txt] [--strategy tag|vap|dap|restore]
//!                        [--simulate] [--output values.txt]
//! jetstream-cli generate --profile wk|fb|lj|uk|tw --scale N --out g.txt
//! jetstream-cli stream   --graph g.txt --batches N --size M
//!                        [--insert-fraction F] [--seed S] --out u.txt
//!                        [--base-out base.txt]
//! ```
//!
//! `run` evaluates a query on an edge-list graph, optionally streams update
//! batches through it (printing per-batch work), optionally times each
//! batch on the cycle-level accelerator model, and writes the final vertex
//! values. `generate` materializes the synthetic Table-2 dataset profiles;
//! `stream` derives a structure-respecting update stream from a graph.

use std::collections::HashMap;
use std::io::{BufReader, Write};
use std::process::ExitCode;

use jetstream::algorithms::Workload;
use jetstream::engine::{DeleteStrategy, EngineConfig, StreamingEngine};
use jetstream::graph::gen::{DatasetProfile, EdgeStream};
use jetstream::graph::{io, VertexId};
use jetstream::sim::{AcceleratorSim, SimConfig};

struct Args {
    positional: Vec<String>,
    options: HashMap<String, String>,
    flags: Vec<String>,
}

fn parse_args() -> Args {
    let mut positional = Vec::new();
    let mut options = HashMap::new();
    let mut flags = Vec::new();
    let mut iter = std::env::args().skip(1).peekable();
    while let Some(arg) = iter.next() {
        if let Some(name) = arg.strip_prefix("--") {
            match iter.peek() {
                Some(next) if !next.starts_with("--") => {
                    if let Some(value) = iter.next() {
                        options.insert(name.to_string(), value);
                    }
                }
                _ => flags.push(name.to_string()),
            }
        } else {
            positional.push(arg);
        }
    }
    Args { positional, options, flags }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  jetstream-cli run --graph FILE --algorithm \
         sssp|sswp|bfs|cc|pagerank|adsorption [--root N] [--updates FILE]\n\
         \x20                 [--strategy tag|vap|dap|restore] [--simulate] [--output FILE]\n  \
         jetstream-cli generate --profile wk|fb|lj|uk|tw [--scale N] --out FILE\n  \
         jetstream-cli stream --graph FILE [--batches N] [--size M]\n\
         \x20                 [--insert-fraction F] [--seed S] --out FILE [--base-out FILE]"
    );
    ExitCode::from(2)
}

fn parse_strategy(name: &str) -> Option<DeleteStrategy> {
    match name.to_ascii_lowercase().as_str() {
        "tag" | "base" => Some(DeleteStrategy::Tag),
        "vap" => Some(DeleteStrategy::Vap),
        "dap" => Some(DeleteStrategy::Dap),
        "restore" => Some(DeleteStrategy::DapRestore),
        _ => None,
    }
}

fn cmd_run(args: &Args) -> Result<(), String> {
    let graph_path = args.options.get("graph").ok_or("missing --graph")?;
    let workload = args
        .options
        .get("algorithm")
        .ok_or("missing --algorithm")
        .and_then(|a| Workload::from_name(a).ok_or("unknown algorithm"))?;
    let graph = io::load_graph(graph_path).map_err(|e| e.to_string())?;
    eprintln!(
        "loaded {}: {} vertices, {} edges",
        graph_path,
        graph.num_vertices(),
        graph.num_edges()
    );
    let root: VertexId = match args.options.get("root") {
        Some(r) => r.parse().map_err(|_| "invalid --root")?,
        None => (0..graph.num_vertices() as VertexId).max_by_key(|&v| graph.degree(v)).unwrap_or(0),
    };
    if root as usize >= graph.num_vertices() {
        let n = graph.num_vertices();
        return Err(format!("invalid --root {root}: the graph has {n} vertices"));
    }
    let strategy = match args.options.get("strategy") {
        Some(s) => parse_strategy(s).ok_or("unknown strategy")?,
        None => DeleteStrategy::default(),
    };
    let simulate = args.flags.iter().any(|f| f == "simulate");

    let config = EngineConfig { delete_strategy: strategy, ..EngineConfig::default() };
    let mut engine = StreamingEngine::new(workload.instantiate(root), graph, config);
    engine.set_tracing(simulate);
    let initial = engine.initial_compute();
    eprintln!("initial evaluation: {} events, {} rounds", initial.events_processed, initial.rounds);
    let mut sim = AcceleratorSim::new(SimConfig::jetstream(strategy));
    if simulate {
        let trace = engine.take_trace();
        let report = sim.replay(&trace, engine.csr());
        eprintln!(
            "  simulated: {:.4} ms @ 1 GHz, {:.1} KB off-chip traffic",
            report.time_ms(),
            report.dram.bytes_transferred as f64 / 1024.0
        );
    }

    if let Some(updates_path) = args.options.get("updates") {
        let file = std::fs::File::open(updates_path).map_err(|e| e.to_string())?;
        let batches = io::read_update_batches(BufReader::new(file)).map_err(|e| e.to_string())?;
        eprintln!("streaming {} batches from {updates_path}", batches.len());
        for (i, batch) in batches.iter().enumerate() {
            engine.set_tracing(simulate);
            let stats =
                engine.apply_update_batch(batch).map_err(|e| format!("batch {}: {e}", i + 1))?;
            eprint!(
                "batch {}: +{} -{} -> {} events, {} resets",
                i + 1,
                batch.insertions().len(),
                batch.deletions().len(),
                stats.events_processed,
                stats.resets
            );
            if simulate {
                let trace = engine.take_trace();
                let report = sim.replay(&trace, engine.csr());
                eprint!(", {:.4} ms simulated", report.time_ms());
            }
            eprintln!();
        }
    }

    let mut out: Box<dyn Write> = match args.options.get("output") {
        Some(path) => Box::new(std::fs::File::create(path).map_err(|e| e.to_string())?),
        None => Box::new(std::io::stdout().lock()),
    };
    writeln!(out, "# vertex value ({} from {root})", workload.name()).map_err(|e| e.to_string())?;
    for (v, value) in engine.values().iter().enumerate() {
        writeln!(out, "{v} {value}").map_err(|e| e.to_string())?;
    }
    Ok(())
}

fn cmd_generate(args: &Args) -> Result<(), String> {
    let profile = args
        .options
        .get("profile")
        .ok_or("missing --profile")
        .and_then(|p| DatasetProfile::from_name(p).ok_or("unknown profile"))?;
    let scale: u32 = match args.options.get("scale") {
        Some(s) => s.parse().map_err(|_| "invalid --scale")?,
        None => 1000,
    };
    profile.check_scale(scale).map_err(|why| format!("invalid --scale: {why}"))?;
    let out = args.options.get("out").ok_or("missing --out")?;
    let graph = profile.generate(scale);
    let file = std::fs::File::create(out).map_err(|e| e.to_string())?;
    io::write_edge_list(&graph, std::io::BufWriter::new(file)).map_err(|e| e.to_string())?;
    eprintln!(
        "wrote {} ({}, scale 1/{scale}): {} vertices, {} edges",
        out,
        profile.name(),
        graph.num_vertices(),
        graph.num_edges()
    );
    Ok(())
}

fn cmd_stream(args: &Args) -> Result<(), String> {
    let graph_path = args.options.get("graph").ok_or("missing --graph")?;
    let out = args.options.get("out").ok_or("missing --out")?;
    let batches: usize = match args.options.get("batches") {
        Some(b) => b.parse().map_err(|_| "invalid --batches")?,
        None => 5,
    };
    let size: usize = match args.options.get("size") {
        Some(s) => s.parse().map_err(|_| "invalid --size")?,
        None => 100,
    };
    let fraction: f64 = match args.options.get("insert-fraction") {
        Some(f) => f
            .parse()
            .ok()
            .filter(|f| (0.0..=1.0).contains(f))
            .ok_or("invalid --insert-fraction: not a number within [0, 1]")?,
        None => 0.7,
    };
    let seed: u64 = match args.options.get("seed") {
        Some(s) => s.parse().map_err(|_| "invalid --seed")?,
        None => 42,
    };
    let graph = io::load_graph(graph_path).map_err(|e| e.to_string())?;
    let mut stream = EdgeStream::new(&graph, 0.1, seed);
    let base = stream.graph().clone();
    let produced: Vec<_> = (0..batches).map(|_| stream.next_batch(size, fraction)).collect();
    let file = std::fs::File::create(out).map_err(|e| e.to_string())?;
    io::write_update_batches(&produced, std::io::BufWriter::new(file))
        .map_err(|e| e.to_string())?;
    eprintln!("wrote {batches} batches of ~{size} updates to {out}");
    match args.options.get("base-out") {
        Some(base_path) => {
            let file = std::fs::File::create(base_path).map_err(|e| e.to_string())?;
            io::write_edge_list(&base, std::io::BufWriter::new(file)).map_err(|e| e.to_string())?;
            eprintln!("wrote the matching base graph (10% holdout removed) to {base_path}");
        }
        None => eprintln!(
            "note: these updates apply to {graph_path} minus a 10% holdout; \
             pass --base-out FILE to write that base graph"
        ),
    }
    Ok(())
}

fn main() -> ExitCode {
    let args = parse_args();
    let Some(command) = args.positional.first() else {
        return usage();
    };
    let result = match command.as_str() {
        "run" => cmd_run(&args),
        "generate" => cmd_generate(&args),
        "stream" => cmd_stream(&args),
        _ => return usage(),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}
