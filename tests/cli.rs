//! The `jetstream-cli` binary end to end: generate a graph, derive an
//! update stream from it, then stream the batches through the engine and
//! time each on the accelerator model; plus the exit codes of misuse.

#![expect(
    clippy::unwrap_used,
    reason = "test code: aborting on a setup failure is the right behaviour here"
)]

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn cli(dir: &Path, args: &str) -> Output {
    let bin = env!("CARGO_BIN_EXE_jetstream-cli");
    Command::new(bin).current_dir(dir).args(args.split_whitespace()).output().unwrap()
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("jetstream-cli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn generate_stream_and_simulate_a_run() {
    let dir = tmpdir("chain");
    let generate = cli(&dir, "generate --profile lj --scale 2000 --out lj.txt");
    assert!(generate.status.success(), "{}", stderr(&generate));
    let stream = cli(&dir, "stream --graph lj.txt --out updates.txt --base-out base.txt");
    assert!(stream.status.success(), "{}", stderr(&stream));
    let run = cli(&dir, "run --graph base.txt --algorithm sssp --updates updates.txt --simulate");
    let log = stderr(&run);
    assert!(run.status.success(), "{log}");
    let timed: Vec<&str> = log.lines().filter(|l| l.ends_with(" ms simulated")).collect();
    assert_eq!(timed.len(), 5, "one timed line per batch:\n{log}");
    for (i, line) in timed.iter().enumerate() {
        assert!(line.starts_with(&format!("batch {}: ", i + 1)), "{line}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn misuse_exits_nonzero() {
    let dir = tmpdir("misuse");
    let missing = cli(&dir, "run --algorithm sssp");
    assert_eq!(missing.status.code(), Some(1));
    assert_eq!(stderr(&missing).trim_end(), "error: missing --graph");
    let bare = cli(&dir, "");
    assert_eq!(bare.status.code(), Some(2));
    assert!(stderr(&bare).starts_with("usage:"), "{}", stderr(&bare));
    let generate = cli(&dir, "generate --profile lj --scale 2000 --out lj.txt");
    assert!(generate.status.success(), "{}", stderr(&generate));
    for fraction in ["1.5", "nan"] {
        let args = format!("stream --graph lj.txt --out u.txt --insert-fraction {fraction}");
        let bad = cli(&dir, &args);
        assert_eq!(bad.status.code(), Some(1), "{fraction}: {}", stderr(&bad));
        assert!(stderr(&bad).starts_with("error: invalid --insert-fraction"), "{}", stderr(&bad));
    }
    let far = cli(&dir, "run --graph lj.txt --algorithm sssp --root 999999");
    assert_eq!(far.status.code(), Some(1), "{}", stderr(&far));
    assert!(stderr(&far).contains("error: invalid --root 999999"), "{}", stderr(&far));
    // A negative weight is refused where the file is read, before any
    // batch reaches the engine.
    std::fs::write(dir.join("negative.txt"), "a 1 2 -3\n").unwrap();
    let negative = cli(&dir, "run --graph lj.txt --algorithm sssp --updates negative.txt");
    assert_eq!(negative.status.code(), Some(1), "{}", stderr(&negative));
    assert!(stderr(&negative).contains("negative or non-finite weight"), "{}", stderr(&negative));
    let _ = std::fs::remove_dir_all(&dir);
}
