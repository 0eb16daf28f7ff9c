//! End-to-end check that `serve_sweep`'s scoped thread pool is
//! unobservable: the tables on stdout and the `BENCH_serve.json` and
//! `BENCH_kernel.json` artifacts must be byte-for-byte identical
//! whatever `--jobs` says. Each invocation runs in its own scratch
//! directory because the binary writes the artifacts to the working
//! directory.

use std::path::Path;
use std::process::Command;

/// Runs the sweep binary with `args` in `dir`, returning its stdout and
/// the bytes of each artifact it wrote.
fn run_sweep(dir: &Path, args: &[&str]) -> [Vec<u8>; 3] {
    std::fs::create_dir_all(dir).expect("create scratch dir");
    let out = Command::new(env!("CARGO_BIN_EXE_serve_sweep"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("serve_sweep spawns");
    assert!(
        out.status.success(),
        "serve_sweep {args:?} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let read = |name: &str| std::fs::read(dir.join(name)).expect("artifact written");
    [
        out.stdout,
        read("BENCH_serve.json"),
        read("BENCH_kernel.json"),
    ]
}

#[test]
fn parallel_sweep_is_byte_identical() {
    let base = std::env::temp_dir().join(format!("swat_sweep_jobs_{}", std::process::id()));
    let seq = run_sweep(&base.join("jobs1"), &["--jobs", "1", "7", "40"]);
    let par = run_sweep(&base.join("jobs4"), &["--jobs", "4", "7", "40"]);
    for ((name, seq), par) in ["stdout", "BENCH_serve.json", "BENCH_kernel.json"]
        .iter()
        .zip(&seq)
        .zip(&par)
    {
        assert!(seq == par, "{name} must not depend on --jobs");
    }
    std::fs::remove_dir_all(&base).ok();
}
