//! Shared plumbing for the table/figure reproduction binaries.
//!
//! Every table and figure in the paper's evaluation has a binary in
//! `src/bin/` that regenerates it:
//!
//! | Binary    | Reproduces |
//! |-----------|------------|
//! | `fig1`    | Figure 1 — FLOPs/MOPs breakdown vs input length |
//! | `fig2`    | Figure 2 — sliding-chunks redundancy, formula vs measured |
//! | `fig3`    | Figure 3 — execution time & memory vs GPU dense / sliding chunks |
//! | `fig8`    | Figure 8 — speedup of SWAT over BTF-1/BTF-2 |
//! | `fig9`    | Figure 9 — energy efficiency vs Butterfly and GPU |
//! | `table1`  | Table 1 — pipeline stage timing |
//! | `table2`  | Table 2 — FPGA resource utilisation |
//! | `table3`  | Table 3 — LRA accuracy gains + the fidelity proxy |
//! | `table4`  | Table 4 — ImageNet Top-1 records |
//! | `ablations` | DESIGN.md §6 — dataflow ablation study |
//! | `stability` | extension — raw-exp fusion vs online-max softmax in FP16 |
//! | `precision` | extension — binary16 vs Q-format fixed point |
//! | `accuracy_proxy` | extension — trained ridge-readout accuracy per pattern |
//! | `gantt`   | ASCII pipeline-occupancy view of the Table 1 schedule |
//! | `serve_sweep` | extension — multi-card request-serving sweep over declarative scenario specs, emits `BENCH_serve.json` and each cell's kernel counters as `BENCH_kernel.json` |
//! | `capacity_plan` | extension — deterministic capacity-planning autotuner (cost-model-pruned search, Pareto frontier), emits `BENCH_plan.json` |
//!
//! Criterion micro-benchmarks of the actual kernels live in `benches/`.

use std::fmt::Display;

/// A deferred simulation cell for [`run_cells`]: owns everything it needs
/// so the pool can run it on any worker thread.
pub type Cell<T> = Box<dyn FnOnce() -> T + Send>;

/// One executed cell: the (deterministic) value it produced plus the one
/// non-deterministic side channel — the cell's own wall-clock, which only
/// ever reaches stderr via [`scenario_timing`].
pub struct CellOut<T> {
    /// Whatever the cell computed (a report, a tuned point, …).
    pub value: T,
    /// The cell's wall-clock seconds *on its worker*. Summing these over
    /// a scenario gives CPU-seconds regardless of `--jobs`, so timing
    /// lines stay meaningful — and comparable — at any parallelism.
    pub wall_s: f64,
}

/// Runs every cell on a scoped thread pool of `jobs` workers and returns
/// the results indexed exactly like the input. Workers claim cells from a
/// shared atomic cursor, so a slow cell never blocks an idle worker; with
/// `--jobs 1` the cells run in order on one worker. Nothing downstream
/// can observe the execution order: all output assembly happens after the
/// scope joins, reading this vector in cell-index order.
///
/// Shared by `serve_sweep` (sweep cells) and `capacity_plan` (autotuner
/// cells): both get per-cell wall-clock measured inside the worker, so
/// [`scenario_timing`]'s summed CPU-seconds cover autotuner-launched
/// cells exactly like hand-enumerated sweep cells.
pub fn run_cells<T: Send>(cells: Vec<Cell<T>>, jobs: usize) -> Vec<CellOut<T>> {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;

    let queue: Vec<Mutex<Option<Cell<T>>>> =
        cells.into_iter().map(|c| Mutex::new(Some(c))).collect();
    let slots: Vec<Mutex<Option<CellOut<T>>>> = queue.iter().map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);
    let workers = jobs.min(queue.len()).max(1);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= queue.len() {
                    break;
                }
                let cell = queue[i]
                    .lock()
                    .unwrap()
                    .take()
                    .expect("each cell runs once");
                let started = std::time::Instant::now();
                let value = cell();
                *slots[i].lock().unwrap() = Some(CellOut {
                    value,
                    wall_s: started.elapsed().as_secs_f64(),
                });
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| slot.into_inner().unwrap().expect("every cell ran"))
        .collect()
}

/// Reports a scenario's (or autotuner generation's) compute cost to
/// stderr. `wall` is the sum of the per-cell wall-clock times from
/// [`run_cells`] — CPU-seconds under `--jobs N`, elapsed time under
/// `--jobs 1`. stdout (the tables) and the JSON artifacts stay
/// byte-identical — CI's sha-compare and any `2>/dev/null` consumer are
/// unaffected.
pub fn scenario_timing(scenario: &str, runs: usize, events: u64, wall: f64) {
    let rate = if wall > 0.0 {
        events as f64 / wall
    } else {
        0.0
    };
    eprintln!(
        "timing: {scenario:<14} {runs:>2} runs  {events:>9} kernel events  \
         {wall:>6.2} s wall  {rate:>9.0} events/s"
    );
}

/// Prints a right-aligned table: a header row then data rows, columns sized
/// to fit.
pub fn print_table<R: AsRef<[String]>>(headers: &[&str], rows: &[R]) {
    let ncols = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.as_ref().iter().enumerate().take(ncols) {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let line = |cells: Vec<String>| {
        let joined: Vec<String> = cells
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!("{c:>w$}"))
            .collect();
        println!("| {} |", joined.join(" | "));
    };
    line(headers.iter().map(|s| s.to_string()).collect());
    let total: usize = widths.iter().sum::<usize>() + 3 * ncols + 1;
    println!("{}", "-".repeat(total));
    for row in rows {
        line(row.as_ref().to_vec());
    }
}

/// Formats a float with engineering-style precision for tables.
pub fn fmt_val(x: impl Into<f64>) -> String {
    let x: f64 = x.into();
    if x == 0.0 {
        "0".to_string()
    } else if x.abs() >= 100.0 {
        format!("{x:.0}")
    } else if x.abs() >= 1.0 {
        format!("{x:.2}")
    } else {
        format!("{x:.4}")
    }
}

/// Formats seconds as milliseconds.
pub fn fmt_ms(seconds: f64) -> String {
    format!("{:.3}", seconds * 1e3)
}

/// Formats bytes as mebibytes.
pub fn fmt_mib(bytes: u64) -> String {
    format!("{:.1}", bytes as f64 / (1024.0 * 1024.0))
}

/// Formats a ratio as "12.3x".
pub fn fmt_ratio(x: f64) -> String {
    format!("{x:.1}x")
}

/// The input-length sweep used by Figures 3, 8 and 9.
pub const SWEEP_LENGTHS: [usize; 5] = [1024, 2048, 4096, 8192, 16384];

/// The extended sweep of Figure 3 (starts at 512).
pub const FIG3_LENGTHS: [usize; 6] = [512, 1024, 2048, 4096, 8192, 16384];

/// Prints a section banner.
pub fn banner(title: impl Display) {
    println!();
    println!("=== {title} ===");
    println!();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formatting_helpers() {
        assert_eq!(fmt_val(0.0), "0");
        assert_eq!(fmt_val(123.4), "123");
        assert_eq!(fmt_val(1.234), "1.23");
        assert_eq!(fmt_val(0.1234), "0.1234");
        assert_eq!(fmt_ms(0.0015), "1.500");
        assert_eq!(fmt_mib(1024 * 1024), "1.0");
        assert_eq!(fmt_ratio(6.66), "6.7x");
    }

    #[test]
    fn table_printer_does_not_panic() {
        print_table(&["a", "bb"], &[vec!["1".to_string(), "2".to_string()]]);
    }
}
