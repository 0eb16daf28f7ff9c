//! The per-operation correctness gate and the determinism digest.
//!
//! Each check returns the problems it found instead of panicking, so a
//! failed operation is counted and the run's other metrics survive.

use crate::api::{ReportFacts, SimCounts};

/// FNV-1a, 64-bit.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// FNV-1a over the little-endian bytes of `values`.
pub fn fnv1a_f32(values: &[f32]) -> u64 {
    values.iter().fold(0xcbf2_9ce4_8422_2325, |h, v| {
        v.to_le_bytes().iter().fold(h, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    })
}

/// What one serve cell produced, as the gate sees it.
#[derive(Debug, Clone)]
pub struct ServeOutput<'a> {
    /// Requests in the generated trace.
    pub trace_len: usize,
    /// The report's counts and percentiles.
    pub facts: ReportFacts,
    /// The kernel's counts.
    pub counts: SimCounts,
    /// Whether the report JSON re-parsed.
    pub json_reparses: bool,
    /// The report JSON.
    pub json: &'a str,
    /// The traced run's report JSON, when a traced run was made.
    pub traced_json: Option<&'a str>,
}

/// Checks one serve cell: conservation, arrivals, percentile order, JSON
/// re-parse and traced-equals-untraced.
pub fn serve_problems(out: &ServeOutput<'_>) -> Vec<String> {
    let mut problems = Vec::new();
    let f = &out.facts;
    if f.completed + f.rejected + f.failed != f.offered {
        problems.push(format!(
            "completed {} + rejected {} + failed {} != offered {}",
            f.completed, f.rejected, f.failed, f.offered
        ));
    }
    if out.counts.arrivals != out.trace_len as u64 {
        problems.push(format!(
            "{} arrival events for a trace of {}",
            out.counts.arrivals, out.trace_len
        ));
    }
    match f.percentiles {
        Some((p50, p95, p99)) if !(p50 <= p95 && p95 <= p99) => {
            problems.push(format!("percentiles out of order: {p50} {p95} {p99}"));
        }
        None if f.completed > 0 => {
            problems.push(format!(
                "no latency summary for {} completions",
                f.completed
            ));
        }
        _ => {}
    }
    if !out.json_reparses {
        problems.push("report JSON does not re-parse".to_string());
    }
    if let Some(traced) = out.traced_json {
        if traced != out.json {
            problems.push("traced report differs from the untraced one".to_string());
        }
    }
    problems
}

/// What one datapath head produced, as the gate sees it.
#[derive(Debug, Clone, Copy)]
pub struct HeadOutput<'a> {
    /// Table 2 design name.
    pub design: &'a str,
    /// Sequence length.
    pub n: usize,
    /// Largest |simulated − reference| element error.
    pub max_err: f32,
    /// The crate's test tolerance for this precision.
    pub tolerance: f32,
    /// K/V rows fetched once through the FIFO.
    pub kv_loads: u64,
    /// K/V rows re-fetched by random-attention cores.
    pub kv_reloads: u64,
}

/// Checks one head against the reference and the design's K/V traffic.
pub fn head_problems(out: &HeadOutput<'_>) -> Vec<String> {
    let mut problems = Vec::new();
    // A NaN error fails too.
    if out.max_err.is_nan() || out.max_err > out.tolerance {
        problems.push(format!(
            "{}: max error {} exceeds {}",
            out.design, out.max_err, out.tolerance
        ));
    }
    if out.design.starts_with("longformer") && out.kv_loads != out.n as u64 {
        problems.push(format!(
            "{}: kv_loads {} != n {}",
            out.design, out.kv_loads, out.n
        ));
    }
    if out.design.starts_with("bigbird") && out.kv_reloads == 0 {
        problems.push(format!("{}: no kv_reloads", out.design));
    }
    problems
}

#[cfg(test)]
mod tests {
    use super::*;

    fn good() -> ServeOutput<'static> {
        ServeOutput {
            trace_len: 10,
            facts: ReportFacts {
                offered: 10,
                completed: 8,
                rejected: 1,
                failed: 1,
                shards_lost: 0,
                percentiles: Some((1.0, 2.0, 2.0)),
            },
            counts: SimCounts {
                arrivals: 10,
                ..SimCounts::default()
            },
            json_reparses: true,
            json: "{}",
            traced_json: Some("{}"),
        }
    }

    #[test]
    fn fnv1a_matches_the_reference_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a_f32(&[1.0]), fnv1a(&1.0f32.to_le_bytes()));
    }

    #[test]
    fn each_serve_check_fires_on_its_own() {
        assert!(serve_problems(&good()).is_empty());
        let mut o = good();
        o.facts.completed = 9;
        assert_eq!(serve_problems(&o).len(), 1);
        let mut o = good();
        o.counts.arrivals = 9;
        assert_eq!(serve_problems(&o).len(), 1);
        let mut o = good();
        o.facts.percentiles = Some((3.0, 2.0, 2.0));
        assert_eq!(serve_problems(&o).len(), 1);
        let mut o = good();
        o.facts.percentiles = None;
        assert_eq!(serve_problems(&o).len(), 1);
        let mut o = good();
        o.json_reparses = false;
        assert_eq!(serve_problems(&o).len(), 1);
        let mut o = good();
        o.traced_json = Some("{\"x\": 1}");
        assert_eq!(serve_problems(&o).len(), 1);
    }

    #[test]
    fn each_head_check_fires_on_its_own() {
        let ok = HeadOutput {
            design: "longformer_fp16",
            n: 64,
            max_err: 0.001,
            tolerance: 0.05,
            kv_loads: 64,
            kv_reloads: 0,
        };
        assert!(head_problems(&ok).is_empty());
        assert_eq!(head_problems(&HeadOutput { max_err: 0.1, ..ok }).len(), 1);
        assert_eq!(
            head_problems(&HeadOutput {
                max_err: f32::NAN,
                ..ok
            })
            .len(),
            1
        );
        assert_eq!(head_problems(&HeadOutput { kv_loads: 63, ..ok }).len(), 1);
        let bigbird = HeadOutput {
            design: "bigbird_fp16",
            kv_reloads: 5,
            ..ok
        };
        assert!(head_problems(&bigbird).is_empty());
        assert_eq!(
            head_problems(&HeadOutput {
                kv_reloads: 0,
                ..bigbird
            })
            .len(),
            1
        );
    }
}
