#![warn(missing_docs)]

//! Shared experiment-harness utilities for the `sumq-bench` binaries.
//!
//! Every figure of the paper has a binary in `src/bin/` that sweeps the
//! paper's parameter grid and prints an aligned table plus a CSV block
//! (easy to plot). This module holds the common bits: CLI parsing,
//! table rendering and the default sweeps.

use std::env;

/// Parsed command-line options shared by the figure binaries.
#[derive(Debug, Clone)]
pub struct Cli {
    /// Master seed (`--seed N`, default 42).
    pub seed: u64,
    /// Quick mode (`--quick`): smaller grids for CI-speed runs.
    pub quick: bool,
    /// Message plane on (`--latency`): protocol traffic rides
    /// virtual-time delivery events instead of applying instantly.
    pub latency: bool,
    /// Reconciliation cost mode (`--reconcile`, `multidomain_churn`
    /// only): run the full-vs-incremental GS maintenance sweep and emit
    /// `BENCH_reconcile.json` instead of the churn table.
    pub reconcile: bool,
    /// Adaptive-α mode (`--adaptive`, `multidomain_churn` only): run
    /// the heterogeneous-drift fixed-α sweep vs the feedback control
    /// plane and emit `BENCH_alpha.json` instead of the churn table.
    pub adaptive: bool,
    /// Zipf workload (`--zipf`): draw query templates from a Zipf(1.2)
    /// popularity distribution instead of round-robin.
    pub zipf: bool,
    /// SP-rebirth mode (`--rebirth`, `multidomain_churn` only): run
    /// the long-horizon SP-churn stationarity experiment (rebirth off
    /// vs on) and emit `BENCH_rebirth.json` instead of the churn table.
    pub rebirth: bool,
}

impl Cli {
    /// Parses `std::env::args`. Unknown flags abort with usage help.
    pub fn parse() -> Self {
        let mut cli = Cli {
            seed: 42,
            quick: false,
            latency: false,
            reconcile: false,
            adaptive: false,
            zipf: false,
            rebirth: false,
        };
        let mut args = env::args().skip(1);
        while let Some(a) = args.next() {
            match a.as_str() {
                "--seed" => {
                    let v = args
                        .next()
                        .unwrap_or_else(|| usage("missing value for --seed"));
                    cli.seed = v
                        .parse()
                        .unwrap_or_else(|_| usage("--seed takes an integer"));
                }
                "--quick" => cli.quick = true,
                "--latency" => cli.latency = true,
                "--reconcile" => cli.reconcile = true,
                "--adaptive" => cli.adaptive = true,
                "--zipf" => cli.zipf = true,
                "--rebirth" => cli.rebirth = true,
                "--help" | "-h" => usage(""),
                other => usage(&format!("unknown flag `{other}`")),
            }
        }
        cli
    }

    /// The domain-size sweep: the paper's 16–5000 grid, or a reduced one
    /// under `--quick`.
    pub fn domain_sizes(&self) -> Vec<usize> {
        if self.quick {
            vec![16, 50, 100, 250]
        } else {
            vec![16, 50, 100, 500, 1000, 2000, 5000]
        }
    }

    /// The network-size sweep for Figure 7.
    pub fn network_sizes(&self) -> Vec<usize> {
        if self.quick {
            vec![16, 100, 500]
        } else {
            vec![16, 100, 500, 1000, 2000, 3500, 5000]
        }
    }
}

fn usage(err: &str) -> ! {
    if !err.is_empty() {
        eprintln!("error: {err}");
    }
    eprintln!("{USAGE}");
    std::process::exit(if err.is_empty() { 0 } else { 2 });
}

/// The shared usage text of the `sumq-bench` binaries. Every flag is
/// accepted by every binary; the mode flags only change behaviour in
/// `multidomain_churn`, where each selects one experiment and one
/// `BENCH_*.json` artifact.
pub const USAGE: &str = "\
usage: <fig binary> [--seed N] [--quick] [--latency] [--zipf]
                    [--reconcile | --adaptive | --rebirth]

Common options
  --seed N      master seed for every stochastic choice (default 42);
                runs are deterministic per seed in both delivery modes
  --quick       reduced grids / smaller networks for CI-speed runs
  -h, --help    this text

Workload / delivery modifiers (compose with any mode)
  --latency     enable the latency message plane: every push, token,
                query and flood rides a virtual-time delivery event
                costed from topology link latencies + wire size; in
                multidomain_churn the churn table gains a
                time-to-answer column and a hop-latency sweep is
                written to BENCH_latency.json
  --zipf        draw query templates from a Zipf(1.2) popularity law
                instead of round-robin

multidomain_churn modes (mutually exclusive; default: churn table)
  (none)        inter-domain lookups under churn, swept over churn
                intensity at two freshness thresholds; with --latency
                also emits BENCH_latency.json
  --reconcile   full-scratch vs incremental GS maintenance sweep;
                emits BENCH_reconcile.json
  --adaptive    fixed-alpha frontier vs the per-domain adaptive-alpha
                control plane on a heterogeneous-drift network;
                emits BENCH_alpha.json
  --rebirth     long-horizon SP-churn stationarity: terminal
                dissolutions (rebirth off) vs latency-aware SP
                re-election (rebirth on); emits BENCH_rebirth.json

BENCH artifacts (written to the working directory)
  BENCH_latency.json    mean time-to-answer, peak in-flight, hop sweep
  BENCH_reconcile.json  per-round merge work, incremental vs oracle
  BENCH_alpha.json      staleness/bandwidth frontier, adaptive vs fixed
  BENCH_rebirth.json    live-domain trajectory, rebirth counts, the
                        ±10% stationarity check";

/// Exits with status 1 when the simulation runs behind the printed
/// tables swallowed domain-state errors (the reports' `domain_errors`,
/// summed): their numbers describe a corrupted domain.
pub fn exit_on_domain_errors(errors: u64) {
    if errors > 0 {
        eprintln!("error: {errors} domain-state error(s) swallowed; the results above are invalid");
        std::process::exit(1);
    }
}

/// Renders an aligned text table: a header row plus data rows.
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        cells
            .iter()
            .zip(widths)
            .map(|(c, w)| format!("{c:>w$}"))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let head: Vec<String> = headers.iter().map(|h| h.to_string()).collect();
    out.push_str(&fmt_row(&head, &widths));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
        out.push('\n');
    }
    out
}

/// Renders the same rows as CSV (for plotting).
pub fn render_csv(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut out = String::new();
    out.push_str(&headers.join(","));
    out.push('\n');
    for row in rows {
        out.push_str(&row.join(","));
        out.push('\n');
    }
    out
}

/// Formats a float with 4 decimals (figure precision).
pub fn f4(x: f64) -> String {
    format!("{x:.4}")
}

/// Formats a float with 1 decimal.
pub fn f1(x: f64) -> String {
    format!("{x:.1}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_is_aligned() {
        let rows = vec![
            vec!["16".into(), "0.1100".into()],
            vec!["5000".into(), "0.0900".into()],
        ];
        let t = render_table(&["n", "stale"], &rows);
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert_eq!(lines[0].len(), lines[2].len());
        assert!(lines[3].starts_with("5000"));
    }

    #[test]
    fn csv_shape() {
        let rows = vec![vec!["1".into(), "2".into()]];
        let c = render_csv(&["a", "b"], &rows);
        assert_eq!(c, "a,b\n1,2\n");
    }

    #[test]
    fn float_formats() {
        assert_eq!(f4(0.11), "0.1100");
        assert_eq!(f1(1012.34), "1012.3");
    }

    #[test]
    fn default_sweeps_cover_paper_grid() {
        let cli = Cli {
            seed: 42,
            quick: false,
            latency: false,
            reconcile: false,
            adaptive: false,
            zipf: false,
            rebirth: false,
        };
        assert_eq!(cli.domain_sizes().first(), Some(&16));
        assert_eq!(cli.domain_sizes().last(), Some(&5000));
        let quick = Cli {
            seed: 42,
            quick: true,
            latency: false,
            reconcile: false,
            adaptive: false,
            zipf: false,
            rebirth: false,
        };
        assert!(quick.domain_sizes().len() < cli.domain_sizes().len());
    }
}
