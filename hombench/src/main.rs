//! hombench: the repository benchmark.
//!
//! ```text
//! hombench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Generates the workload's inputs from the seed and measures for
//! `--seconds` split into [`SLICES`] slices and [`EPOCHS`] epochs: each
//! epoch sets the system up afresh (timing the set-up) and serves its
//! share of the slices. Every timed answer is checked against an
//! independent solve between slices. Then it prints the metrics. End-to-end times are scaled
//! to a reference host speed measured next to every timed interval
//! (see [`calib`]). With `--trace 0` the
//! last line of standard output carries the end-to-end metrics; with
//! `--trace 1` it carries the per-layer ledger. A copy of the result,
//! with the seed, CPU count and source revision, goes to
//! `.bench_results/`. See README.md for the workloads and metrics.

mod calib;
mod parity;
mod replay;
mod report;
mod serve;
mod stats;
mod sys;
mod trace;
mod watchload;
mod workloads;

use calib::Calibrator;
use report::{EndToEnd, MetricDef};
use stats::{median, percentile, sort};
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::Tracer;
use workloads::Workload;

/// Set-ups per run, each serving an equal share of the slices;
/// `setup_s` is their median. How fast a freshly set-up server runs
/// varies with how its threads first fall on the scheduler, so a run
/// spreads its measurement over several.
pub const EPOCHS: usize = 10;

/// The timed section is split into this many equal slices; per-slice
/// rates and percentiles are reported as their median.
pub const SLICES: usize = 30;

/// One invocation's settings.
#[derive(Debug, Clone)]
pub struct Run {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args(args: &[String]) -> Result<Run, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Run {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Times the measured section: [`SLICES`] slices, each a fixed budget
/// of active time. A caller may pause a slice (to check answers
/// without the clock running) and resume it; only active time, the
/// CPU time spent in it and the memory peak reached in it are
/// measured. The host's speed is sampled at every resume and pause.
pub struct SliceClock {
    budget: Duration,
    /// Active time of the open slice so far.
    used: Duration,
    running: Option<(Instant, f64)>,
    /// Latencies (µs) of the open slice.
    latencies: Vec<f64>,
    ops_per_s: Vec<f64>,
    p50_us: Vec<f64>,
    p95_us: Vec<f64>,
    p99_us: Vec<f64>,
    cpu_s: f64,
    /// Highest resident-set peak of the open slice's active intervals,
    /// in MiB.
    slice_rss_mb: f64,
    rss_peak_mb: Vec<f64>,
    calib: Calibrator,
    ops: u64,
    failed: u64,
}

/// What the timed section measured, at the host's own speed.
#[derive(Debug, Clone)]
pub struct Summary {
    pub attempted: u64,
    pub failed: u64,
    pub ops_per_s: f64,
    pub p50_ms: f64,
    pub p95_ms: f64,
    pub p99_ms: f64,
    pub cpu_us_per_op: f64,
    /// Peak resident set size of the active intervals, in MiB: the
    /// median over slices of each slice's peak.
    pub rss_peak_mb: f64,
    /// Host speed relative to the reference ([`Calibrator::speed`]).
    pub speed: f64,
    /// Calibration samples behind `speed`.
    pub calib_samples: usize,
    /// Per-slice throughput, for the result file.
    pub slice_ops_per_s: Vec<f64>,
}

impl SliceClock {
    pub fn new(seconds: f64) -> SliceClock {
        SliceClock {
            budget: Duration::from_secs_f64(seconds / SLICES as f64),
            used: Duration::ZERO,
            running: None,
            latencies: Vec::new(),
            ops_per_s: Vec::with_capacity(SLICES),
            p50_us: Vec::with_capacity(SLICES),
            p95_us: Vec::with_capacity(SLICES),
            p99_us: Vec::with_capacity(SLICES),
            cpu_s: 0.0,
            slice_rss_mb: 0.0,
            rss_peak_mb: Vec::with_capacity(SLICES),
            calib: Calibrator::default(),
            ops: 0,
            failed: 0,
        }
    }

    /// Starts (or resumes) the clock and returns when the open slice's
    /// budget runs out, or `None` once every slice is done. Resets the
    /// process's memory peak, so checks and set-ups made while the
    /// clock was paused do not count in it.
    pub fn resume(&mut self) -> Option<Instant> {
        assert!(self.running.is_none(), "clock already running");
        if self.ops_per_s.len() == SLICES {
            return None;
        }
        self.calib.sample();
        sys::reset_rss_peak().expect("/proc/self/clear_refs is writable");
        let cpu = sys::process_cpu_s();
        let now = Instant::now();
        self.running = Some((now, cpu));
        Some(now + self.budget.saturating_sub(self.used))
    }

    /// Whether the next epoch is due, `done` having begun: the
    /// [`EPOCHS`] epochs split the slices evenly.
    pub fn epoch_due(&self, done: usize) -> bool {
        done < EPOCHS && self.ops_per_s.len() >= done * SLICES / EPOCHS
    }

    /// Stops the clock, given the latency (µs) of every op completed
    /// since [`SliceClock::resume`] and how many of them failed. Closes
    /// the slice once its budget is used.
    pub fn pause(&mut self, latencies_us: &[f64], failed: usize) {
        let (t0, cpu0) = self.running.take().expect("the clock is running");
        let elapsed = t0.elapsed();
        self.cpu_s += sys::process_cpu_s() - cpu0;
        self.slice_rss_mb = self.slice_rss_mb.max(sys::rss_peak_mb());
        self.calib.sample();
        self.used += elapsed;
        self.latencies.extend_from_slice(latencies_us);
        self.failed += failed as u64;
        if self.used >= self.budget {
            let wall = self.used.as_secs_f64();
            sort(&mut self.latencies);
            self.ops_per_s.push(self.latencies.len() as f64 / wall);
            self.p50_us.push(percentile(&self.latencies, 0.50));
            self.p95_us.push(percentile(&self.latencies, 0.95));
            self.p99_us.push(percentile(&self.latencies, 0.99));
            self.rss_peak_mb.push(self.slice_rss_mb);
            self.slice_rss_mb = 0.0;
            self.ops += self.latencies.len() as u64;
            self.latencies.clear();
            self.used = Duration::ZERO;
        }
    }

    pub fn finish(self) -> Summary {
        Summary {
            attempted: self.ops,
            failed: self.failed,
            ops_per_s: median(&self.ops_per_s),
            p50_ms: median(&self.p50_us) / 1e3,
            p95_ms: median(&self.p95_us) / 1e3,
            p99_ms: median(&self.p99_us) / 1e3,
            cpu_us_per_op: stats::ratio(self.cpu_s * 1e6, self.ops as f64),
            rss_peak_mb: median(&self.rss_peak_mb),
            speed: self.calib.speed(),
            calib_samples: self.calib.samples(),
            slice_ops_per_s: self.ops_per_s,
        }
    }
}

/// What a workload's run hands back.
pub struct RunOutput {
    pub correct: bool,
    pub summary: Summary,
    pub setup_s: f64,
    pub tracer: Tracer,
    /// Log lines (parity verdicts and the like).
    pub notes: Vec<String>,
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let run = match parse_args(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("hombench: {e}");
            eprintln!(
                "usage: hombench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                workloads::ALL.map(Workload::name).join("|")
            );
            return ExitCode::from(2);
        }
    };
    let cpus = sys::cpus();
    let pinned = sys::pin_to_one_cpu().map_or_else(|| "none".to_owned(), |c| c.to_string());
    let out = match run.workload {
        Workload::WatchMixed => watchload::run(&run),
        w => serve::run(w, &run),
    };
    let mut out = match out {
        Ok(o) => o,
        Err(e) => {
            eprintln!("hombench: {} failed: {e}", run.workload.name());
            return ExitCode::FAILURE;
        }
    };
    // The p99 is reported with the layers: on a small virtual machine
    // it is set by host scheduling stalls more than by the program.
    out.tracer
        .count("client.latency_p99_ms", out.summary.p99_ms);
    let measured = EndToEnd {
        ops_per_s: out.summary.ops_per_s,
        latency_p50_ms: out.summary.p50_ms,
        latency_p95_ms: out.summary.p95_ms,
        cpu_us_per_op: out.summary.cpu_us_per_op,
        rss_peak_mb: out.summary.rss_peak_mb,
        setup_s: out.setup_s,
    };
    let e2e = measured.at_speed(out.summary.speed);
    let (defs, values): (&[MetricDef], _) = if run.trace {
        (report::PER_LAYER, report::layer_values(&out.tracer))
    } else {
        (report::END_TO_END, e2e.values())
    };
    let line = match report::result_line(
        out.correct,
        out.summary.attempted,
        out.summary.failed,
        defs,
        &values,
    ) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("hombench: {e}");
            return ExitCode::FAILURE;
        }
    };

    let header = format!(
        "hombench workload={} seed={} seconds={} trace={} cpus={} pinned_cpu={} revision={} source={}",
        run.workload.name(),
        run.seed,
        run.seconds,
        u8::from(run.trace),
        cpus,
        pinned,
        sys::git_revision(),
        sys::source_fingerprint(),
    );
    let mut log = format!("{header}\n");
    for note in &out.notes {
        let _ = writeln!(log, "{note}");
    }
    let _ = writeln!(
        log,
        "host speed {} of the reference ({} calibration samples); as measured: {:?}",
        out.summary.speed,
        out.summary.calib_samples,
        measured.values()
    );
    let _ = writeln!(
        log,
        "ops: {} attempted, {} failed (error_rate {}); slice ops/s {:?}",
        out.summary.attempted,
        out.summary.failed,
        stats::ratio(out.summary.failed as f64, out.summary.attempted as f64),
        out.summary.slice_ops_per_s
    );
    for (def, (_, v)) in defs.iter().zip(&values) {
        let _ = writeln!(
            log,
            "metric {} = {v} {} ({} is better)",
            def.name, def.unit, def.better
        );
    }
    print!("{log}");
    if let Err(e) = save(&run, &log, &line, &out.tracer) {
        eprintln!("hombench: could not write .bench_results: {e}");
    }
    println!("{line}");
    if out.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Writes the log and result line (and, traced, the kept spans) under
/// `.bench_results/`.
fn save(run: &Run, log: &str, line: &str, tracer: &Tracer) -> std::io::Result<()> {
    let dir = std::path::Path::new(".bench_results");
    std::fs::create_dir_all(dir)?;
    let stem = format!(
        "{}-seed{}-trace{}",
        run.workload.name(),
        run.seed,
        u8::from(run.trace)
    );
    std::fs::write(dir.join(format!("{stem}.txt")), format!("{log}{line}\n"))?;
    if run.trace {
        std::fs::write(
            dir.join(format!("{stem}.spans.jsonl")),
            tracer.spans_jsonl(),
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn parses_the_command_line() {
        let r = parse_args(&args(
            "--workload serve-wire --seed 3 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(r.workload, Workload::ServeWire);
        assert_eq!((r.seed, r.seconds, r.trace), (3, 10.0, true));
        assert!(parse_args(&args("--workload nope --seed 3 --seconds 10 --trace 0")).is_err());
        assert!(parse_args(&args("--workload serve-tw --seconds 10 --trace 0")).is_err());
        assert!(parse_args(&args("--workload serve-tw --seed 1 --seconds 0 --trace 0")).is_err());
        assert!(parse_args(&args("--workload serve-tw --seed 1 --seconds 1 --trace 2")).is_err());
    }

    #[test]
    fn slice_clock_reports_medians_over_slices() {
        let mut c = SliceClock::new(0.002 * SLICES as f64);
        let mut n = 0;
        while c.resume().is_some() {
            // Each slice: two paused intervals of 100 ops each.
            std::thread::sleep(Duration::from_millis(1));
            let slice = n / 2 + 1;
            let lat: Vec<f64> = (1..=100).map(|x| f64::from(x) * slice as f64).collect();
            c.pause(&lat, usize::from(n == 0));
            n += 1;
        }
        assert!(n >= SLICES, "at least one interval per slice");
        let s = c.finish();
        assert_eq!(s.failed, 1);
        assert_eq!(s.attempted, 100 * n as u64);
        assert_eq!(s.slice_ops_per_s.len(), SLICES);
        assert!(s.rss_peak_mb > 0.0, "the peak is read at every pause");
        assert_eq!(
            s.calib_samples,
            2 * n,
            "speed is sampled at every resume and pause"
        );
        assert!(s.speed > 0.0);
    }

    #[test]
    fn slice_percentiles_take_the_median_over_slices() {
        let mut c = SliceClock::new(0.0);
        let mut k = 0;
        while c.resume().is_some() {
            k += 1;
            let lat: Vec<f64> = (1..=100).map(|x| f64::from(x) * k as f64).collect();
            c.pause(&lat, 0);
        }
        assert_eq!(k, SLICES);
        let s = c.finish();
        // Slice k has p50 = 50k µs, p95 = 95k µs and p99 = 99k µs; the
        // medians over k = 1..=SLICES are at the middle k.
        let mid = (SLICES as f64 + 1.0) / 2.0;
        assert_eq!(s.p50_ms, 50.0 * mid / 1e3);
        assert_eq!(s.p95_ms, 95.0 * mid / 1e3);
        assert_eq!(s.p99_ms, 99.0 * mid / 1e3);
        assert_eq!(s.attempted, 100 * SLICES as u64);
    }
}
