//! `perfbench` — the repository's benchmark: compile time, schedule
//! quality and serving latency, end to end and layer by layer.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1
//!           [--scale full|smoke] [--corrupt-reference] [--panic-after-setup]
//! ```
//!
//! Workloads (see `BENCHMARK.json` for why each exists and
//! `perfbench/LAYERS.md` for the layer → end-to-end map):
//!
//! * `optflow_cold` — cold compiles of HSOpticalFlow at 512²;
//! * `cluster_churn` — hits and never-seen keys through `ktiler_gateway`
//!   in front of two peer nodes, with a `DRAIN` at the midpoint.
//!
//! With `--trace 0` the last stdout line carries the end-to-end metrics;
//! with `--trace 1` it carries the per-layer metrics taken from spans and
//! in-process layer probes, and the spans are written to
//! `.bench_out/spans-<workload>-seed<N>.json`. Every run checks its
//! outputs; a failed check is counted in `failed`, the result says
//! `"correct": false`, and the process exits 1. `--scale smoke` shrinks
//! both workloads for the self-test; `--corrupt-reference` corrupts the
//! reference outputs so the self-test can show the checks fire, and
//! `--panic-after-setup` panics with the serving processes running, so it
//! can show that a panicking run still reaps them.

mod cold;
mod declared;
mod report;
mod serving;
mod spans;

use std::path::PathBuf;
use std::time::Instant;

use report::Report;
use spans::Tracer;

/// Setups per run; `setup_s` is their median. A cold workload's setup
/// builds its apps; a serving workload's starts fresh processes and warms
/// every key. A fresh node's first analyses vary by about ±20% from
/// process to process, which a median of nine holds steady.
pub const SETUP_ROUNDS: usize = 9;

/// Where runs leave their records, spans and per-run scratch space,
/// relative to the working directory.
const OUT_DIR: &str = ".bench_out";

/// Parsed command line plus the run's scratch directory.
pub struct Opts {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    pub corrupt_reference: bool,
    pub panic_after_setup: bool,
    /// Per-run scratch directory (node caches, port files), removed at exit.
    pub run_dir: PathBuf,
    /// Directory holding `ktiler_serve` and `ktiler_gateway`.
    pub bin_dir: PathBuf,
}

fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: perfbench --workload {{{}}} --seed N --seconds S --trace 0|1 \
         [--scale full|smoke] [--corrupt-reference] [--panic-after-setup]",
        declared::workloads().join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Opts {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let (mut smoke, mut corrupt_reference, mut panic_after_setup) = (false, false, false);
    let mut i = 0;
    while i < args.len() {
        let value = |i: usize| args.get(i + 1).cloned().unwrap_or_else(|| usage("missing value"));
        match args[i].as_str() {
            "--workload" => workload = Some(value(i)),
            "--seed" => seed = Some(value(i).parse().unwrap_or_else(|_| usage("bad --seed"))),
            "--seconds" => {
                seconds = Some(value(i).parse::<f64>().unwrap_or_else(|_| usage("bad --seconds")))
            }
            "--trace" => {
                trace = Some(match value(i).as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                })
            }
            "--scale" => {
                smoke = match value(i).as_str() {
                    "full" => false,
                    "smoke" => true,
                    _ => usage("--scale takes full or smoke"),
                }
            }
            "--corrupt-reference" => {
                corrupt_reference = true;
                i += 1;
                continue;
            }
            "--panic-after-setup" => {
                panic_after_setup = true;
                i += 1;
                continue;
            }
            other => usage(&format!("unknown argument '{other}'")),
        }
        i += 2;
    }
    let workload = workload.unwrap_or_else(|| usage("--workload is required"));
    if !declared::workloads().contains(&workload) {
        usage(&format!("unknown workload '{workload}'"));
    }
    let seconds = seconds.unwrap_or_else(|| usage("--seconds is required"));
    if !(seconds > 0.0 && seconds <= 600.0) {
        usage("--seconds must be in (0, 600]");
    }
    let bin_dir = std::env::current_exe()
        .ok()
        .and_then(|p| p.parent().map(PathBuf::from))
        .unwrap_or_else(|| usage("cannot locate the benchmark's own binary directory"));
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.subsec_nanos());
    let run_dir = PathBuf::from(OUT_DIR).join(format!("run-{}-{nanos}", std::process::id()));
    Opts {
        workload,
        seed: seed.unwrap_or_else(|| usage("--seed is required")),
        seconds,
        trace: trace.unwrap_or_else(|| usage("--trace is required")),
        smoke,
        corrupt_reference,
        panic_after_setup,
        run_dir,
        bin_dir,
    }
}

/// Removes the run's scratch directory on every exit path, panics
/// included. Declared before anything that spawns children, so the
/// children are reaped (their guards drop first) before it runs.
struct ScratchDir(PathBuf);

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn main() {
    let opts = parse_args();
    if let Err(e) = std::fs::create_dir_all(&opts.run_dir) {
        eprintln!("error: cannot create {}: {e}", opts.run_dir.display());
        std::process::exit(1);
    }
    let scratch = ScratchDir(opts.run_dir.clone());
    let scale = if opts.smoke { "smoke" } else { "full" };
    let fingerprint =
        report::fingerprint(&opts.workload, opts.seed, opts.seconds, opts.trace, scale);
    println!("== perfbench {} (seed {}, trace {}) ==", opts.workload, opts.seed, opts.trace as u8);
    println!("fingerprint {fingerprint}");

    let mut tracer = Tracer::new(opts.trace, Instant::now());
    let mut rep = Report::default();
    let outcome = match opts.workload.as_str() {
        "optflow_cold" => cold::run(&opts, &mut tracer, &mut rep),
        _ => serving::run(&opts, &mut tracer, &mut rep),
    };
    if let Err(e) = outcome {
        rep.fail(format!("run aborted: {e}"));
    }
    let listed = declared::declared(if opts.trace { "per_layer" } else { "end_to_end" });
    if !opts.trace {
        rep.metric("ok_frac", rep.ok_frac());
    }
    let missing: Vec<&str> =
        listed.iter().map(|(n, _)| n.as_str()).filter(|n| rep.value(n).is_none()).collect();
    if !missing.is_empty() {
        // Layers a workload does not exercise (a cold compile has no
        // node to ping) read 0; an end-to-end metric must always exist.
        if opts.trace {
            rep.note(format!(
                "not exercised by this workload (reported as 0): {}",
                missing.join(", ")
            ));
        } else {
            rep.fail(format!("end-to-end metrics not measured: {}", missing.join(", ")));
        }
    }

    let tag = format!("{}-seed{}", opts.workload, opts.seed);
    if opts.trace {
        let path = PathBuf::from(OUT_DIR).join(format!("spans-{tag}.json"));
        if let Err(e) = std::fs::write(&path, tracer.to_chrome_json()) {
            eprintln!("warning: cannot write {}: {e}", path.display());
        }
    }
    let line = rep.json_line(&listed);
    let record = format!("{{\"fingerprint\": {fingerprint}, \"result\": {line}}}\n");
    let path = PathBuf::from(OUT_DIR).join(format!("result-{tag}-trace{}.json", opts.trace as u8));
    if let Err(e) = std::fs::write(&path, record) {
        eprintln!("warning: cannot write {}: {e}", path.display());
    }
    print!("{}", rep.human(&listed));
    println!("{line}");
    let code = if rep.correct() { 0 } else { 1 };
    drop(scratch);
    std::process::exit(code);
}
