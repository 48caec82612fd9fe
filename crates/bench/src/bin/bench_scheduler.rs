//! `bench_scheduler` — wall-clock cost of the offline scheduling pipeline
//! (block analysis, calibration, Algorithm 1 + Algorithm 2) on the full
//! HSOpticalFlow DFG, written as JSON for regression tracking.
//!
//! Usage:
//!
//! ```text
//! bench_scheduler [--size N] [--iters N] [--samples K]
//!                 [--baseline FILE] [--out FILE]
//! ```
//!
//! With `--baseline FILE` (a previous run's JSON), the output embeds the
//! baseline timings and the speedup of the current build over it. The
//! default output path is `results/BENCH_scheduler.json`.
//!
//! Besides the phase timings (`analyze_ms` — the fast structural/affine
//! path a cold service request runs, `analyze_full_ms` — the classical
//! record-everything pipeline, `calibrate_ms`, `ktiler_schedule_ms`, and
//! `cold_request_ms` — analyze + calibrate + schedule on a fresh
//! application), the run cross-checks the fast analyzer against the
//! full-trace reference (`analyze_match`, with `analyze_speedup` derived
//! from the same run), the workload's dependency graph against the serial
//! word-level `DepGraphBuilder` (`analyzer_match`), and hashes the emitted
//! schedule from both dependency graphs (`schedule_hash`,
//! `schedule_hash_match`) — the CI smoke test fails on any mismatch, on
//! `analyze_speedup < 5`, or on `analyze_ms` above 1.5x the committed
//! `results/BENCH_scheduler_smoke.json`.

use bench::timing::{bench, BenchStats};
use bench::{build_workload_app, paper_ktiler_config, prepare, schedule_at, Scale};
use gpu_sim::FreqConfig;
use kgraph::GraphTrace;
use ktiler::{calibrate, ktiler_schedule, schedule_to_text, CalibrationConfig};
use trace::{BlockRef, DepGraphBuilder};

fn arg_value(name: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter().position(|a| a == name).and_then(|i| args.get(i + 1).cloned())
}

/// Extracts `"key": number` pairs from the `"timings_ms"` object of a
/// previous run's JSON (which this tool itself wrote — the parser only
/// needs to understand its own output format).
fn parse_baseline(text: &str) -> Vec<(String, f64)> {
    let Some(start) = text.find("\"timings_ms\"") else { return Vec::new() };
    let Some(open) = text[start..].find('{') else { return Vec::new() };
    let body = &text[start + open + 1..];
    let Some(close) = body.find('}') else { return Vec::new() };
    body[..close]
        .split(',')
        .filter_map(|pair| {
            let (k, v) = pair.split_once(':')?;
            let key = k.trim().trim_matches('"').to_string();
            let val: f64 = v.trim().parse().ok()?;
            Some((key, val))
        })
        .collect()
}

fn json_object(pairs: &[(String, f64)], indent: &str) -> String {
    let fields: Vec<String> =
        pairs.iter().map(|(k, v)| format!("{indent}  \"{k}\": {v:.3}")).collect();
    format!("{{\n{}\n{indent}}}", fields.join(",\n"))
}

/// FNV-1a over a byte string: stable schedule fingerprint across runs.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn main() {
    let scale = Scale::from_args();
    let samples: usize =
        arg_value("--samples").map(|s| s.parse().expect("bad --samples")).unwrap_or(3);
    let out_path = arg_value("--out").unwrap_or_else(|| "results/BENCH_scheduler.json".to_string());
    let freq = FreqConfig::default();

    println!(
        "== scheduler benchmark: HSOpticalFlow {}x{}, {} levels, {} JI/step, {} samples ==",
        scale.size, scale.size, scale.levels, scale.iters, samples
    );

    let w = prepare(scale);
    println!(
        "graph: {} nodes, {} block-dependency edges",
        w.app.graph.num_nodes(),
        w.gt.deps.num_edges()
    );

    let mut timings: Vec<(String, f64)> = Vec::new();
    let mut push = |name: &str, s: BenchStats| timings.push((name.to_string(), s.median_ns / 1e6));

    // Block analysis (Sec. IV-B), fast path: structural trace reuse +
    // analytical affine footprints, functional execution only where a
    // recorded kernel needs the values. This is what a cold service
    // request pays. Each run needs a freshly built application — analysis
    // executes (part of) the graph and mutates device memory.
    let mut apps: Vec<_> = (0..samples).map(|_| build_workload_app(scale)).collect();
    let line_bytes = w.cfg.cache.line_bytes;
    let analyze_stats = bench("analyze (fast)", 0, samples, || {
        let mut app = apps.pop().expect("one prebuilt app per sample");
        kgraph::analyze_fast(&app.graph, &mut app.mem, line_bytes)
            .expect("optical-flow graph is a DAG")
    });
    push("analyze_ms", analyze_stats);
    let analyze_ms = analyze_stats.median_ns / 1e6;

    // Full-trace reference: the classical record-every-kernel pipeline the
    // fast path must match byte for byte. One sample — this is the slow
    // oracle the speedup is measured against.
    let mut app_fast = build_workload_app(scale);
    let gt_fast = kgraph::analyze_fast(&app_fast.graph, &mut app_fast.mem, line_bytes)
        .expect("optical-flow graph is a DAG");
    let mut app_ref = build_workload_app(scale);
    let full_stats = bench("analyze (full-trace reference)", 0, 1, || {
        kgraph::analyze_reference_with(&app_ref.graph, &mut app_ref.mem, line_bytes, 1)
            .expect("optical-flow graph is a DAG")
    });
    push("analyze_full_ms", full_stats);
    let analyze_full_ms = full_stats.median_ns / 1e6;
    let analyze_speedup = analyze_full_ms / analyze_ms;
    let mut app_ref = build_workload_app(scale);
    let gt_ref = kgraph::analyze_reference_with(&app_ref.graph, &mut app_ref.mem, line_bytes, 1)
        .expect("optical-flow graph is a DAG");
    let analyze_match = gt_fast.deps == gt_ref.deps
        && gt_fast.order == gt_ref.order
        && gt_fast.nodes.len() == gt_ref.nodes.len()
        && gt_fast.nodes.iter().zip(&gt_ref.nodes).all(|(a, b)| *a.blocks == *b.blocks);
    println!(
        "fast analyzer == full-trace reference: {analyze_match} ({analyze_speedup:.1}x speedup)"
    );

    // Calibration: performance tables + edge weights (Sec. IV-C).
    let cal_stats = bench("calibrate", 0, samples, || {
        calibrate(&w.app.graph, &w.gt, &w.cfg, freq, &CalibrationConfig::default())
    });
    push("calibrate_ms", cal_stats);
    let cal = calibrate(&w.app.graph, &w.gt, &w.cfg, freq, &CalibrationConfig::default());

    // Algorithm 1 (greedy clustering) + Algorithm 2 (ClusterTile).
    let kcfg = paper_ktiler_config(&w.cfg);
    let sched_stats =
        bench("ktiler_schedule", 0, samples, || ktiler_schedule(&w.app.graph, &w.gt, &cal, &kcfg));
    push("ktiler_schedule_ms", sched_stats);

    // End-to-end offline pass as an application would invoke it.
    let e2e_stats = bench("calibrate+schedule", 0, samples, || schedule_at(&w, freq));
    push("end_to_end_ms", e2e_stats);

    // A true cold request: what the scheduling service pays on a cache
    // miss with an empty workload memo — analyze + calibrate + schedule,
    // starting from a freshly built application.
    let mut cold_apps: Vec<_> = (0..samples).map(|_| build_workload_app(scale)).collect();
    let cold_stats = bench("cold request (analyze+calibrate+schedule)", 0, samples, || {
        let mut app = cold_apps.pop().expect("one prebuilt app per sample");
        let gt = kgraph::analyze_fast(&app.graph, &mut app.mem, line_bytes)
            .expect("optical-flow graph is a DAG");
        let cal = calibrate(&app.graph, &gt, &w.cfg, freq, &CalibrationConfig::default());
        ktiler_schedule(&app.graph, &gt, &cal, &kcfg)
            .expect("benchmark workloads are non-empty and freshly calibrated")
    });
    push("cold_request_ms", cold_stats);

    // ---- Cross-check: structural analyzer vs serial word builder. -----
    // Replay the exact visit order of the analysis run through the serial
    // `DepGraphBuilder` and require its graph to equal the one the
    // workload was actually analyzed with.
    let mut builder = DepGraphBuilder::new();
    for &id in &w.gt.order {
        for (b, t) in w.gt.nodes[id.0 as usize].blocks.iter().enumerate() {
            builder.visit_block(BlockRef::new(id.0, b as u32), t);
        }
    }
    let serial_deps = builder.finish();
    let analyzer_match = serial_deps == w.gt.deps;
    println!("analyzer graph == serial word builder: {analyzer_match}");

    // Schedule fingerprint: the emitted schedule must be byte-identical
    // whether the tiler consumed the workload's dependency graph or the
    // serial builder's.
    let (_, out) = schedule_at(&w, freq);
    let schedule_hash = fnv1a(schedule_to_text(&out.schedule).as_bytes());
    let gt_serial =
        GraphTrace { nodes: w.gt.nodes.clone(), deps: serial_deps, order: w.gt.order.clone() };
    let cal_serial =
        calibrate(&w.app.graph, &gt_serial, &w.cfg, freq, &CalibrationConfig::default());
    let out_serial = ktiler_schedule(&w.app.graph, &gt_serial, &cal_serial, &kcfg)
        .expect("benchmark workloads are non-empty and freshly calibrated");
    let serial_hash = fnv1a(schedule_to_text(&out_serial.schedule).as_bytes());
    let schedule_hash_match = schedule_hash == serial_hash;
    println!("schedule hash {schedule_hash:#018x} (serial-path match: {schedule_hash_match})");

    let baseline = arg_value("--baseline").map(|p| {
        let text = std::fs::read_to_string(&p).unwrap_or_else(|e| panic!("read {p}: {e}"));
        let b = parse_baseline(&text);
        assert!(!b.is_empty(), "no timings_ms found in baseline {p}");
        b
    });

    let mut json = String::from("{\n");
    json.push_str(&format!(
        "  \"workload\": {{\"size\": {}, \"iters\": {}, \"levels\": {}, \"nodes\": {}, \"block_dep_edges\": {}}},\n",
        scale.size,
        scale.iters,
        scale.levels,
        w.app.graph.num_nodes(),
        w.gt.deps.num_edges()
    ));
    json.push_str(&format!("  \"samples\": {samples},\n"));
    json.push_str(&format!("  \"schedule_hash\": \"{schedule_hash:#018x}\",\n"));
    json.push_str(&format!("  \"analyze_match\": {analyze_match},\n"));
    json.push_str(&format!("  \"analyze_speedup\": {analyze_speedup:.1},\n"));
    json.push_str(&format!("  \"analyzer_match\": {analyzer_match},\n"));
    json.push_str(&format!("  \"schedule_hash_match\": {schedule_hash_match},\n"));
    json.push_str(&format!("  \"timings_ms\": {}", json_object(&timings, "  ")));
    if let Some(base) = &baseline {
        json.push_str(&format!(",\n  \"baseline_ms\": {}", json_object(base, "  ")));
        let speedups: Vec<(String, f64)> = timings
            .iter()
            .filter_map(|(k, v)| {
                let (_, b) = base.iter().find(|(bk, _)| bk == k)?;
                Some((k.clone(), b / v))
            })
            .collect();
        json.push_str(&format!(",\n  \"speedup\": {}", json_object(&speedups, "  ")));
        println!("\nspeedup over baseline:");
        for (k, s) in &speedups {
            println!("  {k:<24} {s:.2}x");
        }
    }
    json.push_str("\n}\n");

    if let Some(dir) = std::path::Path::new(&out_path).parent() {
        std::fs::create_dir_all(dir).expect("create output directory");
    }
    std::fs::write(&out_path, &json).unwrap_or_else(|e| panic!("write {out_path}: {e}"));
    println!("\nwrote {out_path}");
}
