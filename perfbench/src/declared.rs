//! The workload and metric lists, read from `BENCHMARK.json` when the
//! benchmark is compiled, so the declaration is their one source.

/// `BENCHMARK.json` at the repository root.
pub const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// `(name, unit)` of every entry in one list of `BENCHMARK.json`
/// (`workloads`, `end_to_end` or `per_layer`); entries without a unit,
/// the workloads, get an empty one.
pub fn declared(section: &str) -> Vec<(String, String)> {
    let start = BENCHMARK_JSON
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no \"{section}\" list"));
    let body = &BENCHMARK_JSON[start..];
    let body = &body[..body.find(']').expect("each list in BENCHMARK.json closes")];
    let field = |entry: &str, key: &str| {
        let pat = format!("\"{key}\": \"");
        entry.find(&pat).map(|at| {
            let from = at + pat.len();
            entry[from..from + entry[from..].find('"').expect("closing quote")].to_string()
        })
    };
    body.split('{')
        .skip(1)
        .map(|e| {
            (
                field(e, "name").expect("every entry has a name"),
                field(e, "unit").unwrap_or_default(),
            )
        })
        .collect()
}

/// The workload names, in `BENCHMARK.json` order.
pub fn workloads() -> Vec<String> {
    declared("workloads").into_iter().map(|(name, _)| name).collect()
}
