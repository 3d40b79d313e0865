//! `BENCHMARK.json` and the benchmark binary must name the same workloads and
//! metrics with the same units.

use e2ebench::report::{end_to_end, per_layer};
use e2ebench::Workload;

/// `(name, unit)` of every entry of one top-level array, read with plain
/// string scanning (entries are flat objects with `"name"` first).
fn entries(json: &str, key: &str) -> Vec<(String, Option<String>)> {
    let start = json.find(&format!("\"{key}\"")).unwrap_or_else(|| panic!("no {key}"));
    let body = &json[start..];
    let body = &body[..body.find(']').expect("array ends")];
    let field = |obj: &str, f: &str| {
        obj.find(&format!("\"{f}\"")).map(|i| {
            let rest = &obj[i + f.len() + 2..];
            let open = rest.find('"').expect("string value") + 1;
            let close = rest[open..].find('"').expect("string ends");
            rest[open..open + close].to_string()
        })
    };
    body.split('{')
        .skip(1)
        .map(|obj| (field(obj, "name").expect("entry has a name"), field(obj, "unit")))
        .collect()
}

#[test]
fn benchmark_json_matches_the_binary() {
    let json = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("read BENCHMARK.json");
    let workloads: Vec<String> = entries(&json, "workloads").into_iter().map(|e| e.0).collect();
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, names);
    for (key, catalogue) in [("end_to_end", end_to_end()), ("per_layer", per_layer())] {
        let listed = entries(&json, key);
        let binary: Vec<(String, Option<String>)> =
            catalogue.into_iter().map(|(n, u)| (n, Some(u.to_string()))).collect();
        assert_eq!(listed, binary, "{key} differs");
    }
}
