//! Checks that the benchmark builds the committed streams and that
//! `BENCHMARK.json` names exactly the metrics the harness prints.
//!
//! Run from the repository root:
//! `cargo test --release --manifest-path benchmark/Cargo.toml`

use std::path::Path;

use dtrack_benchmark::replay::{self, Params};
use dtrack_benchmark::{per_layer_metrics, END_TO_END};

fn repo_file(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("..").join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// The `"words"` of cell `id` in `BENCH_baseline.json`.
fn baseline_words(json: &str, id: &str) -> u64 {
    let at = json
        .find(&format!("\"id\": \"{id}\""))
        .unwrap_or_else(|| panic!("cell {id} missing from BENCH_baseline.json"));
    let rest = &json[at..];
    let w = rest.find("\"words\": ").expect("words field") + "\"words\": ".len();
    let end = rest[w..].find([',', '}']).expect("end of words");
    rest[w..w + end].trim().parse().expect("integer words")
}

/// At `perf_baseline`'s parameters (n = 60 000, k = 16, ε = 0.05,
/// seeds 0–2), the median words of replay's nine exact jobs equal the
/// nine exact cells of `BENCH_baseline.json`.
#[test]
fn replay_jobs_reproduce_the_exact_baseline_cells() {
    let json = repo_file("BENCH_baseline.json");
    let p = Params {
        k: 16,
        n: 60_000,
        chunk: 1_000,
    };
    let per_seed: Vec<Vec<replay::JobInput>> = (0..3).map(|s| replay::inputs(p, s)).collect();
    let mut checked = 0;
    for (j, input) in per_seed[0].iter().enumerate() {
        if matches!(input.id, "count.tree" | "frequency.faults") {
            continue; // no exact baseline cell
        }
        let mut words: Vec<u64> = (0..3u64)
            .map(|s| replay::run_job(p, s, &per_seed[s as usize][j], false).words)
            .collect();
        words.sort_unstable();
        let cell = input.id.replace('.', "/");
        assert_eq!(words[1], baseline_words(&json, &cell), "cell {cell}");
        checked += 1;
    }
    assert_eq!(checked, 9);
}

/// `BENCHMARK.json` lists the end-to-end and per-layer metrics the
/// harness prints, in the same order, with the same units.
#[test]
fn benchmark_json_names_the_printed_metrics() {
    let json = repo_file("BENCHMARK.json");
    let section = |key: &str| -> Vec<(String, String)> {
        let start = json.find(&format!("\"{key}\"")).expect("section");
        let body = &json[start..];
        let end = body.find(']').expect("section end");
        body[..end]
            .split("\"name\": \"")
            .skip(1)
            .map(|entry| {
                let name = entry[..entry.find('"').expect("name end")].to_string();
                let u = entry.find("\"unit\": \"").expect("unit") + "\"unit\": \"".len();
                let unit = entry[u..u + entry[u..].find('"').expect("unit end")].to_string();
                (name, unit)
            })
            .collect()
    };
    let e2e: Vec<(String, String)> = END_TO_END
        .iter()
        .map(|&(n, u)| (n.to_string(), u.to_string()))
        .collect();
    assert_eq!(section("end_to_end"), e2e);
    let layers: Vec<(String, String)> = per_layer_metrics()
        .into_iter()
        .map(|(n, u)| (n, u.to_string()))
        .collect();
    assert_eq!(section("per_layer"), layers);
}

/// Tracing changes nothing on the lock-step path: a traced job sends
/// the same words and bytes and gives the same answers.
#[test]
fn traced_jobs_match_untraced_jobs() {
    let p = Params {
        k: 8,
        n: 20_000,
        chunk: 2_000,
    };
    for input in replay::inputs(p, 7) {
        let plain = replay::run_job(p, 7, &input, false);
        let traced = replay::run_job(p, 7, &input, true);
        assert_eq!(plain.words, traced.words, "{}", input.id);
        assert_eq!(plain.bytes, traced.bytes, "{}", input.id);
        assert_eq!(plain.answers, traced.answers, "{}", input.id);
        assert_eq!(plain.levels, traced.levels, "{}", input.id);
        assert_eq!(plain.final_answers, traced.final_answers, "{}", input.id);
        assert_eq!(plain.faults, traced.faults, "{}", input.id);
    }
}
