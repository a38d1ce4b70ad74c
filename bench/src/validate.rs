//! `sosbench validate [BENCHMARK.json]`: checks the benchmark
//! declaration against its schema and against the catalogue this binary
//! reports, so the two cannot drift apart.

use crate::catalog::{END_TO_END, PER_LAYER, WORKLOADS};
use serde_json::Value;
use std::collections::HashSet;
use std::process::ExitCode;

const MAX_BYTES: usize = 64 * 1024;

fn is_name(s: &str) -> bool {
    s.len() <= 64
        && s.starts_with(|c: char| c.is_ascii_alphanumeric())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn is_unit(s: &str) -> bool {
    (1..=16).contains(&s.len())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

fn is_relative_path(s: &str) -> bool {
    (1..=200).contains(&s.len())
        && !s.starts_with('/')
        && s.split('/').all(|part| part != "..")
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-/".contains(c))
}

fn need(errs: &mut Vec<String>, ok: bool, msg: String) {
    if !ok {
        errs.push(msg);
    }
}

fn keys(v: &Value) -> Vec<&str> {
    v.as_map()
        .map(|m| m.iter().map(|(k, _)| k.as_str()).collect())
        .unwrap_or_default()
}

/// Every way `doc` (the text of `BENCHMARK.json`, `len` bytes) breaks
/// the schema or disagrees with the catalogue; empty when valid.
pub fn errors(doc: &Value, len: usize) -> Vec<String> {
    let mut errs = Vec::new();
    need(
        &mut errs,
        len <= MAX_BYTES,
        format!("file is {len} bytes, over {MAX_BYTES}"),
    );
    let top = [
        "command",
        "paths",
        "run_seconds",
        "workloads",
        "end_to_end",
        "per_layer",
    ];
    need(
        &mut errs,
        keys(doc) == top,
        format!(
            "top-level keys must be exactly {top:?}, got {:?}",
            keys(doc)
        ),
    );

    let list = |key: &str| doc[key].as_array().cloned().unwrap_or_default();
    let (command, paths) = (list("command"), list("paths"));
    let paths: Vec<&str> = paths.iter().filter_map(Value::as_str).collect();
    need(
        &mut errs,
        (1..=16).contains(&paths.len()),
        format!("paths: need 1 to 16 entries, got {}", paths.len()),
    );
    for p in &paths {
        need(
            &mut errs,
            is_relative_path(p),
            format!("paths: `{p}` is not a relative path of [A-Za-z0-9_.-/]"),
        );
    }
    need(
        &mut errs,
        (1..=32).contains(&command.len()),
        format!("command: need 1 to 32 strings, got {}", command.len()),
    );
    for arg in &command {
        let Some(arg) = arg.as_str() else {
            need(
                &mut errs,
                false,
                "command: every entry must be a string".into(),
            );
            continue;
        };
        need(
            &mut errs,
            arg.len() <= 200,
            format!("command: `{arg}` is over 200 characters"),
        );
        need(
            &mut errs,
            !arg.starts_with('/') && !arg.split('/').any(|p| p == ".."),
            format!("command: `{arg}` leaves the repo"),
        );
        let inside =
            |p: &&str| arg == *p || arg.starts_with(&format!("{}/", p.trim_end_matches('/')));
        need(
            &mut errs,
            !arg.contains('/') || paths.iter().any(inside),
            format!("command: `{arg}` is outside paths"),
        );
    }
    let run_seconds = doc["run_seconds"].as_u64().unwrap_or(0);
    need(
        &mut errs,
        (1..=60).contains(&run_seconds),
        "run_seconds: need a whole number from 1 to 60".into(),
    );

    let mut names = HashSet::new();
    let mut name_of = |entry: &Value, what: &str, errs: &mut Vec<String>| {
        let name = entry["name"].as_str().unwrap_or("").to_string();
        need(
            errs,
            is_name(&name),
            format!("{what}: `{name}` is not a valid name"),
        );
        need(
            errs,
            names.insert(name.clone()),
            format!("{what}: `{name}` is used twice"),
        );
        name
    };
    let (workloads, e2e, per_layer) = (list("workloads"), list("end_to_end"), list("per_layer"));
    need(
        &mut errs,
        (2..=8).contains(&workloads.len()),
        format!("workloads: need 2 to 8, got {}", workloads.len()),
    );
    need(
        &mut errs,
        (1..=16).contains(&e2e.len()),
        format!("end_to_end: need 1 to 16, got {}", e2e.len()),
    );
    need(
        &mut errs,
        (1..=128).contains(&per_layer.len()),
        format!("per_layer: need 1 to 128, got {}", per_layer.len()),
    );

    let mut workload_names = Vec::new();
    for w in &workloads {
        workload_names.push(name_of(w, "workloads", &mut errs));
        let why = w["why"].as_str().unwrap_or("");
        need(
            &mut errs,
            keys(w) == ["name", "why"],
            format!("workloads: {:?} needs exactly name and why", w["name"]),
        );
        need(
            &mut errs,
            !why.is_empty() && why.len() <= 200 && !why.contains('\n'),
            format!("workloads: bad why for {:?}", w["name"]),
        );
    }
    let mut e2e_names = Vec::new();
    for m in &e2e {
        let name = name_of(m, "end_to_end", &mut errs);
        need(
            &mut errs,
            keys(m) == ["name", "unit", "better", "bound"],
            format!("end_to_end: `{name}` needs exactly name, unit, better, bound"),
        );
        let bound = m["bound"].as_f64().unwrap_or(-1.0);
        need(
            &mut errs,
            (0.0..=0.25).contains(&bound),
            format!("end_to_end: `{name}` bound must be within 0 and 0.25"),
        );
        e2e_names.push((
            name,
            m["unit"].as_str().unwrap_or("").to_string(),
            m["better"].as_str().unwrap_or("").to_string(),
        ));
    }
    let setup = e2e_names.iter().find(|(n, _, _)| n == "setup_s");
    need(
        &mut errs,
        setup.is_some_and(|(_, u, b)| u == "s" && b == "lower"),
        "end_to_end: needs setup_s in s, lower is better".into(),
    );
    let mut layer_names = Vec::new();
    for m in &per_layer {
        let name = name_of(m, "per_layer", &mut errs);
        need(
            &mut errs,
            keys(m) == ["name", "unit", "better"],
            format!("per_layer: `{name}` needs exactly name, unit, better"),
        );
        layer_names.push((
            name,
            m["unit"].as_str().unwrap_or("").to_string(),
            m["better"].as_str().unwrap_or("").to_string(),
        ));
    }
    for (name, unit, better) in e2e_names.iter().chain(&layer_names) {
        need(
            &mut errs,
            is_unit(unit),
            format!("`{name}`: unit `{unit}` is not valid"),
        );
        need(
            &mut errs,
            better == "lower" || better == "higher",
            format!("`{name}`: better must be lower or higher"),
        );
    }

    // Agreement with what this binary reports.
    need(
        &mut errs,
        workload_names == WORKLOADS,
        format!("workloads must be {WORKLOADS:?} in that order"),
    );
    let declared = |list: &[(String, String, String)], m: &crate::catalog::Metric| {
        list.iter()
            .any(|(n, u, b)| n == m.name && u == m.unit && b == m.better)
    };
    need(
        &mut errs,
        e2e_names.len() == END_TO_END.len(),
        "end_to_end must list exactly the reported metrics".into(),
    );
    for m in END_TO_END {
        need(
            &mut errs,
            declared(&e2e_names, &m),
            format!(
                "end_to_end: missing `{}` ({}, {})",
                m.name, m.unit, m.better
            ),
        );
    }
    need(
        &mut errs,
        layer_names.len() == PER_LAYER.len(),
        "per_layer must list exactly the reported metrics".into(),
    );
    for l in PER_LAYER {
        need(
            &mut errs,
            declared(&layer_names, &l.metric),
            format!("per_layer: missing `{}`", l.metric.name),
        );
        need(
            &mut errs,
            e2e_names.iter().any(|(n, _, _)| n == l.moves),
            format!("per_layer `{}` moves unknown `{}`", l.metric.name, l.moves),
        );
        need(
            &mut errs,
            workload_names.iter().any(|w| w == l.on),
            format!(
                "per_layer `{}` names unknown workload `{}`",
                l.metric.name, l.on
            ),
        );
    }
    errs
}

pub fn main(args: &[String]) -> Result<ExitCode, String> {
    let path = args.first().map_or("BENCHMARK.json", String::as_str);
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let doc: Value = serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))?;
    let errs = errors(&doc, text.len());
    for e in &errs {
        println!("{path}: {e}");
    }
    if errs.is_empty() {
        println!("{path}: ok");
    }
    Ok(if errs.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn repo_doc() -> (Value, usize) {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        (
            serde_json::from_str(&text).expect("BENCHMARK.json parses"),
            text.len(),
        )
    }

    fn edited(edit: impl FnOnce(&mut Vec<(String, Value)>)) -> Vec<String> {
        let (doc, len) = repo_doc();
        let Value::Map(mut entries) = doc else {
            panic!("top level is an object")
        };
        edit(&mut entries);
        errors(&Value::Map(entries), len)
    }

    fn field<'a>(entries: &'a mut [(String, Value)], key: &str) -> &'a mut Value {
        &mut entries
            .iter_mut()
            .find(|(k, _)| k == key)
            .expect("key present")
            .1
    }

    #[test]
    fn the_repos_benchmark_json_is_valid() {
        let (doc, len) = repo_doc();
        assert_eq!(errors(&doc, len), Vec::<String>::new());
    }

    #[test]
    fn names_must_match_the_name_pattern() {
        assert!(is_name("cold_ms") && is_name("chord10k-trials") && is_name("a.b"));
        assert!(!is_name("") && !is_name("-x") && !is_name("a b") && !is_name(&"x".repeat(65)));
        let errs = edited(|e| {
            let Value::Seq(ws) = field(e, "workloads") else {
                panic!()
            };
            ws[0] = serde_json::json!({ "name": "bad name", "why": "x" });
        });
        assert!(
            errs.iter().any(|e| e.contains("not a valid name")),
            "{errs:?}"
        );
    }

    #[test]
    fn workload_and_metric_counts_are_bounded() {
        let errs = edited(|e| {
            let Value::Seq(ws) = field(e, "workloads") else {
                panic!()
            };
            ws.truncate(1);
        });
        assert!(errs.iter().any(|e| e.contains("need 2 to 8")), "{errs:?}");
        let errs = edited(|e| {
            let Value::Seq(ms) = field(e, "end_to_end") else {
                panic!()
            };
            let first = ms[0].clone();
            ms.resize(17, first);
        });
        assert!(errs.iter().any(|e| e.contains("need 1 to 16")), "{errs:?}");
        let errs = edited(|e| {
            let Value::Seq(ms) = field(e, "per_layer") else {
                panic!()
            };
            let first = ms[0].clone();
            ms.resize(129, first);
        });
        assert!(errs.iter().any(|e| e.contains("need 1 to 128")), "{errs:?}");
    }

    #[test]
    fn per_layer_metrics_must_map_to_existing_metrics_and_workloads() {
        for layer in PER_LAYER {
            assert!(
                END_TO_END.iter().any(|m| m.name == layer.moves),
                "{layer:?}"
            );
            assert!(WORKLOADS.contains(&layer.on), "{layer:?}");
        }
        // Dropping the end-to-end metric a layer maps to is reported.
        let errs = edited(|e| {
            let Value::Seq(ms) = field(e, "end_to_end") else {
                panic!()
            };
            ms.retain(|m| m["name"].as_str() != Some("cold_ms"));
        });
        assert!(
            errs.iter().any(|e| e.contains("moves unknown `cold_ms`")),
            "{errs:?}"
        );
    }

    #[test]
    fn bounds_and_paths_are_checked() {
        let errs = edited(|e| {
            let Value::Seq(ms) = field(e, "end_to_end") else {
                panic!()
            };
            ms[0] = serde_json::json!({ "name": "setup_s", "unit": "s", "better": "lower", "bound": 0.3 });
        });
        assert!(
            errs.iter().any(|e| e.contains("within 0 and 0.25")),
            "{errs:?}"
        );
        let errs = edited(|e| *field(e, "paths") = serde_json::json!(["../elsewhere"]));
        assert!(
            errs.iter().any(|e| e.contains("not a relative path")),
            "{errs:?}"
        );
    }
}
