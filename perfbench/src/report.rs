//! The result line: the metric catalogue lives in `BENCHMARK.json` at the
//! root of the checkout, and a run prints exactly the metrics that file
//! lists for its mode — `end_to_end` untraced, `per_layer` traced — each
//! with the unit the file gives it.

use std::collections::BTreeMap;
use std::path::Path;

use fair_simlab::json::{self, Json};

/// Metric values a run measured, by name.
pub type Metrics = BTreeMap<String, f64>;

/// One catalogue entry.
#[derive(Clone, Debug, PartialEq)]
pub struct MetricSpec {
    /// Metric name.
    pub name: String,
    /// Unit string.
    pub unit: String,
}

/// The two metric lists of `BENCHMARK.json`.
#[derive(Clone, Debug, Default)]
pub struct Catalogue {
    /// Untraced metrics.
    pub end_to_end: Vec<MetricSpec>,
    /// Traced metrics.
    pub per_layer: Vec<MetricSpec>,
    /// Workload names.
    pub workloads: Vec<String>,
}

/// Whether `name` is a legal metric or workload name: starts with a
/// letter or digit, at most 64 characters of `[A-Za-z0-9_.-]`.
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

impl Catalogue {
    /// Parses the catalogue out of a `BENCHMARK.json` document.
    pub fn parse(text: &str) -> Result<Catalogue, String> {
        let doc = json::parse(text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
        let list = |key: &str| -> Result<Vec<MetricSpec>, String> {
            let Some(Json::Arr(items)) = json::get(&doc, key) else {
                return Err(format!("BENCHMARK.json: `{key}` is not a list"));
            };
            items
                .iter()
                .map(
                    |item| match (json::get(item, "name"), json::get(item, "unit")) {
                        (Some(Json::Str(name)), Some(Json::Str(unit))) if valid_name(name) => {
                            Ok(MetricSpec {
                                name: name.clone(),
                                unit: unit.clone(),
                            })
                        }
                        _ => Err(format!("BENCHMARK.json: malformed entry in `{key}`")),
                    },
                )
                .collect()
        };
        let workloads = match json::get(&doc, "workloads") {
            Some(Json::Arr(items)) => items
                .iter()
                .filter_map(|w| match json::get(w, "name") {
                    Some(Json::Str(name)) => Some(name.clone()),
                    _ => None,
                })
                .collect(),
            _ => return Err("BENCHMARK.json: `workloads` is not a list".to_string()),
        };
        Ok(Catalogue {
            end_to_end: list("end_to_end")?,
            per_layer: list("per_layer")?,
            workloads,
        })
    }

    /// Loads `BENCHMARK.json` from the checkout root.
    pub fn load(root: &Path) -> Result<Catalogue, String> {
        let path = root.join("BENCHMARK.json");
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        Catalogue::parse(&text)
    }
}

/// Renders the result line. Every catalogue metric of the mode must have
/// a finite measured value; anything else is an error, never a guess.
pub fn result_line(
    specs: &[MetricSpec],
    measured: &Metrics,
    attempted: u64,
    failed: u64,
) -> Result<String, String> {
    let mut metrics = Json::obj();
    for spec in specs {
        let value = *measured
            .get(&spec.name)
            .ok_or_else(|| format!("metric `{}` was not measured", spec.name))?;
        if !value.is_finite() {
            return Err(format!("metric `{}` is not finite: {value}", spec.name));
        }
        metrics = metrics.field(
            &spec.name,
            Json::obj()
                .field("value", Json::Num(value))
                .field("unit", Json::str(&spec.unit)),
        );
    }
    Ok(Json::obj()
        .field("correct", Json::Bool(failed == 0 && attempted > 0))
        .field("attempted", Json::num(attempted as f64))
        .field("failed", Json::num(failed as f64))
        .field("metrics", metrics)
        .render())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn catalogue() -> Catalogue {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
        Catalogue::load(&path).expect("BENCHMARK.json parses")
    }

    #[test]
    fn every_catalogue_name_uses_the_allowed_characters() {
        let cat = catalogue();
        let names: Vec<&String> = cat
            .end_to_end
            .iter()
            .chain(&cat.per_layer)
            .map(|m| &m.name)
            .chain(&cat.workloads)
            .collect();
        assert!(names.len() > 3);
        for name in &names {
            assert!(valid_name(name), "{name}");
        }
        let mut unique = names.clone();
        unique.sort();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "a name is used twice");
        assert!(!valid_name("has space"));
        assert!(!valid_name("_leading"));
        assert!(!valid_name("a/b"));
        assert!(!valid_name(&"x".repeat(65)));
    }

    #[test]
    fn the_catalogue_names_the_three_workloads_and_setup_time() {
        let cat = catalogue();
        assert_eq!(
            cat.workloads,
            ["batch_protocols", "batch_analytic", "serve"]
        );
        assert!(cat
            .end_to_end
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
    }

    #[test]
    fn result_line_lists_exactly_the_catalogue_and_refuses_gaps() {
        let specs = vec![MetricSpec {
            name: "setup_s".into(),
            unit: "s".into(),
        }];
        let mut measured = Metrics::new();
        assert!(result_line(&specs, &measured, 1, 0).is_err());
        measured.insert("setup_s".into(), 0.8127);
        measured.insert("extra".into(), 1.0);
        let line = result_line(&specs, &measured, 4, 1).unwrap();
        assert_eq!(
            line,
            r#"{"correct":false,"attempted":4,"failed":1,"metrics":{"setup_s":{"value":0.8127,"unit":"s"}}}"#
        );
        measured.insert("setup_s".into(), f64::NAN);
        assert!(result_line(&specs, &measured, 1, 0).is_err());
    }
}
