//! The metric vocabulary and the result line.
//!
//! Every metric the benchmark can emit is declared here, with its unit.
//! A run fills in the end-to-end set (untraced) or the per-layer set
//! (traced); every declared metric appears in every result of its kind,
//! so workloads on which a layer is not on the path report 0 for it. The
//! same names are listed in `BENCHMARK.json`, and a unit test keeps the
//! two in step. What each metric measures, and which end-to-end figure it
//! should move, is documented in `emubench/README.md`.

/// Backends of the plan IR, as metric-name suffixes, in the order
/// [`backend_index`](crate::layers::backend_index) uses.
pub const BACKENDS: [&str; 7] = [
    "emulate_classical",
    "emulate_fft",
    "emulate_qpe",
    "simulate_gates",
    "simulate_fused",
    "simulate_segmented",
    "simulate_mps",
];

/// Kernel probes, as metric-name infixes (`kernel.<x>.gbps`).
pub const KERNELS: [&str; 5] = ["h_low", "h_mid", "h_high", "swap", "cphase"];

/// End-to-end metrics (tracing off): `(name, unit)`.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("latency_p50_s", "s"),
    ("latency_p99_s", "s"),
    ("throughput_per_s", "1/s"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics (traced run): `(name, unit)`.
pub fn per_layer_specs() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = vec![("planner.plan_s".into(), "s")];
    for (kind, unit) in [("steps", "count"), ("step_s", "s"), ("error", "ratio")] {
        for b in BACKENDS {
            v.push((format!("planner.{kind}.{b}"), unit));
        }
    }
    let fixed: [(&str, &str); 9] = [
        ("planner.regret", "ratio"),
        ("plancache.hit_ratio", "ratio"),
        ("plancache.misses", "count"),
        ("fusion.fuse_s", "s"),
        ("fusion.passes", "count"),
        ("segment.traffic_ratio", "ratio"),
        ("host.copy_gbps", "GB/s"),
        ("host.triad_gbps", "GB/s"),
        ("sweep.gbps_computed", "GB/s"),
    ];
    v.extend(fixed.iter().map(|&(n, u)| (n.to_string(), u)));
    for k in KERNELS {
        v.push((format!("kernel.{k}.gbps"), "GB/s"));
        v.push((format!("kernel.{k}.of_peak"), "ratio"));
    }
    let rest: [(&str, &str); 21] = [
        ("sweep.of_peak", "ratio"),
        ("measure.sample_s", "s"),
        ("wire.decode_s", "s"),
        ("wire.encode_s", "s"),
        ("wire.request_bytes", "bytes"),
        ("wire.response_bytes", "bytes"),
        ("admission.rejected", "count"),
        ("admission.fast_lane_ratio", "ratio"),
        ("server.batched_ratio", "ratio"),
        ("server.mean_batch", "count"),
        ("server.unattributed_s", "s"),
        ("pool.tasks", "count"),
        ("pool.blocks_stolen", "count"),
        ("pool.parks", "count"),
        ("pool.wakeups", "count"),
        ("pool.peak_workers", "count"),
        ("pool.threads", "count"),
        ("pool.tasks_per_unit", "count"),
        ("proc.cpu_util", "ratio"),
        ("trace.overhead_ratio", "ratio"),
        ("trace.units", "count"),
    ];
    v.extend(rest.iter().map(|&(n, u)| (n.to_string(), u)));
    v
}

/// `true` when `name` is a valid metric or workload name: it starts with
/// a letter or digit and holds at most 64 letters, digits, `_`, `.` and
/// `-`.
#[cfg(test)]
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// A fixed set of named metrics, all starting at 0.
pub struct Metrics {
    values: Vec<(String, f64, &'static str)>,
}

impl Metrics {
    fn from_specs(specs: impl IntoIterator<Item = (String, &'static str)>) -> Metrics {
        Metrics {
            values: specs.into_iter().map(|(n, u)| (n, 0.0, u)).collect(),
        }
    }

    /// The end-to-end set.
    pub fn end_to_end() -> Metrics {
        Metrics::from_specs(END_TO_END.iter().map(|&(n, u)| (n.to_string(), u)))
    }

    /// The per-layer set.
    pub fn per_layer() -> Metrics {
        Metrics::from_specs(per_layer_specs())
    }

    /// Sets a declared metric. Panics on an undeclared name: that is a
    /// typo in the benchmark, not a measurement.
    pub fn set(&mut self, name: &str, value: f64) {
        let slot = self
            .values
            .iter_mut()
            .find(|(n, _, _)| n == name)
            .unwrap_or_else(|| panic!("undeclared metric {name}"));
        slot.1 = value;
    }

    /// Reads a metric back (for derived figures and the summary).
    pub fn get(&self, name: &str) -> f64 {
        self.values
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|m| m.1)
            .unwrap_or_else(|| panic!("undeclared metric {name}"))
    }

    /// `(name, value, unit)` in declaration order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, f64, &'static str)> {
        self.values.iter().map(|(n, v, u)| (n.as_str(), *v, *u))
    }
}

/// A finite number as JSON (non-finite values, which JSON cannot hold,
/// become 0 with a warning on stderr).
pub fn json_number(name: &str, v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        eprintln!("warning: metric {name} is {v}; reported as 0");
        "0".into()
    }
}

/// A string as a JSON string literal.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
pub fn result_line(attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_string(n),
                json_number(n, v),
                json_string(u)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0 && attempted > 0,
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn every_name_is_valid_and_unique() {
        let mut seen = BTreeSet::new();
        let names = END_TO_END
            .iter()
            .map(|&(n, _)| n.to_string())
            .chain(per_layer_specs().into_iter().map(|(n, _)| n))
            .chain(crate::WORKLOADS.iter().map(|w| w.to_string()));
        for name in names {
            assert!(valid_name(&name), "invalid name {name}");
            assert!(seen.insert(name.clone()), "duplicate name {name}");
        }
        let units = END_TO_END
            .iter()
            .map(|&(_, u)| u)
            .chain(per_layer_specs().into_iter().map(|(_, u)| u));
        for unit in units {
            assert!(unit.len() <= 16, "unit {unit} too long");
            assert!(
                unit.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "invalid unit {unit}"
            );
        }
        assert!(!valid_name("_leading"));
        assert!(!valid_name("has space"));
        assert!(!valid_name(""));
        assert!(!valid_name(&"x".repeat(65)));
    }

    #[test]
    fn declared_names_match_benchmark_json() {
        let json =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let listed = |section: &str| -> BTreeSet<String> {
            let start = json.find(&format!("\"{section}\"")).expect("section");
            let rest = &json[start..];
            let end = rest.find(']').expect("section end");
            rest[..end]
                .split("\"name\":")
                .skip(1)
                .map(|s| s.trim().split('"').nth(1).unwrap().to_string())
                .collect()
        };
        let e2e: BTreeSet<String> = END_TO_END.iter().map(|&(n, _)| n.into()).collect();
        let layers: BTreeSet<String> = per_layer_specs().into_iter().map(|(n, _)| n).collect();
        let workloads: BTreeSet<String> = crate::WORKLOADS.iter().map(|w| w.to_string()).collect();
        assert_eq!(listed("end_to_end"), e2e);
        assert_eq!(listed("per_layer"), layers);
        assert_eq!(listed("workloads"), workloads);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut m = Metrics::end_to_end();
        m.set("setup_s", 0.25);
        let line = result_line(3, 0, &m);
        assert!(
            line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {")
        );
        assert!(line.contains("\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}"));
        assert!(result_line(3, 1, &m).starts_with("{\"correct\": false"));
    }
}
