//! Exposition formats: Prometheus text and a JSON snapshot.

use trtsim_util::json_string;

use super::registry::{FamilySnapshot, Registry, SeriesValue};

/// Renders the registry in the Prometheus text exposition format
/// (version 0.0.4): `# HELP` / `# TYPE` headers per family, cumulative
/// `_bucket{le=...}` series plus `_sum` / `_count` for histograms, and
/// escaped label values.
pub fn render_prometheus(registry: &Registry) -> String {
    let mut out = String::new();
    for family in registry.snapshot() {
        render_family_text(&mut out, &family);
    }
    out
}

fn render_family_text(out: &mut String, family: &FamilySnapshot) {
    out.push_str(&format!(
        "# HELP {} {}\n",
        family.name,
        escape_help(&family.help)
    ));
    out.push_str(&format!(
        "# TYPE {} {}\n",
        family.name,
        family.kind.as_str()
    ));
    for series in &family.series {
        match &series.value {
            SeriesValue::Counter(v) => {
                out.push_str(&format!(
                    "{}{} {v}\n",
                    family.name,
                    label_block(&series.labels, None)
                ));
            }
            SeriesValue::Gauge(v) => {
                out.push_str(&format!(
                    "{}{} {}\n",
                    family.name,
                    label_block(&series.labels, None),
                    fmt_f64(*v)
                ));
            }
            SeriesValue::Histogram {
                bounds,
                buckets,
                sum,
                count,
                exemplars,
            } => {
                let mut cum = 0u64;
                for (i, bucket) in buckets.iter().enumerate() {
                    cum += bucket;
                    let le = if i < bounds.len() {
                        fmt_f64(bounds[i])
                    } else {
                        "+Inf".to_string()
                    };
                    // OpenMetrics exemplar suffix, only on buckets that have
                    // one: `... N # {trace_id="<id>"} <value>`.
                    let exemplar = match exemplars.get(i).and_then(|e| e.as_ref()) {
                        Some((trace_id, value)) => format!(
                            " # {{trace_id=\"{}\"}} {}",
                            escape_label_value(trace_id),
                            fmt_f64(*value)
                        ),
                        None => String::new(),
                    };
                    out.push_str(&format!(
                        "{}_bucket{} {cum}{exemplar}\n",
                        family.name,
                        label_block(&series.labels, Some(&le))
                    ));
                }
                out.push_str(&format!(
                    "{}_sum{} {}\n",
                    family.name,
                    label_block(&series.labels, None),
                    fmt_f64(*sum)
                ));
                out.push_str(&format!(
                    "{}_count{} {count}\n",
                    family.name,
                    label_block(&series.labels, None)
                ));
            }
        }
    }
}

/// Renders the registry as a JSON object: one key per family, each with
/// `type`, `help`, and a `series` array carrying `labels` and the value
/// (counters/gauges: `value`; histograms: `bounds`, `buckets` (non-
/// cumulative), `sum`, `count`). Non-finite gauge values render as `null`.
pub fn render_json(registry: &Registry) -> String {
    let mut out = String::from("{\n");
    let families = registry.snapshot();
    for (fi, family) in families.iter().enumerate() {
        out.push_str(&format!(
            "  {}: {{\"type\": \"{}\", \"help\": {}, \"series\": [\n",
            json_string(&family.name),
            family.kind.as_str(),
            json_string(&family.help)
        ));
        for (si, series) in family.series.iter().enumerate() {
            out.push_str("    {\"labels\": {");
            for (li, (k, v)) in series.labels.iter().enumerate() {
                if li > 0 {
                    out.push_str(", ");
                }
                out.push_str(&format!("{}: {}", json_string(k), json_string(v)));
            }
            out.push_str("}, ");
            match &series.value {
                SeriesValue::Counter(v) => out.push_str(&format!("\"value\": {v}")),
                SeriesValue::Gauge(v) => {
                    out.push_str(&format!("\"value\": {}", json_f64(*v)));
                }
                SeriesValue::Histogram {
                    bounds,
                    buckets,
                    sum,
                    count,
                    exemplars: _,
                } => {
                    out.push_str("\"bounds\": [");
                    for (i, b) in bounds.iter().enumerate() {
                        if i > 0 {
                            out.push_str(", ");
                        }
                        out.push_str(&json_f64(*b));
                    }
                    out.push_str("], \"buckets\": [");
                    for (i, b) in buckets.iter().enumerate() {
                        if i > 0 {
                            out.push_str(", ");
                        }
                        out.push_str(&b.to_string());
                    }
                    out.push_str(&format!(
                        "], \"sum\": {}, \"count\": {count}",
                        json_f64(*sum)
                    ));
                }
            }
            out.push('}');
            if si + 1 < family.series.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push_str("  ]}");
        if fi + 1 < families.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("}\n");
    out
}

impl Registry {
    /// Writes the JSON snapshot to `path` — the disk-dump path the repro and
    /// bench bins use alongside their reports.
    ///
    /// # Errors
    ///
    /// Propagates the underlying filesystem error.
    pub fn write_json(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        std::fs::write(path, render_json(self))
    }

    /// Writes the Prometheus text exposition to `path`.
    ///
    /// # Errors
    ///
    /// Propagates the underlying filesystem error.
    pub fn write_prometheus(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        std::fs::write(path, render_prometheus(self))
    }
}

/// `{label="value",...}` with Prometheus escaping, plus an optional `le`
/// label appended last (histogram buckets). Empty when there are no labels.
fn label_block(labels: &[(String, String)], le: Option<&str>) -> String {
    if labels.is_empty() && le.is_none() {
        return String::new();
    }
    let mut out = String::from("{");
    let mut first = true;
    for (k, v) in labels {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&format!("{k}=\"{}\"", escape_label_value(v)));
    }
    if let Some(le) = le {
        if !first {
            out.push(',');
        }
        out.push_str(&format!("le=\"{le}\""));
    }
    out.push('}');
    out
}

/// Prometheus label-value escaping: backslash, double quote, newline.
fn escape_label_value(v: &str) -> String {
    v.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

/// Prometheus HELP-text escaping: backslash and newline only.
fn escape_help(v: &str) -> String {
    v.replace('\\', "\\\\").replace('\n', "\\n")
}

/// Minimal float formatting: integers print without a trailing `.0`
/// (Rust's `{}` already does this: `1f64` renders as `1`).
fn fmt_f64(v: f64) -> String {
    if v == f64::INFINITY {
        "+Inf".to_string()
    } else if v == f64::NEG_INFINITY {
        "-Inf".to_string()
    } else if v.is_nan() {
        "NaN".to_string()
    } else {
        format!("{v}")
    }
}

/// JSON-safe float: non-finite values become `null` (RFC 8259 has no Inf/NaN).
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::super::log_buckets;
    use super::*;

    #[test]
    fn prometheus_text_shape() {
        let reg = Registry::new();
        reg.counter("x_total", "a counter", &[("model", "m\"1\"")])
            .add(3);
        let h = reg.histogram("lat_us", "latency", &[], &log_buckets(1.0, 2.0, 3));
        h.observe(1.5);
        h.observe(5.0);
        let text = render_prometheus(&reg);
        assert!(text.contains("# TYPE x_total counter\n"));
        assert!(text.contains("x_total{model=\"m\\\"1\\\"\"} 3\n"));
        assert!(text.contains("lat_us_bucket{le=\"2\"} 1\n"));
        assert!(text.contains("lat_us_bucket{le=\"+Inf\"} 2\n"));
        assert!(text.contains("lat_us_count 2\n"));
        assert!(text.contains("lat_us_sum 6.5\n"));
    }

    #[test]
    fn exemplar_suffix_only_on_its_bucket_and_not_in_json() {
        let reg = Registry::new();
        let h = reg.histogram("lat_us", "latency", &[], &log_buckets(1.0, 2.0, 3));
        h.observe(1.5);
        h.observe_with_exemplar(5.0, "00000000deadbeef");
        let text = render_prometheus(&reg);
        // The 5.0 observation overflows the last finite bound (4) into +Inf.
        assert!(text.contains("lat_us_bucket{le=\"+Inf\"} 2 # {trace_id=\"00000000deadbeef\"} 5\n"));
        assert!(text.contains("lat_us_bucket{le=\"2\"} 1\n"), "{text}");
        // Exemplars are a text-exposition feature; JSON shape is unchanged.
        assert!(!render_json(&reg).contains("deadbeef"));
    }

    #[test]
    fn json_is_braced_and_escaped() {
        let reg = Registry::new();
        reg.gauge("g", "say \"hi\"\n", &[("k", "v\\w")]).set(1.25);
        let json = render_json(&reg);
        assert!(json.starts_with("{\n") && json.ends_with("}\n"));
        assert!(json.contains("\"say \\\"hi\\\"\\n\""));
        assert!(json.contains("\"v\\\\w\""));
        assert!(json.contains("\"value\": 1.25"));
    }

    #[test]
    fn nan_gauge_renders_null_in_json() {
        let reg = Registry::new();
        reg.gauge("g", "h", &[]).set(f64::NAN);
        assert!(render_json(&reg).contains("\"value\": null"));
    }
}
