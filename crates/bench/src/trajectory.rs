//! The perf trajectory: headline numbers appended run-over-run to
//! `results/trajectory.json`, plus the regression gate CI runs with
//! `TRAJECTORY_CHECK=1`.
//!
//! The file holds a committed `baseline` (the first recorded run) and a
//! `runs` history. Each entry is a flat map of metric name → value; the
//! gate compares the current measurement against the baseline and flags
//! any metric that moved more than [`REGRESSION_TOLERANCE`] in its *bad*
//! direction (throughput falling, latency rising). JSON reading and
//! writing are hand-rolled like the rest of the workspace — the format is
//! ours, flat, and stable.

use std::collections::BTreeMap;
use std::path::Path;

/// Fractional slack before a metric counts as regressed (>20%).
pub const REGRESSION_TOLERANCE: f64 = 0.20;

/// One run's headline numbers, metric name → value.
pub type Metrics = BTreeMap<String, f64>;

/// Metrics where bigger is better; everything else (latencies, mods/op)
/// regresses by *rising*.
fn higher_is_better(name: &str) -> bool {
    name == "rules_per_sec"
}

/// Absolute slack a metric must also exceed before it counts as
/// regressed. Southbound loopback RTT/handshake quantiles (`sb_*_ms_*`
/// from the fig_c10k bench) are scheduling-noise-dominated on shared
/// single-core runners: only a multi-millisecond move is a real
/// regression. Everything else gates on the relative tolerance alone.
fn noise_floor(name: &str) -> f64 {
    if name.starts_with("sb_") && name.contains("_ms") {
        5.0
    } else {
        0.0
    }
}

/// The committed trajectory file: baseline + full run history.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Trajectory {
    /// The reference run every later run is gated against.
    pub baseline: Option<Metrics>,
    /// All recorded runs, oldest first.
    pub runs: Vec<Metrics>,
}

impl Trajectory {
    /// Load `path`, or an empty trajectory when the file doesn't exist
    /// or doesn't parse (a corrupt file starts a fresh history rather
    /// than wedging the bench).
    pub fn load(path: &Path) -> Trajectory {
        match std::fs::read_to_string(path) {
            Ok(text) => parse(&text).unwrap_or_default(),
            Err(_) => Trajectory::default(),
        }
    }

    /// The check-mode gate: compare `current` against the baseline
    /// committed at `path`. `Err` lists every failure — each regressed
    /// metric, or why the baseline could not be read. Unlike
    /// [`Trajectory::load`], a missing or corrupt file fails the gate: a
    /// gate that cannot read its baseline must not pass.
    pub fn check(path: &Path, current: &Metrics) -> Result<(), Vec<String>> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| vec![format!("cannot read {}: {e}", path.display())])?;
        let trajectory = parse(&text)
            .filter(|t| t.baseline.is_some())
            .ok_or_else(|| vec![format!("{} holds no parseable baseline", path.display())])?;
        let regressions = trajectory.regressions(current);
        if regressions.is_empty() {
            Ok(())
        } else {
            Err(regressions)
        }
    }

    /// Write the trajectory back as pretty-printed JSON.
    pub fn save(&self, path: &Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_json())
    }

    /// Record a run; the first ever recorded becomes the baseline.
    pub fn append_run(&mut self, m: Metrics) {
        if self.baseline.is_none() {
            self.baseline = Some(m.clone());
        }
        self.runs.push(m);
    }

    /// Compare `current` against the committed baseline: one line per
    /// regressed metric (empty = gate passes). Metrics missing on either
    /// side are skipped — a new metric has no baseline to regress from.
    pub fn regressions(&self, current: &Metrics) -> Vec<String> {
        let Some(base) = &self.baseline else {
            return Vec::new();
        };
        let mut out = Vec::new();
        for (name, &b) in base {
            let Some(&c) = current.get(name) else {
                continue;
            };
            if b <= 0.0 {
                continue;
            }
            let (regressed, change) = if higher_is_better(name) {
                (c < b * (1.0 - REGRESSION_TOLERANCE), c / b - 1.0)
            } else {
                let beyond_floor = c - b > noise_floor(name);
                (
                    c > b * (1.0 + REGRESSION_TOLERANCE) && beyond_floor,
                    c / b - 1.0,
                )
            };
            if regressed {
                out.push(format!(
                    "{name}: {c:.3} vs baseline {b:.3} ({:+.1}%, tolerance ±{:.0}%)",
                    change * 100.0,
                    REGRESSION_TOLERANCE * 100.0
                ));
            }
        }
        out
    }

    /// Render as JSON (`{"baseline": {...}, "runs": [{...}, ...]}`).
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\n  \"baseline\": ");
        match &self.baseline {
            Some(m) => s.push_str(&metrics_json(m)),
            None => s.push_str("null"),
        }
        s.push_str(",\n  \"runs\": [");
        for (i, m) in self.runs.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str("\n    ");
            s.push_str(&metrics_json(m));
        }
        if !self.runs.is_empty() {
            s.push_str("\n  ");
        }
        s.push_str("]\n}\n");
        s
    }
}

fn metrics_json(m: &Metrics) -> String {
    let fields: Vec<String> = m.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect();
    format!("{{{}}}", fields.join(", "))
}

/// Parse the trajectory format written by [`Trajectory::to_json`]. Flat
/// objects only — `None` on anything structurally surprising.
fn parse(text: &str) -> Option<Trajectory> {
    let baseline_src = section(text, "\"baseline\"")?;
    let baseline = if baseline_src.trim_start().starts_with("null") {
        None
    } else {
        Some(parse_flat_object(flat_object(baseline_src)?)?)
    };
    let runs_src = section(text, "\"runs\"")?;
    let runs_body = delimited(runs_src, '[', ']')?;
    let mut runs = Vec::new();
    let mut rest = runs_body;
    while let Some(obj) = flat_object(rest) {
        runs.push(parse_flat_object(obj)?);
        let after = rest.find('}').map(|i| &rest[i + 1..])?;
        rest = after;
    }
    Some(Trajectory { baseline, runs })
}

/// The text following `key:`.
fn section<'a>(text: &'a str, key: &str) -> Option<&'a str> {
    let i = text.find(key)?;
    let rest = &text[i + key.len()..];
    let j = rest.find(':')?;
    Some(&rest[j + 1..])
}

/// The contents between the first `open` and its matching `close`,
/// assuming no nesting (our objects are flat).
fn delimited(text: &str, open: char, close: char) -> Option<&str> {
    let i = text.find(open)?;
    let j = text[i + 1..].find(close)? + i + 1;
    Some(&text[i + 1..j])
}

/// The body of the first flat `{...}` object in `text`, if any.
fn flat_object(text: &str) -> Option<&str> {
    delimited(text, '{', '}')
}

/// `"k": 1.5, "j": 2` → map. Empty body → empty map.
fn parse_flat_object(body: &str) -> Option<Metrics> {
    let mut m = Metrics::new();
    for field in body.split(',') {
        let field = field.trim();
        if field.is_empty() {
            continue;
        }
        let (k, v) = field.split_once(':')?;
        let k = k.trim().strip_prefix('"')?.strip_suffix('"')?;
        let v: f64 = v.trim().parse().ok()?;
        m.insert(k.to_string(), v);
    }
    Some(m)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metrics(pairs: &[(&str, f64)]) -> Metrics {
        pairs.iter().map(|&(k, v)| (k.to_string(), v)).collect()
    }

    #[test]
    fn roundtrips_through_json() {
        let mut t = Trajectory::default();
        t.append_run(metrics(&[
            ("rules_per_sec", 120000.5),
            ("takeover_ms", 1.25),
        ]));
        t.append_run(metrics(&[
            ("rules_per_sec", 130000.0),
            ("takeover_ms", 1.1),
        ]));
        assert_eq!(t.baseline, Some(t.runs[0].clone()));
        let parsed = parse(&t.to_json()).expect("own output parses");
        assert_eq!(parsed, t);

        // Empty file shape parses too.
        let empty = Trajectory::default();
        assert_eq!(parse(&empty.to_json()), Some(empty));
    }

    #[test]
    fn gate_is_direction_aware() {
        let mut t = Trajectory::default();
        t.append_run(metrics(&[("rules_per_sec", 100.0), ("takeover_ms", 10.0)]));

        // Within tolerance in both directions: clean.
        let ok = metrics(&[("rules_per_sec", 85.0), ("takeover_ms", 11.5)]);
        assert!(t.regressions(&ok).is_empty());

        // Throughput regresses by FALLING...
        let slow = metrics(&[("rules_per_sec", 70.0), ("takeover_ms", 10.0)]);
        let regs = t.regressions(&slow);
        assert_eq!(regs.len(), 1, "{regs:?}");
        assert!(regs[0].starts_with("rules_per_sec"));

        // ...latency regresses by RISING, and improving (falling) is fine.
        let laggy = metrics(&[("rules_per_sec", 200.0), ("takeover_ms", 13.0)]);
        let regs = t.regressions(&laggy);
        assert_eq!(regs.len(), 1, "{regs:?}");
        assert!(regs[0].starts_with("takeover_ms"));
        let better = metrics(&[("rules_per_sec", 100.0), ("takeover_ms", 2.0)]);
        assert!(t.regressions(&better).is_empty());

        // No baseline (fresh repo): everything passes.
        assert!(Trajectory::default().regressions(&slow).is_empty());
    }

    #[test]
    fn microsecond_latency_jitter_stays_under_the_noise_floor() {
        let mut t = Trajectory::default();
        t.append_run(metrics(&[
            ("sb_echo_p99_ms_256", 1.0),
            ("takeover_ms", 4.0),
        ]));

        // +80% but a sub-millisecond absolute move: scheduler jitter on a
        // loopback RTT, not a regression the gate should flap on.
        let jitter = metrics(&[("sb_echo_p99_ms_256", 1.8), ("takeover_ms", 4.0)]);
        assert!(t.regressions(&jitter).is_empty());

        // A multi-millisecond move clears both the relative tolerance and
        // the floor.
        let real = metrics(&[("sb_echo_p99_ms_256", 7.5), ("takeover_ms", 4.0)]);
        let regs = t.regressions(&real);
        assert_eq!(regs.len(), 1, "{regs:?}");
        assert!(regs[0].starts_with("sb_echo_p99_ms_256"));

        // Metrics without a floor still gate on relative tolerance alone.
        let slow = metrics(&[("sb_echo_p99_ms_256", 1.0), ("takeover_ms", 5.5)]);
        let regs = t.regressions(&slow);
        assert_eq!(regs.len(), 1, "{regs:?}");
        assert!(regs[0].starts_with("takeover_ms"));
    }

    #[test]
    fn corrupt_file_starts_fresh() {
        assert_eq!(parse("{\"baseline\": [broken"), None);
        let dir = std::env::temp_dir().join(format!("sav-traj-{}", std::process::id()));
        assert_eq!(
            Trajectory::load(&dir.join("missing.json")),
            Trajectory::default()
        );
    }

    #[test]
    fn check_fails_on_a_missing_or_corrupt_baseline() {
        let dir = std::env::temp_dir().join(format!("sav-traj-check-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let current = metrics(&[("takeover_ms", 4.0)]);

        let missing = Trajectory::check(&dir.join("missing.json"), &current).unwrap_err();
        assert!(missing[0].starts_with("cannot read"), "{missing:?}");

        let corrupt = dir.join("corrupt.json");
        std::fs::write(&corrupt, "{\"baseline\": [broken").unwrap();
        let failures = Trajectory::check(&corrupt, &current).unwrap_err();
        assert!(
            failures[0].ends_with("holds no parseable baseline"),
            "{failures:?}"
        );

        // A well-formed file with no baseline has nothing to gate against.
        let empty = dir.join("empty.json");
        Trajectory::default().save(&empty).unwrap();
        assert!(Trajectory::check(&empty, &current).is_err());

        // Only a readable baseline with no regressions passes.
        let good = dir.join("good.json");
        let mut t = Trajectory::default();
        t.append_run(current.clone());
        t.save(&good).unwrap();
        assert_eq!(Trajectory::check(&good, &current), Ok(()));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
