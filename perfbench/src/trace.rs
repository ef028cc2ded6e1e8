//! In-memory spans recorded around calls into the library's public layers.
//!
//! A span is `name/start/end/parent`, plus a small integer tag the caller
//! uses to tell instances apart (which engine, which cache half). Spans
//! stay in memory and are summarised when the run ends; a disabled tracer
//! records nothing and only calls through.

use std::time::Instant;

/// One recorded span; times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub tag: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

impl Span {
    /// Duration, µs.
    pub fn us(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

/// Span recorder; see the module docs.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A recording tracer.
    pub fn on() -> Self {
        Self {
            on: true,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A tracer that records nothing.
    pub fn off() -> Self {
        Self {
            on: false,
            ..Self::on()
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span; spans `f` opens become its children.
    pub fn span<R>(&mut self, name: &'static str, tag: u32, f: impl FnOnce(&mut Self) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let id = self.spans.len();
        let parent = self.open.last().copied();
        self.spans.push(Span {
            name,
            tag,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// Every recorded span, in start order.
    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (µs) of the spans called `name` whose tag passes `keep`.
    pub fn durations_us(&self, name: &str, keep: impl Fn(u32) -> bool) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name && keep(s.tag))
            .map(Span::us)
            .collect()
    }

    /// Durations (µs) of every span called `name`.
    pub fn all_us(&self, name: &str) -> Vec<f64> {
        self.durations_us(name, |_| true)
    }

    /// Per span name: (calls, total µs, self µs), where self time is a
    /// span's duration minus what its child spans cover. Sorted by name.
    pub fn self_times(&self) -> Vec<(&'static str, usize, f64, f64)> {
        let mut child_us = vec![0.0f64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_us[p] += s.us();
            }
        }
        let mut by_name: std::collections::BTreeMap<&'static str, (usize, f64, f64)> =
            std::collections::BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let e = by_name.entry(s.name).or_default();
            e.0 += 1;
            e.1 += s.us();
            e.2 += s.us() - child_us[i];
        }
        by_name
            .into_iter()
            .map(|(name, (calls, total, own))| (name, calls, total, own))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_off_records_nothing() {
        let mut t = Tracer::on();
        t.span("outer", 0, |t| {
            t.span("inner", 1, |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        let times = t.self_times();
        let inner = times.iter().find(|r| r.0 == "inner").unwrap();
        let outer = times.iter().find(|r| r.0 == "outer").unwrap();
        assert!(inner.3 >= 2000.0);
        assert!(outer.3 < outer.2 && (outer.2 - outer.3 - inner.2).abs() < 1e-6);

        let mut off = Tracer::off();
        assert_eq!(off.span("x", 0, |_| 7), 7);
        assert!(off.spans().is_empty());
    }
}
