//! Reading the server's `/metrics` page (Prometheus text format 0.0.4).
//!
//! The benchmark scrapes the page before and after a timed window and
//! works on the difference, so counters and histograms describe only the
//! window. Histograms are summed over every series whose labels include a
//! given filter (e.g. all replicas), then differenced bucket by bucket.

/// One `name{labels} value` line.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Series name, including any `_bucket`/`_sum`/`_count` suffix.
    pub name: String,
    /// Label pairs in page order.
    pub labels: Vec<(String, String)>,
    /// The sample value.
    pub value: f64,
}

impl Sample {
    fn label(&self, key: &str) -> Option<&str> {
        self.labels
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    fn matches(&self, filter: &[(&str, &str)]) -> bool {
        filter.iter().all(|(k, v)| self.label(k) == Some(*v))
    }
}

/// A parsed exposition page.
#[derive(Debug, Clone, Default)]
pub struct Exposition {
    samples: Vec<Sample>,
}

/// A cumulative histogram: `(upper bound, cumulative count)` pairs ending
/// at `+Inf`, plus the sum and count.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Hist {
    /// `(le, cumulative count)` in increasing `le` order.
    pub buckets: Vec<(f64, f64)>,
    /// Sum of observed values.
    pub sum: f64,
    /// Number of observations.
    pub count: f64,
}

impl Exposition {
    /// Parses a page; comment lines and lines that do not parse are
    /// skipped.
    pub fn parse(text: &str) -> Exposition {
        Exposition {
            samples: text
                .lines()
                .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
                .filter_map(parse_line)
                .collect(),
        }
    }

    /// Sum of every series named `name` whose labels include `filter`.
    pub fn sum(&self, name: &str, filter: &[(&str, &str)]) -> f64 {
        self.samples
            .iter()
            .filter(|s| s.name == name && s.matches(filter))
            .map(|s| s.value)
            .sum()
    }

    /// The histogram family `name` summed over every series whose labels
    /// include `filter`.
    pub fn histogram(&self, name: &str, filter: &[(&str, &str)]) -> Hist {
        let bucket_name = format!("{name}_bucket");
        let mut buckets: Vec<(f64, f64)> = Vec::new();
        for s in &self.samples {
            if s.name != bucket_name || !s.matches(filter) {
                continue;
            }
            let Some(le) = s.label("le").and_then(parse_value) else {
                continue;
            };
            match buckets.iter_mut().find(|(b, _)| *b == le) {
                Some((_, c)) => *c += s.value,
                None => buckets.push((le, s.value)),
            }
        }
        buckets.sort_by(|a, b| a.0.total_cmp(&b.0));
        Hist {
            buckets,
            sum: self.sum(&format!("{name}_sum"), filter),
            count: self.sum(&format!("{name}_count"), filter),
        }
    }
}

impl Hist {
    /// `self - before`, bucket by bucket (buckets absent from `before`
    /// count as zero there).
    pub fn delta(&self, before: &Hist) -> Hist {
        let prior = |le: f64| {
            before
                .buckets
                .iter()
                .find(|(b, _)| *b == le)
                .map_or(0.0, |(_, c)| *c)
        };
        Hist {
            buckets: self
                .buckets
                .iter()
                .map(|&(le, c)| (le, c - prior(le)))
                .collect(),
            sum: self.sum - before.sum,
            count: self.count - before.count,
        }
    }

    /// Quantile `q` (in `0..=1`) by linear interpolation inside the bucket
    /// holding the target rank, as Prometheus' `histogram_quantile` does.
    /// The first bucket's lower edge is 0; a rank in the `+Inf` bucket
    /// reports the highest finite bound. `None` without observations.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        let total = self.buckets.last()?.1;
        if total <= 0.0 {
            return None;
        }
        let rank = q.clamp(0.0, 1.0) * total;
        let mut lower = 0.0;
        let mut below = 0.0;
        for &(le, cumulative) in &self.buckets {
            if cumulative >= rank && cumulative > below {
                if le.is_infinite() {
                    return Some(lower);
                }
                let frac = (rank - below) / (cumulative - below);
                return Some(lower + (le - lower) * frac);
            }
            lower = if le.is_infinite() { lower } else { le };
            below = cumulative;
        }
        Some(lower)
    }
}

fn parse_value(text: &str) -> Option<f64> {
    match text {
        "+Inf" => Some(f64::INFINITY),
        "-Inf" => Some(f64::NEG_INFINITY),
        "NaN" => Some(f64::NAN),
        _ => text.parse().ok(),
    }
}

fn parse_line(line: &str) -> Option<Sample> {
    let line = line.trim();
    let (series, value) = line.rsplit_once(' ')?;
    let value = parse_value(value)?;
    let Some(open) = series.find('{') else {
        return Some(Sample {
            name: series.to_string(),
            labels: Vec::new(),
            value,
        });
    };
    let name = series[..open].to_string();
    let body = series[open + 1..].strip_suffix('}')?;
    let mut labels = Vec::new();
    let mut chars = body.chars().peekable();
    loop {
        let key: String = chars.by_ref().take_while(|&c| c != '=').collect();
        if key.is_empty() {
            break;
        }
        if chars.next() != Some('"') {
            return None;
        }
        let mut val = String::new();
        loop {
            match chars.next()? {
                '\\' => match chars.next()? {
                    'n' => val.push('\n'),
                    other => val.push(other),
                },
                '"' => break,
                c => val.push(c),
            }
        }
        labels.push((key.trim_start_matches(',').to_string(), val));
        if chars.peek() == Some(&',') {
            chars.next();
        }
    }
    Some(Sample {
        name,
        labels,
        value,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const BEFORE: &str = r#"# HELP wisdom_queue_wait_seconds Time from request submission to admission.
# TYPE wisdom_queue_wait_seconds histogram
wisdom_queue_wait_seconds_bucket{replica="0",le="0.001"} 2
wisdom_queue_wait_seconds_bucket{replica="0",le="0.01"} 3
wisdom_queue_wait_seconds_bucket{replica="0",le="+Inf"} 4
wisdom_queue_wait_seconds_sum{replica="0"} 0.5
wisdom_queue_wait_seconds_count{replica="0"} 4
wisdom_queue_wait_seconds_bucket{replica="1",le="0.001"} 0
wisdom_queue_wait_seconds_bucket{replica="1",le="0.01"} 0
wisdom_queue_wait_seconds_bucket{replica="1",le="+Inf"} 0
wisdom_queue_wait_seconds_sum{replica="1"} 0
wisdom_queue_wait_seconds_count{replica="1"} 0
wisdom_router_requests_total{policy="prefix_affinity"} 4
wisdom_http_responses_total{route="/v1/completions",status="200"} 4
"#;

    const AFTER: &str = r#"wisdom_queue_wait_seconds_bucket{replica="0",le="0.001"} 12
wisdom_queue_wait_seconds_bucket{replica="0",le="0.01"} 13
wisdom_queue_wait_seconds_bucket{replica="0",le="+Inf"} 14
wisdom_queue_wait_seconds_sum{replica="0"} 0.6
wisdom_queue_wait_seconds_count{replica="0"} 14
wisdom_queue_wait_seconds_bucket{replica="1",le="0.001"} 0
wisdom_queue_wait_seconds_bucket{replica="1",le="0.01"} 10
wisdom_queue_wait_seconds_bucket{replica="1",le="+Inf"} 10
wisdom_queue_wait_seconds_sum{replica="1"} 0.05
wisdom_queue_wait_seconds_count{replica="1"} 10
wisdom_router_requests_total{policy="prefix_affinity"} 24
wisdom_http_responses_total{route="/v1/completions",status="200"} 23
wisdom_http_responses_total{route="/v1/completions",status="503"} 1
wisdom_http_responses_total{route="/v1/stats",status="200"} 9
"#;

    #[test]
    fn labels_with_escapes_parse() {
        let e = Exposition::parse(
            "x_total{path=\"/a\\\"b\",note=\"l1\\nl2\",le=\"+Inf\"} 3\nplain 1.5\n",
        );
        assert_eq!(e.sum("x_total", &[("path", "/a\"b")]), 3.0);
        assert_eq!(e.sum("x_total", &[("note", "l1\nl2")]), 3.0);
        assert_eq!(e.sum("plain", &[]), 1.5);
        assert_eq!(e.sum("x_total", &[("path", "/other")]), 0.0);
    }

    #[test]
    fn counter_deltas_respect_label_filters() {
        let (b, a) = (Exposition::parse(BEFORE), Exposition::parse(AFTER));
        let ok = |e: &Exposition| {
            e.sum(
                "wisdom_http_responses_total",
                &[("route", "/v1/completions"), ("status", "200")],
            )
        };
        assert_eq!(ok(&a) - ok(&b), 19.0);
        let all = |e: &Exposition| {
            e.sum(
                "wisdom_http_responses_total",
                &[("route", "/v1/completions")],
            )
        };
        assert_eq!(all(&a) - all(&b), 20.0);
        assert_eq!(
            a.sum("wisdom_router_requests_total", &[]) - b.sum("wisdom_router_requests_total", &[]),
            20.0
        );
    }

    #[test]
    fn histogram_delta_sums_replicas_then_differences() {
        let (b, a) = (Exposition::parse(BEFORE), Exposition::parse(AFTER));
        let name = "wisdom_queue_wait_seconds";
        let d = a.histogram(name, &[]).delta(&b.histogram(name, &[]));
        assert_eq!(
            d.buckets,
            vec![(0.001, 10.0), (0.01, 20.0), (f64::INFINITY, 20.0)]
        );
        assert_eq!(d.count, 20.0);
        assert!((d.sum - 0.15).abs() < 1e-12);
        // Rank 10 of 20 lands exactly at the top of the first bucket.
        assert!((d.quantile(0.5).unwrap() - 0.001).abs() < 1e-12);
        // Rank 15 is halfway through the (0.001, 0.01] bucket.
        assert!((d.quantile(0.75).unwrap() - 0.0055).abs() < 1e-12);
        // One replica only.
        let r1 = a
            .histogram(name, &[("replica", "1")])
            .delta(&b.histogram(name, &[("replica", "1")]));
        assert_eq!(r1.count, 10.0);
        assert!((r1.quantile(0.5).unwrap() - 0.0055).abs() < 1e-12);
    }

    #[test]
    fn quantile_edge_cases() {
        assert_eq!(Hist::default().quantile(0.5), None);
        let inf_only = Hist {
            buckets: vec![(0.1, 0.0), (f64::INFINITY, 4.0)],
            sum: 40.0,
            count: 4.0,
        };
        // Everything above the last finite bound reports that bound.
        assert_eq!(inf_only.quantile(0.5), Some(0.1));
        let first = Hist {
            buckets: vec![(0.2, 4.0), (f64::INFINITY, 4.0)],
            sum: 0.4,
            count: 4.0,
        };
        assert!((first.quantile(0.5).unwrap() - 0.1).abs() < 1e-12);
    }
}
