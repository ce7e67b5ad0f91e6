//! YAML parse and Ansible lint, timed on a workload's own documents.

use std::time::Instant;

use wisdom_ansible::{lint_str, LintTarget};

use crate::layers::Layers;

/// Times `wisdom_yaml::parse` (MB/s over all of `docs`) and
/// `wisdom_ansible::lint_str` (µs per document) and records both.
pub fn measure<'a>(docs: impl Iterator<Item = &'a str> + Clone, layers: &mut Layers) {
    let (mut bytes, mut n) = (0usize, 0usize);
    let t = Instant::now();
    for doc in docs.clone() {
        let _ = std::hint::black_box(wisdom_yaml::parse(doc));
        bytes += doc.len();
        n += 1;
    }
    let parse_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    for doc in docs {
        std::hint::black_box(lint_str(doc, LintTarget::Auto));
    }
    let lint_s = t.elapsed().as_secs_f64();
    if n == 0 {
        return;
    }
    layers.set("yaml.parse_mb_per_s", bytes as f64 / 1e6 / parse_s, n);
    layers.set("ansible.lint_us_per_doc", lint_s * 1e6 / n as f64, n);
}
