//! The per-layer metrics of the traced run.
//!
//! Every traced run reports every metric below, so runs of different
//! workloads line up column for column. A layer a workload does not pass
//! through reports 0 and its detail line says so: that 0 is the layer's
//! share of the workload, not a measurement failure.

use std::collections::HashMap;

use crate::report::Report;

/// `(name, unit, better)` for every per-layer metric, in report order.
pub const PER_LAYER: &[(&str, &str, &str)] = &[
    ("server.handler_ms_p50", "ms", "lower"),
    ("server.client_gap_ms_mean", "ms", "lower"),
    ("server.router_decide_us", "us", "lower"),
    ("server.router_affinity_frac", "frac", "higher"),
    ("core.prompt_text_us", "us", "lower"),
    ("core.suggestion_us", "us", "lower"),
    ("tokenizer.encode_us_per_kb", "us/KB", "lower"),
    ("tokenizer.decode_us_per_tok", "us", "lower"),
    ("model.queue_wait_ms_p50", "ms", "lower"),
    ("model.prefix_hit_token_frac", "frac", "higher"),
    ("model.prefill_us_per_tok", "us", "lower"),
    ("model.decode_token_ms_p50", "ms", "lower"),
    ("model.batch_occupancy_mean", "count", "higher"),
    ("model.tokens_per_request", "count", "higher"),
    ("grammar.apply_us", "us", "lower"),
    ("grammar.advance_us", "us", "lower"),
    ("grammar.masked_frac", "frac", "lower"),
    ("grammar.forced_frac", "frac", "higher"),
    ("grammar.inactive_frac", "frac", "lower"),
    ("grammar.states_cached", "count", "lower"),
    ("tensor.matmul_b1_gflops", "GFLOP/s", "higher"),
    ("tensor.matmul_b8_gflops", "GFLOP/s", "higher"),
    ("metrics.bleu_us", "us", "lower"),
    ("metrics.ansible_aware_us", "us", "lower"),
    ("metrics.schema_correct_us", "us", "lower"),
    ("eval.postprocess_us", "us", "lower"),
    ("yaml.parse_mb_per_s", "MB/s", "higher"),
    ("ansible.lint_us_per_doc", "us", "lower"),
    ("curation.score_document_us", "us", "lower"),
    ("curation.minhash_us", "us", "lower"),
    ("curation.near_dedup_us", "us", "lower"),
    ("curation.shard_write_us", "us", "lower"),
    ("curation.stage_busy_s.process", "s", "lower"),
    ("curation.stage_busy_s.curate", "s", "lower"),
    ("curation.kept_frac", "frac", "higher"),
    ("curation.exact_dup_frac", "frac", "higher"),
    ("curation.near_dup_frac", "frac", "higher"),
    ("setup.corpus_s", "s", "lower"),
    ("setup.tokenizer_s", "s", "lower"),
    ("setup.pretrain_s", "s", "lower"),
    ("setup.finetune_s", "s", "lower"),
    ("trace.unattributed_frac", "frac", "lower"),
    ("trace.overhead_frac", "frac", "lower"),
];

/// Layer measurements of one traced run, with the sample count each was
/// taken over.
#[derive(Debug, Default)]
pub struct Layers {
    values: HashMap<&'static str, (f64, usize)>,
}

impl Layers {
    /// Records `name` (which must be in [`PER_LAYER`]) measured over `n`
    /// samples.
    pub fn set(&mut self, name: &'static str, value: f64, n: usize) {
        assert!(
            PER_LAYER.iter().any(|(m, _, _)| *m == name),
            "unknown layer metric {name}"
        );
        self.values.insert(name, (value, n));
    }

    /// Writes every [`PER_LAYER`] metric into `report`, 0 for layers this
    /// workload does not exercise.
    pub fn into_report(self, report: &mut Report) {
        for &(name, unit, _) in PER_LAYER {
            let unit: &'static str = unit;
            match self.values.get(name) {
                Some(&(v, n)) => {
                    report.detail_value(name, v, unit, n);
                    report.metric(name, v, unit);
                }
                None => {
                    report.detail(format!(
                        "{name:<34} {:>14} {unit:<6} not on this workload's path",
                        0
                    ));
                    report.metric(name, 0.0, unit);
                }
            }
        }
    }
}
