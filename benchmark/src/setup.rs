//! Shared set-up for the model workloads, and measurements every workload
//! takes the same way.

use std::time::Instant;

use wisdom_core::{TrainPhase, Wisdom, WisdomConfig};

/// The served assistant: the seconds-scale `tiny` recipe with a context
/// window wide enough for a few-task editor buffer (200 prompt tokens after
/// the 56-token generation reserve).
pub fn wisdom_config() -> WisdomConfig {
    WisdomConfig {
        context_window: 256,
        ..WisdomConfig::tiny()
    }
}

/// Seconds spent in each training phase, from the progress callback.
#[derive(Debug, Clone, Copy, Default)]
pub struct PhaseTimes {
    /// Corpus and split construction.
    pub corpus_s: f64,
    /// Tokenizer training.
    pub tokenizer_s: f64,
    /// YAML pre-training.
    pub pretrain_s: f64,
    /// Galaxy fine-tuning.
    pub finetune_s: f64,
}

/// Trains the assistant and times its phases.
pub fn train() -> (Wisdom, PhaseTimes) {
    let mut marks: Vec<(TrainPhase, Instant)> = Vec::new();
    let mut progress = |phase: TrainPhase, _step: usize, _total: usize| {
        if marks.last().map(|(p, _)| *p) != Some(phase) {
            marks.push((phase, Instant::now()));
        }
    };
    let wisdom = Wisdom::train(&wisdom_config(), Some(&mut progress));
    let end = Instant::now();
    let span = |phase: TrainPhase| {
        let i = marks.iter().position(|(p, _)| *p == phase)?;
        let next = marks.get(i + 1).map_or(end, |(_, t)| *t);
        Some(next.duration_since(marks[i].1).as_secs_f64())
    };
    let times = PhaseTimes {
        corpus_s: span(TrainPhase::Corpus).unwrap_or(0.0),
        tokenizer_s: span(TrainPhase::Tokenizer).unwrap_or(0.0),
        pretrain_s: span(TrainPhase::Pretrain).unwrap_or(0.0),
        finetune_s: span(TrainPhase::Finetune).unwrap_or(0.0),
    };
    (wisdom, times)
}

/// Runs `once` `n` times, returning the last result and every duration.
/// Each earlier result is dropped before the next repetition starts, so
/// they never share memory.
pub fn repeated<T>(n: usize, mut once: impl FnMut() -> T) -> (T, Vec<f64>) {
    let mut secs = Vec::with_capacity(n);
    let mut last = None;
    for _ in 0..n.max(1) {
        drop(last.take());
        let t = Instant::now();
        last = Some(once());
        secs.push(t.elapsed().as_secs_f64());
    }
    (last.expect("at least one repetition"), secs)
}

/// GFLOP/s of `wisdom_tensor::kernels::matmul` over the served model's
/// projection shapes at batch `m`: the Q, K, V and output projections
/// (d×d), the FFN pair (d×ff, ff×d) and the LM head (d×vocab). FLOPs are
/// counted from the shapes (2·m·k·n per product), not from hardware
/// counters.
pub fn matmul_gflops(d: usize, ff: usize, vocab: usize, m: usize, budget_s: f64) -> f64 {
    let shapes = [(d, d), (d, d), (d, d), (d, d), (d, ff), (ff, d), (d, vocab)];
    struct Product {
        a: Vec<f32>,
        b: Vec<f32>,
        out: Vec<f32>,
        k: usize,
        n: usize,
    }
    let mut products: Vec<Product> = shapes
        .iter()
        .map(|&(k, n)| Product {
            a: (0..m * k).map(|i| ((i % 7) as f32 - 3.0) * 0.1).collect(),
            b: (0..k * n).map(|i| ((i % 5) as f32 - 2.0) * 0.1).collect(),
            out: vec![0.0; m * n],
            k,
            n,
        })
        .collect();
    let flops_per_round: f64 = shapes.iter().map(|&(k, n)| 2.0 * (m * k * n) as f64).sum();
    let start = Instant::now();
    let mut rounds = 0u64;
    while rounds < 10 || start.elapsed().as_secs_f64() < budget_s {
        for p in &mut products {
            wisdom_tensor::kernels::matmul(&p.a, &p.b, m, p.k, p.n, &mut p.out);
        }
        rounds += 1;
    }
    let secs = start.elapsed().as_secs_f64();
    std::hint::black_box(&products);
    flops_per_round * rounds as f64 / secs / 1e9
}

/// Mean microseconds per prompt token of `TransformerLm::prefill` over
/// `prompts` (each cut to its last `window` tokens, as serving does).
pub fn prefill_us_per_tok(wisdom: &Wisdom, prompts: &[Vec<u32>], window: usize) -> f64 {
    let model = wisdom.model();
    let (mut tokens, mut secs) = (0usize, 0.0);
    for p in prompts {
        let w = &p[p.len().saturating_sub(window)..];
        let t = Instant::now();
        std::hint::black_box(model.prefill(w));
        secs += t.elapsed().as_secs_f64();
        tokens += w.len();
    }
    if tokens == 0 {
        0.0
    } else {
        secs * 1e6 / tokens as f64
    }
}
