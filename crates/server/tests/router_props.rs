//! Router placement properties: rendezvous stability under replica churn,
//! and prefix-affinity routing agreeing bit-for-bit with the
//! single-replica decode path under any request interleaving.

use std::sync::{Arc, OnceLock};

use proptest::prelude::*;
use wisdom_core::{BatchConfig, CompletionRequest, Constraint, Suggestion, Wisdom, WisdomConfig};
use wisdom_server::{rendezvous_pick, Router, RouterConfig};

fn wisdom() -> &'static Wisdom {
    static WISDOM: OnceLock<Wisdom> = OnceLock::new();
    WISDOM.get_or_init(|| Wisdom::train(&WisdomConfig::tiny(), None))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Replica join: going from `n` to `n + 1` replicas, every key either
    /// keeps its placement or moves to the new replica — never to another
    /// surviving one. This is what makes scale-out cheap: existing
    /// replicas keep their warm working sets.
    #[test]
    fn join_moves_keys_only_to_the_new_replica(
        keys in prop::collection::vec(prop::collection::vec(0u32..500, 1..12), 1..40),
        n in 1usize..6,
    ) {
        for key in &keys {
            let before = rendezvous_pick(key, n);
            let after = rendezvous_pick(key, n + 1);
            prop_assert!(
                after == before || after == n,
                "key {:?} moved {} -> {} on join of replica {}",
                key, before, after, n
            );
        }
    }

    /// Replica leave (draining the highest index): every key that was not
    /// on the leaver keeps exactly its placement.
    #[test]
    fn leave_of_the_last_replica_keeps_other_placements(
        keys in prop::collection::vec(prop::collection::vec(0u32..500, 1..12), 1..40),
        n in 2usize..7,
    ) {
        for key in &keys {
            let full = rendezvous_pick(key, n);
            if full < n - 1 {
                prop_assert_eq!(rendezvous_pick(key, n - 1), full);
            }
        }
    }
}

/// Join churn in aggregate: the moved fraction is ≈ 1/(n+1), not ~100%
/// like a mod-N hash. 2000 keys put the binomial noise far below the 2×
/// bounds asserted here.
#[test]
fn join_moves_a_bounded_fraction_of_keys() {
    let keys: Vec<Vec<u32>> = (0..2000u32)
        .map(|i| vec![i, i.wrapping_mul(7) + 1, i.wrapping_mul(13) + 5])
        .collect();
    for n in 1..5 {
        let moved = keys
            .iter()
            .filter(|k| rendezvous_pick(k, n + 1) != rendezvous_pick(k, n))
            .count();
        let expected = keys.len() / (n + 1);
        assert!(
            moved <= expected * 2,
            "n={n}: {moved} of {} keys moved, expected ≈{expected}",
            keys.len()
        );
        assert!(
            moved >= expected / 2,
            "n={n}: only {moved} keys moved; the hash is not spreading"
        );
    }
}

proptest! {
    // Each case spins up (and joins) a 2-replica pool, so keep the count
    // small; the interleavings inside a case do the exploring.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Any interleaving of prompts (with heavy prefix sharing, so the
    /// affinity probe is exercised both cold and warm) and any mix of
    /// plain/streaming submission through a 2-replica affinity router
    /// yields outputs bit-identical to the single-replica direct path —
    /// routing must never change what is decoded, only where.
    #[test]
    fn affinity_routing_is_bit_identical_to_single_replica(
        picks in prop::collection::vec((0usize..5, 0usize..2), 1..8),
    ) {
        const PROMPTS: &[&str] = &[
            "install nginx",
            "install nginx and enable the service",
            "start nginx service",
            "create user deploy",
            "restart the docker daemon",
        ];
        let w = wisdom();
        let cfg = BatchConfig {
            max_batch_size: 2,
            queue_depth: 16,
            prefix_cache_bytes: 1 << 20,
            ..BatchConfig::default()
        };
        let pool = Arc::new(w.replica_pool(cfg, 2, &[]));
        let router = Router::new(Arc::clone(&pool), RouterConfig::default(), None);
        for &(which, streamed) in &picks {
            let prompt = PROMPTS[which];
            let request = CompletionRequest::new("", prompt);
            let decode = w.decode_request(&request, Constraint::None);
            let expected = w.complete_task("", prompt);
            let out = if streamed == 1 {
                let stream = router.submit_streaming(decode).expect("submit");
                let tokens: Vec<u32> = stream.tokens.iter().collect();
                let out = stream.result.wait();
                prop_assert_eq!(&tokens, &out, "stream/result split-brain");
                out
            } else {
                router.submit(decode).expect("submit").wait()
            };
            let got = Suggestion::from_raw(&request, &w.tokenizer().decode(&out));
            prop_assert_eq!(&got.snippet, &expected.snippet, "prompt {:?}", prompt);
            prop_assert_eq!(&got.body, &expected.body, "prompt {:?}", prompt);
        }
        pool.shutdown();
    }
}
