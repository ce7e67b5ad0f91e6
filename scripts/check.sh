#!/usr/bin/env bash
# Repo lint gate: formatting, clippy (warnings are errors), a compile pass
# over every test and bench target so bench-only breakage is caught without
# running criterion, the fast decode-agreement suites (the bit-for-bit
# guarantees behind prefill, batching, the prefix KV cache, speculative
# decoding, and int8 quantization), the tensor-kernel unit + property tests
# (including the quantized GEBP's dequant-oracle identity), doc tests, the
# telemetry substrate's unit + property tests, the router agreement suite
# (rendezvous stability + multi-replica/single-replica bit-identity), and
# the grammar crate's automaton unit + property tests, the grammar
# agreement suite (constrained decodes parse + lint clean, bit-identity
# with unconstrained whenever the unconstrained argmax is legal, across
# the solo/batched/speculative paths), and
# the observability/serving e2e tests (/metrics scrape, /healthz, /readyz,
# SSE streaming vs plain bit-identity, constrained completions over HTTP
# incl. SSE, keep-alive socket reuse, one-lane pools streaming and serving
# int8, the /metrics family/label-key pin for one and two replicas — all
# over real sockets), the server and core unit tests (the one request
# dispatcher, lost-result 503s, readiness after shutdown, the /v1/stats
# key set), the
# curation crate's unit + property + determinism suites (MinHash estimator
# tolerance and LSH recall/no-false-drop properties, plus the end-to-end
# byte-identical-shards-across-worker-counts contract), and a build + test
# of the standalone benchmark package against the changed crates (it is
# its own workspace, so `--workspace` never builds it). Run from
# the repository root before sending a change.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo fmt --check
cargo clippy --workspace --all-targets -- -D warnings
cargo test --workspace --no-run
cargo bench --workspace --no-run
cargo test -q -p wisdom-model \
  --test prefill_agreement \
  --test batch_agreement \
  --test prefix_cache_agreement \
  --test speculative_agreement \
  --test quant_agreement \
  --test grammar_agreement
cargo test -q -p wisdom-grammar
cargo test -q -p wisdom-tensor
cargo test --doc -q
cargo test -q -p wisdom-telemetry
cargo test -q -p wisdom-server --test router_props
cargo test -q -p wisdom-server -p wisdom-core --lib
cargo test -q -p wisdom-curation
cargo test -q --test server_e2e -- \
  metrics_scrape_mid_load_counts_requests \
  health_and_readiness_endpoints \
  streaming_completion_is_bit_identical_to_the_plain_response \
  keep_alive_connection_reuses_one_socket_for_sequential_requests \
  constrained_completion_round_trip_and_stats_echo \
  invalid_constraint_is_rejected_with_400 \
  streaming_constrained_completion_matches_the_plain_constrained_response \
  one_lane_server_streams_and_matches_the_plain_response \
  one_lane_int8_server_serves_int8 \
  metrics_families_and_label_keys_are_pinned_for_one_and_two_replicas
CARGO_TARGET_DIR=.bench_build cargo test -q --locked --manifest-path benchmark/Cargo.toml
