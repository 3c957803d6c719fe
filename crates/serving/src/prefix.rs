//! Cross-request prefix identity and the deterministic token oracle.
//!
//! The simulator never materialises real token ids, but prefix caching and
//! speculative decoding are *correctness*-sensitive mechanisms: sharing a
//! cached block must never change what a request would have generated, and
//! a rejected draft must leave no trace. To make that checkable, this
//! module defines a deterministic token oracle — every prompt and output
//! token is a pure function of the request's [`PrefixTag`], id, and
//! position. Requests in the same prefix class agree token-for-token over
//! the shared span (so cached blocks genuinely hold the adopter's content),
//! and outputs depend on nothing the cache or the speculative pipeline can
//! touch. The differential test serves the same trace with the mechanisms
//! on and off and demands byte-identical token streams.

use liger_gpu_sim::rng::Rng;
use liger_kvcache::mix64;
use liger_model::ModelConfig;

use crate::generation::GenerationJob;

/// Identifies the shared prompt prefix of a request: all requests with the
/// same `class` hold identical tokens for the first `shared_len` positions
/// (a system prompt, a few-shot template, ...), then diverge into
/// per-request content.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrefixTag {
    /// Content class of the shared prefix; requests sharing a class share
    /// prompt tokens `0..shared_len`.
    pub class: u64,
    /// Length of the shared span in tokens (clamped to the prompt length).
    pub shared_len: u32,
}

impl PrefixTag {
    /// A request sharing nothing with anyone — the pre-caching behavior.
    pub const NONE: PrefixTag = PrefixTag { class: 0, shared_len: 0 };

    /// Tag for a request whose first `shared_len` prompt tokens come from
    /// shared-content class `class`.
    pub fn shared(class: u64, shared_len: u32) -> PrefixTag {
        PrefixTag { class, shared_len }
    }
}

/// The prompt token at `pos` for `job`, from the deterministic oracle:
/// positions inside the shared span draw from the class stream (identical
/// across every request in the class), positions beyond it from a
/// per-request stream no other request can collide with.
pub fn prompt_token(job: &GenerationJob, pos: u32) -> u64 {
    if pos < job.prefix.shared_len.min(job.prompt_len) {
        mix64(mix64(0x5a5a ^ job.prefix.class) ^ pos as u64)
    } else {
        mix64(mix64(0xa5a5 ^ job.id) ^ pos as u64)
    }
}

/// Output token `t` (0-based decode step) for `job`. A pure function of the
/// request identity alone, so prefix sharing and speculative rollback can
/// be checked to change *nothing* about what a request generates.
pub fn output_token(job: &GenerationJob, t: u32) -> u64 {
    mix64(mix64(0x0007_u64 ^ job.id) ^ t as u64)
}

/// Content digests of `job`'s *full* prompt blocks at `block_tokens` per
/// block — the keys the prefix cache chains over. A partial trailing block
/// is never published or adopted, so it gets no digest.
pub fn block_digests(job: &GenerationJob, block_tokens: u32) -> Vec<u64> {
    let mut digests = Vec::new();
    block_digests_into(job, block_tokens, &mut digests);
    digests
}

/// [`block_digests`], appended to `out` (the scheduler reuses one buffer
/// per in-flight prefill).
pub(crate) fn block_digests_into(job: &GenerationJob, block_tokens: u32, out: &mut Vec<u64>) {
    let full = job.prompt_len / block_tokens.max(1);
    out.extend((0..full).map(|b| {
        let mut d = 0x_d16e_5700_u64 ^ b as u64;
        for pos in b * block_tokens..(b + 1) * block_tokens {
            d = mix64(d ^ prompt_token(job, pos));
        }
        d
    }));
}

/// Speculative-decoding configuration for the continuous scheduler: the
/// draft model, the draft depth, and a seeded acceptance process standing
/// in for the real accept/reject sampling (which depends on token
/// distributions the simulator does not model).
#[derive(Debug, Clone, PartialEq)]
pub struct SpecDecodeConfig {
    /// The draft model (see `liger_model::draft_model_for`), priced on one
    /// device per draft step.
    pub draft: ModelConfig,
    /// Tokens drafted ahead per round (`k`); the verify pass scores `k + 1`
    /// rows per sequence.
    pub draft_tokens: u32,
    /// Per-token acceptance probability in `[0, 1]`.
    pub acceptance: f64,
    /// Seed of the acceptance process; fixed seed, fixed outcome.
    pub seed: u64,
}

impl SpecDecodeConfig {
    /// Config drafting `draft_tokens` ahead with the standard draft of
    /// `target` and the given acceptance probability.
    pub fn for_target(
        target: &ModelConfig,
        draft_tokens: u32,
        acceptance: f64,
    ) -> SpecDecodeConfig {
        SpecDecodeConfig {
            draft: liger_model::draft_model_for(target),
            draft_tokens,
            acceptance,
            seed: 0x5bec,
        }
    }

    /// Rejects a degenerate config (zero draft depth, acceptance outside
    /// `[0, 1]`, or an invalid draft model).
    pub fn validate(&self) -> Result<(), String> {
        if self.draft_tokens == 0 {
            return Err("draft_tokens must be positive".into());
        }
        if !(0.0..=1.0).contains(&self.acceptance) {
            return Err(format!("acceptance {} outside [0, 1]", self.acceptance));
        }
        self.draft.validate().map_err(|e| format!("draft model: {e}"))
    }

    /// Number of the `k` drafted tokens accepted for `job_id`'s draft round
    /// starting at decode step `step`: the leading run of Bernoulli
    /// successes (standard speculative decoding stops at the first
    /// rejection). Deterministic in `(seed, job_id, step)`.
    pub fn accepted(&self, job_id: u64, step: u32, k: u32) -> u32 {
        let mut rng = Rng::seed_from_u64(mix64(self.seed ^ mix64(job_id) ^ step as u64));
        let mut run = 0;
        for _ in 0..k {
            if rng.next_f64() < self.acceptance {
                run += 1;
            } else {
                break;
            }
        }
        run
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use liger_gpu_sim::SimTime;

    fn job(id: u64, prompt_len: u32, prefix: PrefixTag) -> GenerationJob {
        GenerationJob { id, batch: 1, prompt_len, output_tokens: 8, arrival: SimTime::ZERO, prefix }
    }

    #[test]
    fn shared_span_agrees_across_the_class_and_diverges_after() {
        let a = job(1, 64, PrefixTag::shared(9, 32));
        let b = job(2, 64, PrefixTag::shared(9, 32));
        for pos in 0..32 {
            assert_eq!(prompt_token(&a, pos), prompt_token(&b, pos), "shared span at {pos}");
        }
        assert_ne!(prompt_token(&a, 32), prompt_token(&b, 32), "divergence after the span");
        let c = job(3, 64, PrefixTag::shared(10, 32));
        assert_ne!(prompt_token(&a, 0), prompt_token(&c, 0), "classes differ");
    }

    #[test]
    fn digests_match_exactly_over_shared_full_blocks() {
        let a = job(1, 72, PrefixTag::shared(4, 48));
        let b = job(2, 72, PrefixTag::shared(4, 48));
        let da = block_digests(&a, 16);
        let db = block_digests(&b, 16);
        assert_eq!(da.len(), 4, "72 tokens = 4 full blocks + a partial");
        assert_eq!(da[..3], db[..3], "48 shared tokens = 3 identical digests");
        assert_ne!(da[3], db[3], "block 3 crosses into per-request content");
    }

    #[test]
    fn outputs_are_a_pure_function_of_request_identity() {
        let with = job(5, 64, PrefixTag::shared(1, 48));
        let without = job(5, 64, PrefixTag::NONE);
        for t in 0..16 {
            assert_eq!(output_token(&with, t), output_token(&without, t));
        }
        assert_ne!(output_token(&with, 0), output_token(&job(6, 64, PrefixTag::NONE), 0));
    }

    #[test]
    fn acceptance_run_is_deterministic_and_tracks_probability() {
        let target = ModelConfig::tiny_test();
        let always = SpecDecodeConfig::for_target(&target, 4, 1.0);
        let never = SpecDecodeConfig::for_target(&target, 4, 0.0);
        always.validate().unwrap();
        assert_eq!(always.accepted(3, 0, 4), 4);
        assert_eq!(never.accepted(3, 0, 4), 0);
        let half = SpecDecodeConfig::for_target(&target, 4, 0.5);
        assert_eq!(half.accepted(3, 7, 4), half.accepted(3, 7, 4), "deterministic");
        let total: u32 = (0..200).map(|s| half.accepted(11, s, 4)).sum();
        assert!(total > 100 && total < 700, "mean acceptance in a plausible band: {total}");
    }

    #[test]
    fn config_validation_rejects_degenerates() {
        let target = ModelConfig::tiny_test();
        let mut cfg = SpecDecodeConfig::for_target(&target, 4, 0.7);
        cfg.draft_tokens = 0;
        assert!(cfg.validate().is_err());
        let mut cfg = SpecDecodeConfig::for_target(&target, 4, 0.7);
        cfg.acceptance = 1.5;
        assert!(cfg.validate().is_err());
    }
}
