//! The staged-vs-one-shot regression gate as a plain test (PR 7), so
//! `cargo test` enforces it without waiting for a full bench run.
//!
//! The gate guards PR 6's incremental emitter: splitting a matching
//! budget of 512 into 8 × 64 refinement installments must stay within
//! [`STAGED_GATE_CEILING`]× of spending 512 at once. The measurement is
//! shared with the `integrate_refine` bench's `--bench` gate, so both
//! assert the same numbers.
//!
//! The assertion only runs in the default (feature-off) build: with
//! `strict-invariants` on, every installment pays a deep shadow check,
//! which measures tooling overhead, not emitter regressions (that
//! overhead is what BENCH_pr7.json records). Set
//! `IMPRECISE_BENCH_GATE=off` to skip on wildly noisy machines.

use imprecise_bench::measure_staged_vs_one_shot;
#[cfg(not(feature = "strict-invariants"))]
use imprecise_bench::STAGED_GATE_CEILING;

#[test]
fn staged_refinement_stays_within_the_one_shot_ceiling() {
    if std::env::var("IMPRECISE_BENCH_GATE").is_ok_and(|v| v == "off") {
        eprintln!("gate: skipped (IMPRECISE_BENCH_GATE=off)");
        return;
    }
    let m = measure_staged_vs_one_shot();
    eprintln!(
        "gate: staged-8x64 {:?} / one-shot-512 {:?} = {:.2}x",
        m.measured,
        m.base,
        m.ratio()
    );
    #[cfg(not(feature = "strict-invariants"))]
    assert!(
        m.holds(STAGED_GATE_CEILING),
        "staged refinement regressed to {:.2}x the one-shot cost \
         (ceiling {STAGED_GATE_CEILING}x): incremental emission should \
         keep installments near the one-shot budget",
        m.ratio()
    );
}
