//! Criterion bench for candidate generation at scale: pairwise oracle
//! calls vs batched one-vs-many rows vs the blocking prefilter, on the
//! `large_source` catalogue workload (PR 10).
//!
//! The question this answers: what does the recall-safe blocker buy
//! when both sources hold thousands of movies? Pairwise and batched
//! judging are Θ(n²) in oracle work, so the grid caps them where a
//! sampled run stays affordable — pairwise/batched cost ≈ 2.2 s / 1.1 s
//! *per iteration* already at n = 1 000, and ≈ 37 s / 22 s at n = 4 000,
//! so the quadratic strategies stop at n = 1 000 by design (the cap is
//! the point: they do not scale). The blocked strategy runs the full
//! n ∈ {1 000, 4 000, 10 000} ladder; at n = 10 000 it scores about
//! 0.005 % of the 10⁸ cross-product pairs, and blocking plus judging
//! takes about 0.15–0.25 s on a shared 2-vCPU x86-64 host.
//!
//! * `pairwise/n=…` — one `Oracle::judge` call per (a, b) pair.
//! * `batched/n=…` — one `Oracle::judge_row` per left element over the
//!   whole right side (amortises per-call feature extraction).
//! * `blocked/n=…` — `block_candidates` (recall-safe mode) first, then
//!   `judge_row` over each surviving per-row run.
//!
//! Each blocked size also prints the blocker's work counts: in-bucket
//! value pairs scanned, count-bound survivors, exact edit checks and
//! kept pairs (`BlockingWork`).
//!
//! Under `--bench` the harness ends with three regression gates measured
//! by `imprecise_bench::measure_candidate_scaling`: the blocked
//! time ratio t(10 000)/t(1 000) must stay under
//! [`CANDIDATE_GATE_CEILING`]× (a quadratic strategy grows 100× across
//! that decade), the scored fraction of the 10 000² cross product
//! must stay under [`CANDIDATE_COVERAGE_CEILING`], and the n = 10 000
//! run may send at most [`CANDIDATE_EXACT_CHECK_SHARE`] of the value
//! pairs it scans to an exact edit check — a ratio of counts, so that
//! gate is free of timing noise. Set
//! `IMPRECISE_BENCH_GATE=off` to skip the gates on noisy machines.

use criterion::{criterion_group, Criterion};
use imprecise::integrate::BlockingMode;
use imprecise_bench::{
    blocking_oracle, candidate_workload, generate_batched, generate_blocked, generate_pairwise,
    measure_candidate_scaling, CANDIDATE_COVERAGE_CEILING, CANDIDATE_EXACT_CHECK_SHARE,
    CANDIDATE_GATE_CEILING,
};
use std::hint::black_box;

fn bench_candidate_generation(c: &mut Criterion) {
    // The shim's test mode (`cargo test`, debug profile) runs each body
    // once for compile/behaviour coverage; the full grid would take
    // minutes unoptimised, so test mode shrinks every size. Timed runs
    // (`--bench`, release) use the real ladder.
    let bench_mode = std::env::args().any(|a| a == "--bench");
    let quadratic_n = if bench_mode { 1_000 } else { 120 };
    let ladder: [usize; 3] = if bench_mode {
        [1_000, 4_000, 10_000]
    } else {
        [120, 250, 400]
    };

    let oracle = blocking_oracle();
    let mut group = c.benchmark_group("candidate_generation");
    group.sample_size(10);

    // Quadratic baselines: affordable only at the bottom of the ladder
    // (see module doc for the measured per-iteration costs that set
    // this cap).
    let wq = candidate_workload(quadratic_n);
    group.bench_function(format!("pairwise/n={quadratic_n}"), |b| {
        b.iter(|| black_box(generate_pairwise(black_box(&wq), &oracle)))
    });
    group.bench_function(format!("batched/n={quadratic_n}"), |b| {
        b.iter(|| black_box(generate_batched(black_box(&wq), &oracle)))
    });
    drop(wq);

    for n in ladder {
        let w = candidate_workload(n);
        let work = generate_blocked(&w, &oracle, BlockingMode::RecallSafe).work;
        println!(
            "blocked/n={n} work: scanned {} bound survivors {} exact checks {} kept {}",
            work.scanned, work.bound_survivors, work.exact_checks, work.kept
        );
        group.bench_function(format!("blocked/n={n}"), |b| {
            b.iter(|| {
                black_box(generate_blocked(
                    black_box(&w),
                    &oracle,
                    BlockingMode::RecallSafe,
                ))
            })
        });
    }

    group.finish();
}

/// Regression gates for sub-quadratic candidate generation. The
/// measurement lives in `imprecise_bench` (`measure_candidate_scaling`)
/// and runs only under `--bench`: it times n = 10 000 workloads, which
/// is meaningful in release but takes minutes in the debug profile
/// `cargo test` uses.
fn candidate_scaling_gate() {
    if std::env::var("IMPRECISE_BENCH_GATE").is_ok_and(|v| v == "off") {
        println!("gate: skipped (IMPRECISE_BENCH_GATE=off)");
        return;
    }
    let m = measure_candidate_scaling();
    let ratio = m.ratio();
    let coverage = m.coverage();
    println!(
        "gate: blocked n=10000 {:?} / n=1000 {:?} = {ratio:.2}x \
         (ceiling {CANDIDATE_GATE_CEILING}x); scored {} of 10000^2 pairs \
         = {coverage:.5} (ceiling {CANDIDATE_COVERAGE_CEILING}); {} exact \
         checks of {} scanned pairs = {:.4} (ceiling {CANDIDATE_EXACT_CHECK_SHARE})",
        m.large,
        m.small,
        m.large_scored,
        m.large_work.exact_checks,
        m.large_work.scanned,
        m.exact_check_share()
    );
    assert!(
        m.holds(),
        "blocked candidate generation grew {ratio:.2}x across the 1k→10k \
         decade (ceiling {CANDIDATE_GATE_CEILING}x, quadratic would be \
         100x): the prefilter is no longer sub-quadratic"
    );
    assert!(
        m.coverage_holds(),
        "blocked candidate generation scored {coverage:.5} of the n=10000 \
         cross product (ceiling {CANDIDATE_COVERAGE_CEILING}): the \
         prefilter stopped pruning"
    );
    assert!(
        m.exact_checks_hold(),
        "blocked candidate generation sent {:.4} of its scanned pairs to an \
         exact edit check at n=10000 (ceiling {CANDIDATE_EXACT_CHECK_SHARE}): \
         the count bounds stopped filtering before the edit-distance check",
        m.exact_check_share()
    );
}

criterion_group!(benches, bench_candidate_generation);

fn main() {
    benches();
    // Gate only under `cargo bench` (the shim's test mode runs each
    // bench body once for compile/behaviour coverage; timing there is
    // meaningless).
    if std::env::args().any(|a| a == "--bench") {
        candidate_scaling_gate();
    }
}
