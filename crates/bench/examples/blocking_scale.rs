//! Recall-safe blocking at scale, layer by layer: on `large_source(n)`
//! with the default movie oracle, times `BlockingPlan::features` over
//! both sides and `BlockingPlan::candidates` (`reps` times each), prints
//! the blocker's work counts, then integrates the scenario `reps` times
//! the way the ingest-catalog benchmark does (recall-safe blocking,
//! budget 64, serial) and prints each time, then the fingerprint and
//! full stats, so two builds can be checked for byte identity.
//!
//! ```sh
//! cargo run --release -p imprecise-bench --example blocking_scale -- 10000 3
//! ```

use imprecise::datagen::scenarios;
use imprecise::integrate::{integrate_xml, BlockingMode, IntegrationOptions, Parallelism};
use imprecise::oracle::ElemRef;
use imprecise::pxml::px_fingerprint;
use imprecise_bench::{blocking_oracle, candidate_workload};
use std::time::Instant;

fn arg(i: usize, default: usize) -> usize {
    std::env::args()
        .nth(i)
        .map_or(default, |s| s.parse().expect("a count"))
}

fn main() {
    let (n, reps) = (arg(1, 10_000), arg(2, 3));
    let oracle = blocking_oracle();
    let w = candidate_workload(n);
    let plan = oracle.blocking_plan("movie");
    for _ in 0..reps {
        let t = Instant::now();
        let features = |doc, nodes: &[_]| -> Vec<_> {
            nodes
                .iter()
                .map(|&node| plan.features(&ElemRef { doc, node }))
                .collect()
        };
        let (fa, fb) = (features(&w.a, &w.ga), features(&w.b, &w.gb));
        let features_ms = t.elapsed().as_secs_f64() * 1e3;
        let t = Instant::now();
        let candidates = plan.candidates(&fa, &fb);
        let candidates_ms = t.elapsed().as_secs_f64() * 1e3;
        println!(
            "n={n} features {features_ms:.1} ms candidates {candidates_ms:.1} ms pairs {}",
            candidates.pairs.len()
        );
        println!("work {:?}", candidates.work);
    }
    let s = scenarios::large_source(n);
    let opts = IntegrationOptions {
        max_matchings_per_component: 64,
        blocking: BlockingMode::RecallSafe,
        parallelism: Parallelism::SERIAL,
        ..IntegrationOptions::default()
    };
    let mut out = None;
    for _ in 0..reps {
        let t = Instant::now();
        out = Some(
            integrate_xml(&s.mpeg7, &s.imdb, &oracle, Some(&s.schema), &opts)
                .expect("the catalog integrates"),
        );
        println!("integrate {:.1} ms", t.elapsed().as_secs_f64() * 1e3);
    }
    let out = out.expect("at least one repetition");
    println!("fingerprint {:?}", px_fingerprint(&out.doc, out.doc.root()));
    println!("stats {:?}", out.stats);
}
