//! The parallel runner must be a pure scheduling change: identical
//! results — bit for bit — at any worker count.

use nucache_sim::runner::Runner;
use nucache_sim::{Scheme, SimConfig};
use nucache_trace::{Mix, SpecWorkload};

fn demo_mixes() -> Vec<Mix> {
    vec![
        Mix::new("friendly", vec![SpecWorkload::HmmerLike, SpecWorkload::GobmkLike]),
        Mix::new("contended", vec![SpecWorkload::McfLike, SpecWorkload::LibquantumLike]),
    ]
}

#[test]
fn grid_identical_at_one_and_eight_jobs() {
    let config = SimConfig::demo();
    let schemes = [Scheme::Lru, Scheme::Ucp, Scheme::nucache_default()];
    let mixes = demo_mixes();

    let serial = Runner::new().with_jobs(1).evaluate_grid(&config, &mixes, &schemes);
    let parallel = Runner::new().with_jobs(8).evaluate_grid(&config, &mixes, &schemes);

    assert_eq!(serial.len(), parallel.len());
    for (i, (row_s, row_p)) in serial.iter().zip(&parallel).enumerate() {
        for (j, ((rs, ms), (rp, mp))) in row_s.iter().zip(row_p).enumerate() {
            assert_eq!(rs, rp, "SimResult differs for mix {i} scheme {j}");
            // Normalized metrics must match to the last bit: the solo
            // cache may be filled by different threads but never with
            // different values.
            assert_eq!(
                ms.weighted_speedup.to_bits(),
                mp.weighted_speedup.to_bits(),
                "weighted speedup differs for mix {i} scheme {j}"
            );
            assert_eq!(ms.antt.to_bits(), mp.antt.to_bits(), "ANTT differs for mix {i} scheme {j}");
        }
    }
}

#[test]
fn run_jobs_preserves_submission_order() {
    let config = SimConfig::demo();
    let mixes = demo_mixes();
    let jobs: Vec<(Mix, Scheme)> = mixes
        .iter()
        .flat_map(|m| [(m.clone(), Scheme::Lru), (m.clone(), Scheme::nucache_default())])
        .collect();
    let results = Runner::new().with_jobs(8).run_jobs(&config, &jobs);
    assert_eq!(results.len(), jobs.len());
    for ((mix, scheme), result) in jobs.iter().zip(&results) {
        assert_eq!(result.mix, mix.name(), "result out of order");
        assert_eq!(
            &result.scheme,
            &scheme.build(config.llc, config.num_cores, config.seed).scheme_name()
        );
    }
}

#[test]
fn solo_results_match_direct_runs() {
    let config = SimConfig::demo();
    let runner = Runner::new().with_jobs(4);
    for w in [SpecWorkload::HmmerLike, SpecWorkload::McfLike] {
        assert_eq!(runner.solo(&config, w), nucache_sim::run_solo(&config, w));
    }
}
