//! Named SPEC-like synthetic workloads.
//!
//! Each workload models the *memory behaviour class* of a well-known SPEC
//! CPU benchmark — the names carry a `*_like` suffix because they are
//! synthetic stand-ins, not the benchmarks themselves (see DESIGN.md §3).
//! Working-set sizes are expressed relative to `REF_LLC_LINES`, the
//! 1 MiB reference LLC used throughout the evaluation, and stay *fixed*
//! across experiments so cache-size sweeps mean something.
//!
//! The classes cover the behaviours the NUcache mechanism is sensitive
//! to:
//!
//! * pure streamers (no reuse, high intensity) — pollution sources;
//! * retention-sensitive loops near the LLC capacity — NUcache's targets;
//! * pointer chasers (loop-like reuse, no spatial pattern);
//! * uniform-random workloads (low locality at any size);
//! * cache-friendly, compute-bound applications — largely LLC-neutral.

use crate::workload::{Behavior, SiteSpec, WorkloadSpec};

/// Lines in the 1 MiB / 64 B reference LLC that workload footprints are
/// scaled against.
const REF_LLC_LINES: u64 = 16 * 1024;

#[expect(clippy::cast_possible_truncation, reason = "footprint factors are small and positive")]
fn scaled(factor: f64) -> u64 {
    ((REF_LLC_LINES as f64) * factor).round() as u64
}

/// The synthetic workload roster used throughout the evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[allow(missing_docs)]
pub enum SpecWorkload {
    LibquantumLike,
    LbmLike,
    MilcLike,
    McfLike,
    OmnetppLike,
    SphinxLike,
    SoplexLike,
    XalancLike,
    AstarLike,
    GccLike,
    Bzip2Like,
    HmmerLike,
    GobmkLike,
    SjengLike,
}

impl SpecWorkload {
    /// Every workload, in roster order.
    pub const ALL: [SpecWorkload; 14] = [
        SpecWorkload::LibquantumLike,
        SpecWorkload::LbmLike,
        SpecWorkload::MilcLike,
        SpecWorkload::McfLike,
        SpecWorkload::OmnetppLike,
        SpecWorkload::SphinxLike,
        SpecWorkload::SoplexLike,
        SpecWorkload::XalancLike,
        SpecWorkload::AstarLike,
        SpecWorkload::GccLike,
        SpecWorkload::Bzip2Like,
        SpecWorkload::HmmerLike,
        SpecWorkload::GobmkLike,
        SpecWorkload::SjengLike,
    ];

    /// Name used in tables (e.g. `"mcf_like"`).
    pub const fn name(&self) -> &'static str {
        match self {
            SpecWorkload::LibquantumLike => "libquantum_like",
            SpecWorkload::LbmLike => "lbm_like",
            SpecWorkload::MilcLike => "milc_like",
            SpecWorkload::McfLike => "mcf_like",
            SpecWorkload::OmnetppLike => "omnetpp_like",
            SpecWorkload::SphinxLike => "sphinx_like",
            SpecWorkload::SoplexLike => "soplex_like",
            SpecWorkload::XalancLike => "xalanc_like",
            SpecWorkload::AstarLike => "astar_like",
            SpecWorkload::GccLike => "gcc_like",
            SpecWorkload::Bzip2Like => "bzip2_like",
            SpecWorkload::HmmerLike => "hmmer_like",
            SpecWorkload::GobmkLike => "gobmk_like",
            SpecWorkload::SjengLike => "sjeng_like",
        }
    }

    /// Looks a workload up by its table name.
    pub fn from_name(name: &str) -> Option<SpecWorkload> {
        SpecWorkload::ALL.iter().copied().find(|w| w.name() == name)
    }

    /// Behaviour class for the workload tables.
    pub const fn class(&self) -> &'static str {
        match self {
            SpecWorkload::LibquantumLike | SpecWorkload::LbmLike => "streaming",
            SpecWorkload::MilcLike => "streaming+random",
            SpecWorkload::McfLike | SpecWorkload::AstarLike => "pointer-chasing",
            SpecWorkload::OmnetppLike | SpecWorkload::SjengLike => "random-dominated",
            SpecWorkload::SphinxLike | SpecWorkload::SoplexLike | SpecWorkload::XalancLike => {
                "retention-sensitive"
            }
            SpecWorkload::GccLike | SpecWorkload::Bzip2Like => "mixed",
            SpecWorkload::HmmerLike | SpecWorkload::GobmkLike => "cache-friendly",
        }
    }

    /// Builds the concrete workload specification.
    pub fn spec(&self) -> WorkloadSpec {
        let s = |b, w| SiteSpec::new(b, w);
        let stream = |factor: f64, stride: u64| Behavior::Stream { lines: scaled(factor), stride };
        let lp = |factor: f64| Behavior::Loop { lines: scaled(factor) };
        let small_loop = |lines: u64| Behavior::Loop { lines };
        let rnd = |factor: f64| Behavior::RandomUniform { lines: scaled(factor) };
        let chase = |factor: f64| Behavior::PointerChase { lines: scaled(factor) };

        match self {
            // Pure streamer over a huge array; extremely memory-bound.
            SpecWorkload::LibquantumLike => WorkloadSpec::single_phase(
                self.name(),
                vec![s(stream(8.0, 1), 90), s(small_loop(64), 10)],
                (2, 6),
            ),
            // Two streaming sweeps, write-heavy (stencil update).
            SpecWorkload::LbmLike => WorkloadSpec::single_phase(
                self.name(),
                vec![
                    s(stream(6.0, 1), 45).with_writes(0.5),
                    s(stream(6.0, 1), 45).with_writes(0.5),
                    s(small_loop(128), 10),
                ],
                (3, 8),
            ),
            // Large streaming plus scattered random field accesses.
            SpecWorkload::MilcLike => WorkloadSpec::single_phase(
                self.name(),
                vec![s(stream(4.0, 2), 50), s(rnd(2.0), 30), s(small_loop(256), 20)],
                (4, 10),
            ),
            // Dominant pointer chase over a large graph, a reusable node
            // subset, and a cold scan; the classic delinquent-PC profile.
            SpecWorkload::McfLike => WorkloadSpec::single_phase(
                self.name(),
                vec![
                    s(chase(2.5), 35),
                    s(lp(0.55), 30),
                    s(stream(4.0, 1), 15),
                    s(small_loop(256), 20),
                ],
                (1, 4),
            ),
            // Event-queue churn: random over a large heap dominates the
            // traffic; a modest event-table loop is reused at a Next-Use
            // distance just beyond LRU reach — the DelinquentPC/Next-Use
            // structure the paper documents.
            SpecWorkload::OmnetppLike => WorkloadSpec::single_phase(
                self.name(),
                vec![s(rnd(1.5), 62), s(lp(0.42), 18), s(small_loop(128), 20)],
                (2, 8),
            ),
            // Acoustic-model tables: a small set of delinquent loads reuse
            // a compact model at distances beyond baseline reach because a
            // dominant feature stream (from the same application)
            // intervenes: NUcache's sweet spot, invisible to core-granular
            // partitioning.
            SpecWorkload::SphinxLike => WorkloadSpec::single_phase(
                self.name(),
                vec![s(lp(0.42), 20), s(stream(2.0, 1), 60), s(small_loop(256), 20)],
                (3, 8),
            ),
            // Strided matrix sweeps dominate; the reusable basis loop's
            // Next-Use lands just beyond LRU reach.
            SpecWorkload::SoplexLike => WorkloadSpec::single_phase(
                self.name(),
                vec![s(stream(3.0, 8), 58), s(lp(0.45), 22), s(small_loop(64), 20)],
                (2, 6),
            ),
            // DOM traversal slightly exceeding the LLC plus hot symbol
            // tables: retention-sensitive but hard for everyone.
            SpecWorkload::XalancLike => WorkloadSpec::single_phase(
                self.name(),
                vec![s(lp(1.3), 45), s(small_loop(512), 40), s(stream(2.0, 1), 15)],
                (3, 9),
            ),
            // Medium pointer chase whose nodes fit when protected, amid a
            // dominant map stream from the same application.
            SpecWorkload::AstarLike => WorkloadSpec::single_phase(
                self.name(),
                vec![s(chase(0.4), 25), s(small_loop(256), 20), s(stream(1.0, 1), 55)],
                (4, 10),
            ),
            // Many moderate loops (pass-local data) plus an IR stream.
            SpecWorkload::GccLike => WorkloadSpec::single_phase(
                self.name(),
                vec![
                    s(lp(0.12), 15),
                    s(lp(0.2), 15),
                    s(lp(0.3), 15),
                    s(small_loop(1024), 20),
                    s(small_loop(2048), 20),
                    s(stream(1.5, 1), 15),
                ],
                (5, 14),
            ),
            // Block-sorting: sequential scan plus a compact working set.
            SpecWorkload::Bzip2Like => WorkloadSpec::single_phase(
                self.name(),
                vec![s(stream(1.0, 1), 30), s(lp(0.25), 35), s(small_loop(128), 35)],
                (4, 10),
            ),
            // Compute-bound with a small resident profile table.
            SpecWorkload::HmmerLike => WorkloadSpec::single_phase(
                self.name(),
                vec![s(small_loop(2048), 75), s(lp(0.1), 25)],
                (8, 20),
            ),
            // Game tree: friendly board state, occasional random probes.
            SpecWorkload::GobmkLike => WorkloadSpec::single_phase(
                self.name(),
                vec![s(small_loop(4096), 70), s(rnd(0.3), 30)],
                (8, 24),
            ),
            // Hash-table probes over a medium table.
            SpecWorkload::SjengLike => WorkloadSpec::single_phase(
                self.name(),
                vec![s(rnd(0.5), 50), s(small_loop(1024), 50)],
                (6, 16),
            ),
        }
    }
}

impl std::fmt::Display for SpecWorkload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_specs_validate() {
        for w in SpecWorkload::ALL {
            let spec = w.spec(); // would panic if invalid
            assert_eq!(spec.name, w.name());
            assert!(spec.num_sites() >= 2 || w == SpecWorkload::HmmerLike || spec.num_sites() >= 1);
        }
    }

    #[test]
    fn names_roundtrip() {
        for w in SpecWorkload::ALL {
            assert_eq!(SpecWorkload::from_name(w.name()), Some(w));
        }
        assert_eq!(SpecWorkload::from_name("nonsense"), None);
    }

    #[test]
    fn names_unique() {
        let mut names: Vec<_> = SpecWorkload::ALL.iter().map(|w| w.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), SpecWorkload::ALL.len());
    }

    #[test]
    fn streamers_have_large_footprints() {
        let lib = SpecWorkload::LibquantumLike.spec();
        assert!(lib.footprint_lines() > 6 * REF_LLC_LINES);
        let hmmer = SpecWorkload::HmmerLike.spec();
        assert!(hmmer.footprint_lines() < REF_LLC_LINES / 4);
    }

    #[test]
    fn classes_cover_roster() {
        for w in SpecWorkload::ALL {
            assert!(!w.class().is_empty());
        }
    }

    #[test]
    fn display_matches_name() {
        assert_eq!(format!("{}", SpecWorkload::McfLike), "mcf_like");
    }
}
