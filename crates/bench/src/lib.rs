//! # bench — shared helpers for the benchmark harness
//!
//! Each bench target under `benches/` regenerates one of the paper's evaluation
//! artefacts (the root `README.md` lists the groups; medians land in
//! `BENCH_iql.json`). The helpers here build the fixtures the benches share:
//! populated dataspaces at a given scale and ready-made intersection
//! specifications.

use dataspace_core::dataspace::{Dataspace, DataspaceConfig};
use dataspace_core::workflow::IntegrationSession;
use proteomics::intersection_integration::all_iterations;
use proteomics::queries::priority_queries;
use proteomics::sources::{generate_gpmdb, generate_pedro, generate_pepseeker, CaseStudyScale};

/// Build a dataspace over the three case-study sources, federated but not yet
/// integrated.
pub fn federated_dataspace(scale: &CaseStudyScale) -> Dataspace {
    let mut ds = Dataspace::with_config(DataspaceConfig {
        drop_redundant: false,
        ..Default::default()
    });
    ds.add_source(generate_pedro(scale)).expect("add pedro");
    ds.add_source(generate_gpmdb(scale)).expect("add gpmdb");
    ds.add_source(generate_pepseeker(scale))
        .expect("add pepseeker");
    ds.federate().expect("federate");
    ds
}

/// Build a fully integrated dataspace (all five case-study iterations applied).
pub fn integrated_dataspace(scale: &CaseStudyScale) -> Dataspace {
    let mut ds = federated_dataspace(scale);
    for (_query, spec) in all_iterations().expect("specs") {
        ds.integrate(spec).expect("integrate");
    }
    ds
}

/// Build a fully integrated dataspace under a custom engine configuration
/// (`drop_redundant` is forced off, as everywhere in the harness). The
/// point-lookup bench uses this to pit the secondary-index leg against an
/// otherwise identical dataspace with `point_lookup_indexes: false`.
pub fn integrated_dataspace_with(scale: &CaseStudyScale, config: DataspaceConfig) -> Dataspace {
    let mut ds = Dataspace::with_config(DataspaceConfig {
        drop_redundant: false,
        ..config
    });
    ds.add_source(generate_pedro(scale)).expect("add pedro");
    ds.add_source(generate_gpmdb(scale)).expect("add gpmdb");
    ds.add_source(generate_pepseeker(scale))
        .expect("add pepseeker");
    ds.federate().expect("federate");
    for (_query, spec) in all_iterations().expect("specs") {
        ds.integrate(spec).expect("integrate");
    }
    ds
}

/// Build a fully integrated integration session (dataspace + priority queries +
/// pay-as-you-go history).
pub fn integrated_session(scale: &CaseStudyScale) -> IntegrationSession {
    let ds = Dataspace::with_config(DataspaceConfig {
        drop_redundant: false,
        ..Default::default()
    });
    let mut session = IntegrationSession::with_dataspace(ds);
    session
        .add_source(generate_pedro(scale))
        .expect("add pedro");
    session
        .add_source(generate_gpmdb(scale))
        .expect("add gpmdb");
    session
        .add_source(generate_pepseeker(scale))
        .expect("add pepseeker");
    session.set_priority_queries(priority_queries());
    session.federate().expect("federate");
    for (_query, spec) in all_iterations().expect("specs") {
        session.iterate(spec).expect("iterate");
    }
    session
}

/// The scale used by most benches: small enough for quick runs, large enough that
/// query evaluation dominates fixed costs.
pub fn bench_scale() -> CaseStudyScale {
    CaseStudyScale {
        proteins: 40,
        protein_hits: 80,
        peptide_hits: 120,
        searches: 8,
        overlap: 0.6,
        seed: 42,
    }
}

/// A sweep of data scales for throughput-vs-size series.
pub fn scale_sweep() -> Vec<(usize, CaseStudyScale)> {
    [1usize, 2, 4]
        .into_iter()
        .map(|factor| {
            (
                factor,
                CaseStudyScale {
                    proteins: 30 * factor,
                    protein_hits: 60 * factor,
                    peptide_hits: 90 * factor,
                    searches: 6 * factor,
                    overlap: 0.6,
                    seed: 42,
                },
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixtures_build_and_answer_queries() {
        let scale = CaseStudyScale::tiny();
        let ds = integrated_dataspace(&scale);
        assert!(ds.can_answer("count <<UProtein>>"));
        let session = integrated_session(&scale);
        assert!(session.all_queries_answerable());
        assert_eq!(scale_sweep().len(), 3);
    }
}
