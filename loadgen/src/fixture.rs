//! The case-study dataspace every workload runs against, built stage by
//! stage with each stage timed, plus the seeded commit log `mixed_rw` replays.

use std::path::{Path, PathBuf};
use std::time::Instant;

use dataspace_core::dataspace::{Dataspace, DataspaceConfig};
use proteomics::intersection_integration::all_iterations;
use proteomics::sources::{generate_gpmdb, generate_pedro, generate_pepseeker, CaseStudyScale};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::schedule::{build_row, Workload, TARGETS};

/// The `table1_columnar` bench's `scale_for`: sources sized so each holds
/// `rows` peptide-hit rows. The data seed is the fixture's, not `--seed`:
/// the benchmark varies the traffic, not the database.
pub fn scale_for(rows: usize) -> CaseStudyScale {
    CaseStudyScale {
        proteins: rows / 3,
        protein_hits: (rows * 2) / 3,
        peptide_hits: rows,
        searches: (rows / 50).max(4),
        overlap: 0.6,
        seed: 42,
    }
}

/// `join_spill`'s cache budgets: one quarter, rounded to a power of two, of
/// the resident bytes `join_read`'s queries reach after warm-up on
/// `join_spill`'s 100-row shape at the seed commit. `loadgen budgets` prints
/// them: plan cache 1 159 448 B, extent memo 1 288 174 B, index store
/// 288 088 B.
pub const SPILL_PLAN_CACHE_BYTES: u64 = 256 << 10;
pub const SPILL_EXTENT_CACHE_BYTES: u64 = 256 << 10;
pub const SPILL_INDEX_CACHE_BYTES: u64 = 64 << 10;

/// Rows the commit log holds before `mixed_rw`'s clock starts. They land in
/// `UProtein` and `UPeptideHit`, whose plans every insert retires, so the log
/// is sized to leave rebuilds in the milliseconds (see [`Workload::rows`]).
pub const LOG_SEED_ROWS: usize = 4_000;
const LOG_SEED_BATCH: usize = 8;
const LOG_SEED_KEY_BASE: i64 = 1_000_000;

pub fn config_for(workload: Workload, columnar: bool) -> DataspaceConfig {
    let base = DataspaceConfig {
        drop_redundant: false,
        columnar,
        ..DataspaceConfig::default()
    };
    match workload {
        Workload::JoinSpill => DataspaceConfig {
            plan_cache_bytes: SPILL_PLAN_CACHE_BYTES,
            extent_cache_bytes: SPILL_EXTENT_CACHE_BYTES,
            index_cache_bytes: SPILL_INDEX_CACHE_BYTES,
            ..base
        },
        _ => base,
    }
}

/// Wall time of each build stage, in seconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct Stages {
    /// `proteomics::generate_*` ×3.
    pub generate_s: f64,
    /// `add_source` ×3 + `federate`.
    pub federate_s: f64,
    /// The five `integrate` iterations.
    pub integrate_s: f64,
    /// `Dataspace::open` replaying an attached log (0 without one).
    pub replay_s: f64,
    pub replayed_rows: u64,
}

/// generate → `add_source` ×3 → `federate` → five `integrate` iterations →
/// `Dataspace::open` where a log is attached.
pub fn build(
    rows: usize,
    config: DataspaceConfig,
    log: Option<&Path>,
) -> Result<(Dataspace, Stages), String> {
    let scale = scale_for(rows);
    let mut stages = Stages::default();
    let t = Instant::now();
    let sources = [
        generate_pedro(&scale),
        generate_gpmdb(&scale),
        generate_pepseeker(&scale),
    ];
    stages.generate_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let mut ds = Dataspace::with_config(config);
    for source in sources {
        ds.add_source(source).map_err(|e| e.to_string())?;
    }
    ds.federate().map_err(|e| e.to_string())?;
    stages.federate_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    for (_query, spec) in all_iterations().map_err(|e| e.to_string())? {
        ds.integrate(spec).map_err(|e| e.to_string())?;
    }
    stages.integrate_s = t.elapsed().as_secs_f64();

    if let Some(path) = log {
        let t = Instant::now();
        let report = ds.open(path).map_err(|e| e.to_string())?;
        stages.replay_s = t.elapsed().as_secs_f64();
        stages.replayed_rows = report.rows_replayed;
    }
    Ok((ds, stages))
}

/// The batches the seeded log holds, in append order: a fixed function of
/// nothing, shared by the log writer and the oracle.
pub fn log_seed_batches() -> Vec<(usize, Vec<Vec<iql::Value>>)> {
    let mut rng = StdRng::seed_from_u64(0x106_5EED);
    let mut key = LOG_SEED_KEY_BASE;
    (0..LOG_SEED_ROWS / LOG_SEED_BATCH)
        .map(|batch| {
            let target = batch % TARGETS.len();
            let rows = (0..LOG_SEED_BATCH)
                .map(|_| {
                    key += 1;
                    build_row(target, key, &mut rng)
                })
                .collect();
            (target, rows)
        })
        .collect()
}

/// Write the seeded log at `path` by inserting [`log_seed_batches`] through a
/// dataspace attached to it. Untimed: it happens before any clock starts.
pub fn seed_log(rows: usize, path: &Path) -> Result<(), String> {
    std::fs::remove_file(path).ok();
    let (mut ds, _) = build(rows, config_for(Workload::MixedRw, true), Some(path))?;
    for (target, batch) in log_seed_batches() {
        let (source, table) = TARGETS[target];
        ds.insert_many(source, table, batch)
            .map_err(|e| e.to_string())?;
    }
    Ok(())
}

/// Where run artefacts go: `loadgen/out/`, found through the manifest
/// directory Cargo hands to `cargo run` (compile-time value as fallback).
pub fn out_dir() -> PathBuf {
    let manifest = std::env::var("CARGO_MANIFEST_DIR")
        .unwrap_or_else(|_| env!("CARGO_MANIFEST_DIR").to_string());
    let dir = Path::new(&manifest).join("out");
    std::fs::create_dir_all(&dir).ok();
    dir
}
