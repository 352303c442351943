//! Output checks: committed expected records and physical invariants.
//!
//! `benchmark/expected/<workload>.csv` holds the default seed's
//! [`SweepRecord`]s, one `SweepRecord::to_csv` line per cell. A record
//! whose cell and engine seed appear there must match it field by field
//! within the golden fixture's tolerance ([`REL_TOL`], compared by
//! `experiments::verify::compare_golden`); every record must also satisfy
//! the physical invariants of [`invariants`].

use crate::scenario::{Cell, Workload};
use experiments::sweep::SweepRecord;
use experiments::verify::{compare_golden, GoldenRow};
use floorplan::reference::TOTAL_VR_COUNT;
use std::path::PathBuf;
use thermogater::{EngineConfig, PolicyKind};

/// Relative tolerance of the record comparison (that of `golden_tiny.csv`).
pub const REL_TOL: f64 = 1e-6;

/// The committed records of one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct Expected {
    /// Engine seed the records were simulated with.
    pub engine_seed: u64,
    /// The records, in scenario order.
    pub records: Vec<SweepRecord>,
}

impl Expected {
    /// Where the workload's records are committed.
    pub fn path(workload: Workload) -> PathBuf {
        PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("expected")
            .join(format!("{}.csv", workload.name()))
    }

    /// Reads the workload's committed records.
    pub fn load(workload: Workload) -> Result<Expected, String> {
        let path = Expected::path(workload);
        let text = std::fs::read_to_string(&path).map_err(|e| {
            format!(
                "{}: {e} (regenerate with `benchmark/run.sh --bless`)",
                path.display()
            )
        })?;
        Expected::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    }

    /// Parses the file format written by [`Expected::render`].
    pub fn parse(text: &str) -> Result<Expected, String> {
        let mut engine_seed = None;
        let mut records = Vec::new();
        for (i, line) in text.lines().enumerate().map(|(i, l)| (i + 1, l.trim())) {
            if let Some(seed) = line.strip_prefix("# engine_seed=") {
                engine_seed = Some(seed.parse().map_err(|_| format!("line {i}: bad seed"))?);
            } else if !line.is_empty() && !line.starts_with('#') {
                let record = SweepRecord::from_csv(line)
                    .ok_or_else(|| format!("line {i}: malformed record {line:?}"))?;
                records.push(record);
            }
        }
        let engine_seed = engine_seed.ok_or("missing `# engine_seed=` header")?;
        Ok(Expected {
            engine_seed,
            records,
        })
    }

    /// Renders the committed file of `workload`.
    pub fn render(&self, workload: Workload) -> String {
        let mut out = format!(
            "# {} records at seed {} (regenerate with `benchmark/run.sh --bless`)\n\
             # engine_seed={}\n\
             # benchmark,policy,tmax_c,gradient_c,mean_efficiency,mean_loss_w,max_noise_pct,emergency_fraction,mean_active,r_squared\n",
            workload.name(),
            crate::scenario::DEFAULT_SEED,
            self.engine_seed
        );
        for r in &self.records {
            out.push_str(&r.to_csv());
            out.push('\n');
        }
        out
    }

    /// The committed record of `cell`, when it was simulated with the
    /// same engine seed as the run asking.
    pub fn lookup(&self, cell: Cell, engine_seed: u64) -> Option<&SweepRecord> {
        if engine_seed != self.engine_seed {
            return None;
        }
        self.records
            .iter()
            .find(|r| r.benchmark == cell.0 && r.policy == cell.1)
    }
}

/// Checks one simulated record: physical invariants always, and equality
/// with the committed record when there is one.
///
/// # Errors
///
/// Describes the first violated invariant or mismatching field.
pub fn check_record(
    record: &SweepRecord,
    expected: Option<&SweepRecord>,
    config: &EngineConfig,
) -> Result<(), String> {
    invariants(record, config)?;
    if let Some(e) = expected {
        compare_golden(
            &[GoldenRow::from_record(record)],
            &[GoldenRow::from_record(e)],
            REL_TOL,
        )?;
    }
    Ok(())
}

/// Physical invariants every record satisfies on any seed: finite values,
/// conversion efficiency at most the regulator's peak (exactly 1 off
/// chip), T_max above ambient, at most all 96 regulators active, and
/// positive noise wherever regulators are on chip.
///
/// # Errors
///
/// Describes the first violated invariant.
pub fn invariants(r: &SweepRecord, config: &EngineConfig) -> Result<(), String> {
    let cell = format!("{}/{}", r.benchmark.label(), r.policy.label());
    let row = GoldenRow::from_record(r);
    for (field, value) in experiments::verify::GOLDEN_FIELDS.iter().zip(row.values) {
        if value.is_some_and(|v| !v.is_finite()) {
            return Err(format!("{cell}: {field} is not finite"));
        }
    }
    let ambient = config.thermal.package.ambient.get();
    if r.tmax_c <= ambient {
        return Err(format!(
            "{cell}: T_max {} not above ambient {ambient}",
            r.tmax_c
        ));
    }
    if !(0.0..=TOTAL_VR_COUNT as f64).contains(&r.mean_active) {
        return Err(format!("{cell}: {} active regulators", r.mean_active));
    }
    if r.policy == PolicyKind::OffChip {
        if r.mean_efficiency != 1.0 || r.max_noise_pct.is_some() {
            return Err(format!("{cell}: off-chip run reports on-chip conversion"));
        }
        return Ok(());
    }
    // A run held exactly at the peak may round a few ulps above it.
    let peak = config.design.peak_efficiency();
    if !(r.mean_efficiency > 0.0 && r.mean_efficiency <= peak * (1.0 + 1e-12)) {
        return Err(format!(
            "{cell}: efficiency {} outside (0, {peak}]",
            r.mean_efficiency
        ));
    }
    match r.max_noise_pct {
        Some(noise) if noise > 0.0 => Ok(()),
        other => Err(format!("{cell}: on-chip noise {other:?} not positive")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use workload::Benchmark;

    fn record() -> SweepRecord {
        SweepRecord {
            benchmark: Benchmark::Fft,
            policy: PolicyKind::PracVT,
            tmax_c: 71.25,
            gradient_c: 12.5,
            mean_efficiency: 0.89,
            mean_loss_w: 9.1,
            max_noise_pct: Some(22.6),
            emergency_fraction: Some(0.0041),
            mean_active: 71.5,
            r_squared: Some(0.97),
        }
    }

    fn scaled(r: &SweepRecord, f: f64) -> SweepRecord {
        SweepRecord {
            tmax_c: r.tmax_c * f,
            gradient_c: r.gradient_c * f,
            mean_efficiency: r.mean_efficiency * f,
            mean_loss_w: r.mean_loss_w * f,
            max_noise_pct: r.max_noise_pct.map(|v| v * f),
            emergency_fraction: r.emergency_fraction.map(|v| v * f),
            mean_active: r.mean_active * f,
            r_squared: r.r_squared.map(|v| v * f),
            ..r.clone()
        }
    }

    #[test]
    fn record_check_rejects_1e5_and_accepts_1e9() {
        let config = EngineConfig::standard();
        let base = record();
        assert!(check_record(&scaled(&base, 1.0 + 1e-9), Some(&base), &config).is_ok());
        assert!(check_record(&scaled(&base, 1.0 - 1e-9), Some(&base), &config).is_ok());
        let err = check_record(&scaled(&base, 1.0 + 1e-5), Some(&base), &config).unwrap_err();
        assert!(err.contains("tmax_c"), "{err}");
        assert!(check_record(&scaled(&base, 1.0 - 1e-5), Some(&base), &config).is_err());
        // Without a committed record only the invariants apply.
        assert!(check_record(&scaled(&base, 1.0 + 1e-5), None, &config).is_ok());
    }

    #[test]
    fn invariants_catch_unphysical_records() {
        let config = EngineConfig::standard();
        assert!(invariants(&record(), &config).is_ok());
        let bad = [
            SweepRecord {
                gradient_c: f64::NAN,
                ..record()
            },
            SweepRecord {
                mean_efficiency: 0.95,
                ..record()
            },
            SweepRecord {
                tmax_c: 40.0,
                ..record()
            },
            SweepRecord {
                mean_active: 97.0,
                ..record()
            },
            SweepRecord {
                max_noise_pct: Some(0.0),
                ..record()
            },
            SweepRecord {
                policy: PolicyKind::OffChip,
                ..record()
            },
        ];
        for r in bad {
            assert!(invariants(&r, &config).is_err(), "{r:?}");
        }
        let off_chip = SweepRecord {
            policy: PolicyKind::OffChip,
            mean_efficiency: 1.0,
            max_noise_pct: None,
            emergency_fraction: None,
            ..record()
        };
        assert!(invariants(&off_chip, &config).is_ok());
    }

    #[test]
    fn expected_files_round_trip_and_key_on_the_engine_seed() {
        let expected = Expected {
            engine_seed: 9,
            records: vec![record()],
        };
        let text = expected.render(Workload::SweepCold);
        assert_eq!(Expected::parse(&text).unwrap(), expected);
        let cell = (Benchmark::Fft, PolicyKind::PracVT);
        assert_eq!(expected.lookup(cell, 9), Some(&record()));
        assert_eq!(expected.lookup(cell, 1), None);
        assert_eq!(
            expected.lookup((Benchmark::Fmm, PolicyKind::PracVT), 9),
            None
        );
        assert!(Expected::parse("fft,nope\n").is_err());
    }
}
