//! Importing and exporting activity traces.
//!
//! The synthetic suite stands in for the paper's SNIPER+McPAT pipeline,
//! but a downstream user with *real* per-unit activity traces (from their
//! own performance model, RTL activity counters, or measurement) should
//! be able to drive ThermoGater with them. This module reads and writes
//! the simple CSV interchange format:
//!
//! ```text
//! # dt_us=1.0
//! block_0,block_1,...,block_N-1
//! 0.52,0.48,...,0.10
//! 0.55,0.47,...,0.11
//! ```
//!
//! One row per sample instant, one column per [`BlockId`] in floorplan
//! order, activities in `[0, 1]`. Writing is lossless: reading a written
//! trace back yields its sample interval and every activity bit for bit.

use crate::mix::WorkloadSpec;
use crate::trace::ActivityTrace;
use crate::Benchmark;
use simkit::series::TraceMatrix;
use simkit::units::Seconds;
use simkit::{Error, Result};
use std::io::{BufRead, BufReader, Read, Write};

/// Writes a trace in the CSV interchange format.
///
/// Accepts any [`Write`]r by value; pass `&mut writer` to keep using the
/// writer afterwards.
///
/// # Errors
///
/// Returns [`Error::InvalidArgument`] when the underlying writer fails.
pub fn write_csv<W: Write>(trace: &ActivityTrace, mut writer: W) -> Result<()> {
    let io_err = |e: std::io::Error| Error::invalid_argument(format!("write failed: {e}"));
    writeln!(writer, "# dt_us={}", micros_text(trace.dt())).map_err(io_err)?;
    let n_blocks = trace.activity().channel_count();
    let header: Vec<String> = (0..n_blocks).map(|b| format!("block_{b}")).collect();
    writeln!(writer, "{}", header.join(",")).map_err(io_err)?;
    for s in 0..trace.sample_count() {
        let row: Vec<String> = (0..n_blocks)
            .map(|b| trace.activity().channel(b)[s].to_string())
            .collect();
        writeln!(writer, "{}", row.join(",")).map_err(io_err)?;
    }
    Ok(())
}

/// Reads a trace from the CSV interchange format.
///
/// Accepts any [`Read`]er by value; pass `&mut reader` to keep using the
/// reader afterwards. The trace is tagged with the given benchmark label
/// (external traces usually replace one of the suite's slots; use any
/// member of [`Benchmark::ALL`]).
///
/// # Errors
///
/// Returns [`Error::InvalidArgument`] when the header is missing, the
/// sample interval is not positive, a row has the wrong number of
/// columns, or an activity is not a finite number in `[0, 1]`.
pub fn read_csv<R: Read>(reader: R, benchmark: Benchmark) -> Result<ActivityTrace> {
    let mut lines = BufReader::new(reader).lines();
    let io_err = |e: std::io::Error| Error::invalid_argument(format!("read failed: {e}"));

    // Metadata line: "# dt_us=<f64>".
    let meta = lines
        .next()
        .ok_or_else(|| Error::invalid_argument("empty trace file"))?
        .map_err(io_err)?;
    let dt = parse_micros(
        meta.strip_prefix("# dt_us=")
            .ok_or_else(|| Error::invalid_argument("missing '# dt_us=' metadata line"))?
            .trim(),
    )?;
    if dt.get() <= 0.0 || !dt.get().is_finite() {
        return Err(Error::invalid_argument("dt_us must be positive"));
    }

    // Header line defines the column count.
    let header = lines
        .next()
        .ok_or_else(|| Error::invalid_argument("missing header line"))?
        .map_err(io_err)?;
    let n_blocks = header.split(',').count();
    if n_blocks == 0 {
        return Err(Error::invalid_argument("header has no columns"));
    }

    let mut matrix = TraceMatrix::new(n_blocks, dt);
    let mut row = vec![0.0f64; n_blocks];
    for (line_no, line) in lines.enumerate() {
        let line = line.map_err(io_err)?;
        if line.trim().is_empty() {
            continue;
        }
        let mut count = 0;
        for (i, cell) in line.split(',').enumerate() {
            if i >= n_blocks {
                return Err(Error::invalid_argument(format!(
                    "row {} has more than {n_blocks} columns",
                    line_no + 3
                )));
            }
            let v: f64 = cell.trim().parse().map_err(|e| {
                Error::invalid_argument(format!("row {}: bad value: {e}", line_no + 3))
            })?;
            if !v.is_finite() || !(0.0..=1.0).contains(&v) {
                return Err(Error::invalid_argument(format!(
                    "row {}: activity {v} outside [0, 1]",
                    line_no + 3
                )));
            }
            row[i] = v;
            count += 1;
        }
        if count != n_blocks {
            return Err(Error::invalid_argument(format!(
                "row {} has {count} columns, expected {n_blocks}",
                line_no + 3
            )));
        }
        matrix.push_column(&row)?;
    }
    if matrix.sample_count() == 0 {
        return Err(Error::invalid_argument("trace has no samples"));
    }
    Ok(ActivityTrace::from_parts(
        WorkloadSpec::Single(benchmark),
        matrix,
    ))
}

/// `dt` in microseconds as the shortest decimal that names it exactly:
/// the shortest round-trip form of `dt` in seconds with its decimal
/// exponent raised by six (so 1 µs is `1`, 2.5 µs `2.5`, 10 µs `1e1`).
/// Scaling the float by 10⁶ instead would round.
fn micros_text(dt: Seconds) -> String {
    let seconds = format!("{:e}", dt.get());
    match seconds.split_once('e').map(|(m, e)| (m, e.parse::<i32>())) {
        Some((mantissa, Ok(-6))) => mantissa.to_owned(),
        Some((mantissa, Ok(exp))) => format!("{mantissa}e{}", exp + 6),
        _ => seconds,
    }
}

/// Reads a `dt_us` value as [`Seconds`] by lowering its decimal exponent
/// by six before the one parse, so [`micros_text`]'s output reads back
/// bit for bit.
fn parse_micros(text: &str) -> Result<Seconds> {
    let (mantissa, exp) = match text.split_once(['e', 'E']) {
        Some((m, e)) => (m, e.parse::<i32>().ok()),
        None => (text, Some(0)),
    };
    exp.and_then(|e| format!("{mantissa}e{}", i64::from(e) - 6).parse().ok())
        .map(Seconds::new)
        .ok_or_else(|| Error::invalid_argument(format!("bad dt_us {text:?}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TraceGenerator;
    use floorplan::reference::power8_like;

    /// Writes `trace`, reads it back, and checks that the interval and
    /// every activity come back bit for bit.
    fn assert_lossless(trace: &ActivityTrace) {
        let back = read_csv(written(trace).as_slice(), trace.benchmark()).unwrap();
        assert_eq!(back.spec(), trace.spec());
        assert_eq!(back.dt().get().to_bits(), trace.dt().get().to_bits());
        let channels = trace.activity().channel_count();
        assert_eq!(back.activity().channel_count(), channels);
        for b in 0..channels {
            let bits = |t: &ActivityTrace| -> Vec<u64> {
                t.activity()
                    .channel(b)
                    .iter()
                    .map(|v| v.to_bits())
                    .collect()
            };
            assert_eq!(bits(&back), bits(trace), "block {b} at {:?}", trace.dt());
        }
    }

    fn written(trace: &ActivityTrace) -> Vec<u8> {
        let mut buffer = Vec::new();
        write_csv(trace, &mut buffer).unwrap();
        buffer
    }

    /// A three-block trace at `dt` whose activities span the exponent
    /// range, rounding-prone sums included.
    fn small_trace(dt: Seconds) -> ActivityTrace {
        let mut matrix = TraceMatrix::new(3, dt);
        for row in [
            [0.0, 1.0, 0.1 + 0.2],
            [1.0 / 3.0, 5e-324, 0.999_999_999_999_999_9],
            [2.0f64.powi(-40), 0.123_456_789_012_345_68, 1e-7],
        ] {
            matrix.push_column(&row).unwrap();
        }
        ActivityTrace::from_parts(WorkloadSpec::Single(Benchmark::Fft), matrix)
    }

    #[test]
    fn roundtrip_preserves_shape_and_values() {
        let chip = power8_like();
        assert_lossless(
            &TraceGenerator::new(&chip).generate(Benchmark::Volrend, Seconds::from_micros(200.0)),
        );
        let dts = [1.0, 2.5, 10.0, 20.0, 0.1, 1.0 / 3.0, 123_456.789, 7e-5];
        for dt in dts.into_iter().map(Seconds::from_micros) {
            assert_lossless(&small_trace(dt));
        }
        assert_eq!(micros_text(Seconds::new(1e-6)), "1");
        assert_eq!(micros_text(Seconds::new(2.5e-6)), "2.5");
        assert_eq!(micros_text(Seconds::new(1e-5)), "1e1");
        // `from_micros` rounds 2.5 × 10⁻⁶ to a neighbour, written exactly.
        assert_eq!(micros_text(Seconds::from_micros(2.5)), "2.4999999999999998");
    }

    /// Reads `bytes`, failing only if the reader panics.
    fn survives(bytes: &[u8]) -> simkit::check::TestResult {
        std::panic::catch_unwind(|| read_csv(bytes, Benchmark::Fft).map(|_| ()))
            .map(|_| ())
            .map_err(|_| format!("reader panicked on a {}-byte file", bytes.len()))
    }

    #[test]
    fn reader_survives_every_truncation_and_byte_mutation() {
        use simkit::check::{self, CheckConfig, Checker};
        let doc = written(&small_trace(Seconds::from_micros(2.5)));
        assert!(read_csv(doc.as_slice(), Benchmark::Fft).is_ok());
        for end in 0..=doc.len() {
            if let Err(e) = survives(&doc[..end]) {
                panic!("prefix of {end} bytes: {e}");
            }
        }
        let checker = Checker::new(CheckConfig {
            seed: 0x4353_5652, // "CSVR"
            cases: 512,
            ..CheckConfig::default()
        });
        let gen = (check::usize_in(0, 1 << 16), check::usize_in(0, 255));
        checker.assert("replay.reader_survives_mutation", &gen, |&(at, byte)| {
            let mut bytes = doc.clone();
            bytes[at % doc.len()] = byte as u8;
            survives(&bytes)
        });
    }

    #[test]
    fn rejects_malformed_inputs() {
        let no_meta = "block_0\n0.5\n";
        assert!(read_csv(no_meta.as_bytes(), Benchmark::Fft).is_err());

        let bad_dt = "# dt_us=-1\nblock_0\n0.5\n";
        assert!(read_csv(bad_dt.as_bytes(), Benchmark::Fft).is_err());

        let no_samples = "# dt_us=1\nblock_0\n";
        assert!(read_csv(no_samples.as_bytes(), Benchmark::Fft).is_err());

        let out_of_range = "# dt_us=1\nblock_0\n1.5\n";
        assert!(read_csv(out_of_range.as_bytes(), Benchmark::Fft).is_err());

        let ragged = "# dt_us=1\nblock_0,block_1\n0.5\n";
        assert!(read_csv(ragged.as_bytes(), Benchmark::Fft).is_err());

        let too_wide = "# dt_us=1\nblock_0\n0.5,0.6\n";
        assert!(read_csv(too_wide.as_bytes(), Benchmark::Fft).is_err());

        let not_a_number = "# dt_us=1\nblock_0\nabc\n";
        assert!(read_csv(not_a_number.as_bytes(), Benchmark::Fft).is_err());

        for dt in [
            "",
            "e3",
            "1e",
            "1e5e3",
            "inf",
            "nan",
            "0",
            "1e-400",
            "1e99999999999",
        ] {
            let text = format!("# dt_us={dt}\nblock_0\n0.5\n");
            assert!(read_csv(text.as_bytes(), Benchmark::Fft).is_err(), "{dt:?}");
        }
    }

    #[test]
    fn blank_lines_are_skipped() {
        let text = "# dt_us=2.5\nblock_0,block_1\n0.1,0.2\n\n0.3,0.4\n";
        let trace = read_csv(text.as_bytes(), Benchmark::Radix).unwrap();
        assert_eq!(trace.sample_count(), 2);
        assert_eq!(trace.activity().channel(1), &[0.2, 0.4]);
        assert!((trace.dt().as_micros() - 2.5).abs() < 1e-12);
        assert_eq!(trace.benchmark(), Benchmark::Radix);
    }
}
