//! Hand-rolled, offline property-based testing: generators, shrinking,
//! and a persisted regression corpus.
//!
//! The module generalises the `DeterministicRng`-seeded style of the
//! repo's original `tests/properties.rs` into a reusable harness, without
//! pulling in an external proptest/quickcheck dependency:
//!
//! * [`Gen`] — a composable generator that can *generate* a random value,
//!   *shrink* a failing one toward a simpler counterexample, and
//!   *encode*/*decode* it as a single line of text (the corpus format);
//! * [`Checker`] — the runner: replays every matching corpus case first,
//!   then draws `cases` fresh inputs from per-case deterministic RNG
//!   streams, and on the first failure runs the shrink loop;
//! * [`Counterexample`] — the fully reproducible failure report: base
//!   seed, case source, original and shrunk inputs, and the `.case` file
//!   body to pin the regression under `tests/corpus/`.
//!
//! # Reproducibility
//!
//! Case `i` of a run with base seed `s` draws from
//! `DeterministicRng::new(s ^ (i+1)·C)` — each case has its own stream,
//! so a shrunk counterexample replays bit-for-bit from `(s, i)` alone and
//! corpus replay order cannot perturb later cases.
//!
//! # Corpus
//!
//! A corpus entry is a small text file (conventionally
//! `tests/corpus/<property>-<hash>.case`):
//!
//! ```text
//! # optional comment lines
//! property: vreg.required_active
//! seed: 0xa001
//! message: required_active too small
//! input: 1.35e1
//! ```
//!
//! Every [`Checker`] run with a configured corpus directory replays all
//! entries whose `property:` matches *before* the random phase, so fixed
//! bugs stay fixed. A corpus entry that no longer decodes, and a `.case`
//! file that does not parse, are reported as failures (stale corpus is a
//! bug, not noise).
//!
//! # Example
//!
//! ```
//! use simkit::check::{self, CheckConfig, Checker};
//!
//! let checker = Checker::new(CheckConfig {
//!     seed: 0xBEEF,
//!     cases: 32,
//!     ..CheckConfig::default()
//! });
//! let gen = check::f64_in(0.0, 100.0);
//! let outcome = checker.run("demo.non_negative", &gen, |&v| {
//!     check::ensure(v >= 0.0, || format!("negative draw {v}"))
//! });
//! assert!(outcome.is_pass());
//! ```

use crate::rng::DeterministicRng;
use std::fmt;
use std::path::{Path, PathBuf};

/// Mixing constant for per-case RNG streams (same constant as
/// [`DeterministicRng::fork`]).
const STREAM_MIX: u64 = 0xA24B_AED4_963E_E407;

/// Result of checking one property against one input: `Ok(())` when the
/// invariant holds, `Err(message)` describing the violation otherwise.
pub type TestResult = Result<(), String>;

/// Returns `Ok(())` when `cond` holds, otherwise an `Err` with the
/// lazily-built message — the ergonomic way to express invariants inside
/// a property closure.
pub fn ensure(cond: bool, message: impl FnOnce() -> String) -> TestResult {
    if cond {
        Ok(())
    } else {
        Err(message())
    }
}

/// A composable value generator with shrinking and a text codec.
///
/// `shrink` must only propose values strictly *simpler* than its
/// argument (closer to the range minimum, shorter, or element-wise
/// simpler) so the shrink loop terminates; the [`Checker`] additionally
/// bounds it with [`CheckConfig::max_shrink_evals`].
///
/// `encode`/`decode` must round-trip exactly (`decode(encode(v)) ==
/// Some(v)`); the encoding is what `.case` corpus files store.
pub trait Gen {
    /// The generated value type.
    type Value: Clone;

    /// Draws one random value.
    fn generate(&self, rng: &mut DeterministicRng) -> Self::Value;

    /// Candidate simplifications of `value`, simplest first. An empty
    /// vector means the value is already minimal.
    fn shrink(&self, value: &Self::Value) -> Vec<Self::Value>;

    /// Encodes `value` as a single line of text.
    fn encode(&self, value: &Self::Value) -> String;

    /// Parses a value back from its [`Gen::encode`] form; `None` when the
    /// text is not a valid encoding for this generator.
    fn decode(&self, text: &str) -> Option<Self::Value>;
}

// ---------------------------------------------------------------------------
// Generators
// ---------------------------------------------------------------------------

/// Uniform `f64` generator over `[lo, hi)`; shrinks toward `lo`.
#[derive(Debug, Clone, Copy)]
pub struct F64In {
    lo: f64,
    hi: f64,
}

/// Uniform `f64` in `[lo, hi)`, shrinking toward `lo`.
///
/// # Panics
///
/// Panics when the range is empty or not finite.
pub fn f64_in(lo: f64, hi: f64) -> F64In {
    assert!(lo.is_finite() && hi.is_finite() && lo < hi, "bad range");
    F64In { lo, hi }
}

impl Gen for F64In {
    type Value = f64;

    fn generate(&self, rng: &mut DeterministicRng) -> f64 {
        rng.uniform_range(self.lo, self.hi)
    }

    fn shrink(&self, &value: &f64) -> Vec<f64> {
        let d = value - self.lo;
        if d <= 0.0 {
            return Vec::new();
        }
        let mut out = Vec::new();
        // Simplest first, then successively finer bisection toward the
        // failing value: each accepted candidate cuts the distance to
        // `lo` by at least 1/16, so the loop terminates.
        for c in [
            self.lo,
            self.lo + d / 2.0,
            value - d / 4.0,
            value - d / 16.0,
        ] {
            if c >= self.lo && c < value && !out.contains(&c) {
                out.push(c);
            }
        }
        out
    }

    fn encode(&self, value: &f64) -> String {
        format!("{value:e}")
    }

    fn decode(&self, text: &str) -> Option<f64> {
        let v: f64 = text.trim().parse().ok()?;
        (v.is_finite() && v >= self.lo && v < self.hi).then_some(v)
    }
}

/// Uniform `usize` generator over `lo..=hi`; shrinks toward `lo`.
#[derive(Debug, Clone, Copy)]
pub struct UsizeIn {
    lo: usize,
    hi: usize,
}

/// Uniform `usize` in `lo..=hi`, shrinking toward `lo`.
///
/// # Panics
///
/// Panics when `lo > hi`.
pub fn usize_in(lo: usize, hi: usize) -> UsizeIn {
    assert!(lo <= hi, "bad range");
    UsizeIn { lo, hi }
}

impl Gen for UsizeIn {
    type Value = usize;

    fn generate(&self, rng: &mut DeterministicRng) -> usize {
        self.lo + rng.uniform_usize(self.hi - self.lo + 1)
    }

    fn shrink(&self, &value: &usize) -> Vec<usize> {
        let mut out = Vec::new();
        for c in [
            self.lo,
            self.lo + (value - self.lo) / 2,
            value.wrapping_sub(1),
        ] {
            if c >= self.lo && c < value && !out.contains(&c) {
                out.push(c);
            }
        }
        out
    }

    fn encode(&self, value: &usize) -> String {
        value.to_string()
    }

    fn decode(&self, text: &str) -> Option<usize> {
        let v: usize = text.trim().parse().ok()?;
        (v >= self.lo && v <= self.hi).then_some(v)
    }
}

/// Fair-coin `bool` generator; `true` shrinks to `false`.
#[derive(Debug, Clone, Copy)]
pub struct BoolGen;

/// Fair-coin `bool`; `true` shrinks to `false`.
pub fn bool_any() -> BoolGen {
    BoolGen
}

impl Gen for BoolGen {
    type Value = bool;

    fn generate(&self, rng: &mut DeterministicRng) -> bool {
        rng.bernoulli(0.5)
    }

    fn shrink(&self, &value: &bool) -> Vec<bool> {
        if value {
            vec![false]
        } else {
            Vec::new()
        }
    }

    fn encode(&self, value: &bool) -> String {
        if *value { "1" } else { "0" }.to_string()
    }

    fn decode(&self, text: &str) -> Option<bool> {
        match text.trim() {
            "1" => Some(true),
            "0" => Some(false),
            _ => None,
        }
    }
}

/// Vector generator: a length drawn from `min_len..=max_len`, elements
/// from an inner generator. Shrinks by halving, dropping one element,
/// then simplifying elements in place.
///
/// Element encodings must contain no whitespace (true for the scalar
/// generators in this module) — the vector codec is space-separated
/// inside brackets: `[1e0 2e0 3e0]`.
#[derive(Debug, Clone, Copy)]
pub struct VecOf<G> {
    elem: G,
    min_len: usize,
    max_len: usize,
}

/// Vector of `min_len..=max_len` values drawn from `elem`.
///
/// # Panics
///
/// Panics when `min_len > max_len`.
pub fn vec_of<G: Gen>(elem: G, min_len: usize, max_len: usize) -> VecOf<G> {
    assert!(min_len <= max_len, "bad length range");
    VecOf {
        elem,
        min_len,
        max_len,
    }
}

impl<G: Gen> Gen for VecOf<G> {
    type Value = Vec<G::Value>;

    fn generate(&self, rng: &mut DeterministicRng) -> Vec<G::Value> {
        let len = self.min_len + rng.uniform_usize(self.max_len - self.min_len + 1);
        (0..len).map(|_| self.elem.generate(rng)).collect()
    }

    fn shrink(&self, value: &Vec<G::Value>) -> Vec<Vec<G::Value>> {
        let mut out: Vec<Vec<G::Value>> = Vec::new();
        let len = value.len();
        // Structural shrinks first: halves, then one-element drops.
        if len / 2 >= self.min_len && len / 2 < len {
            out.push(value[..len / 2].to_vec());
            out.push(value[len - len / 2..].to_vec());
        }
        if len > self.min_len {
            for i in 0..len {
                let mut v = value.clone();
                v.remove(i);
                out.push(v);
            }
        }
        // Element shrinks: replace each element with its simplest
        // candidate (the loop re-enters, so deeper element shrinks still
        // happen across iterations).
        for i in 0..len {
            if let Some(simpler) = self.elem.shrink(&value[i]).into_iter().next() {
                let mut v = value.clone();
                v[i] = simpler;
                out.push(v);
            }
        }
        out
    }

    fn encode(&self, value: &Vec<G::Value>) -> String {
        let parts: Vec<String> = value.iter().map(|v| self.elem.encode(v)).collect();
        format!("[{}]", parts.join(" "))
    }

    fn decode(&self, text: &str) -> Option<Vec<G::Value>> {
        let inner = text.trim().strip_prefix('[')?.strip_suffix(']')?;
        let mut out = Vec::new();
        for part in inner.split_whitespace() {
            out.push(self.elem.decode(part)?);
        }
        (out.len() >= self.min_len && out.len() <= self.max_len).then_some(out)
    }
}

/// Implements [`Gen`] for tuples of generators: components generate in
/// order, shrink one at a time, and encode joined by `" ; "` (so vector
/// components can nest inside tuples, but not the other way round).
macro_rules! tuple_gen {
    ($($g:ident / $v:ident / $idx:tt),+) => {
        impl<$($g: Gen),+> Gen for ($($g,)+) {
            type Value = ($($g::Value,)+);

            fn generate(&self, rng: &mut DeterministicRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }

            fn shrink(&self, value: &Self::Value) -> Vec<Self::Value> {
                let mut out = Vec::new();
                $(
                    for cand in self.$idx.shrink(&value.$idx) {
                        let mut v = value.clone();
                        v.$idx = cand;
                        out.push(v);
                    }
                )+
                out
            }

            fn encode(&self, value: &Self::Value) -> String {
                let parts = [$(self.$idx.encode(&value.$idx)),+];
                parts.join(" ; ")
            }

            fn decode(&self, text: &str) -> Option<Self::Value> {
                let parts: Vec<&str> = text.split(';').map(str::trim).collect();
                let expected = [$(stringify!($g)),+].len();
                if parts.len() != expected {
                    return None;
                }
                $(let $v = self.$idx.decode(parts[$idx])?;)+
                Some(($($v,)+))
            }
        }
    };
}

tuple_gen!(A / a / 0, B / b / 1);
tuple_gen!(A / a / 0, B / b / 1, C / c / 2);
tuple_gen!(A / a / 0, B / b / 1, C / c / 2, D / d / 3);

// ---------------------------------------------------------------------------
// Checker
// ---------------------------------------------------------------------------

/// Configuration of a [`Checker`] run.
#[derive(Debug, Clone)]
pub struct CheckConfig {
    /// Base seed; case `i` derives its own independent RNG stream from
    /// `(seed, i)`.
    pub seed: u64,
    /// Number of random cases to draw after corpus replay.
    pub cases: usize,
    /// Upper bound on property evaluations spent shrinking one failure.
    pub max_shrink_evals: usize,
    /// Directory of `.case` regression files replayed before the random
    /// phase (`None` disables corpus replay).
    pub corpus: Option<PathBuf>,
}

impl Default for CheckConfig {
    fn default() -> Self {
        CheckConfig {
            seed: 0x7467_2d63_6865_636b, // "tg-check"
            cases: 64,
            max_shrink_evals: 256,
            corpus: None,
        }
    }
}

/// Where a failing input came from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CaseSource {
    /// Replayed from a corpus file.
    Corpus(PathBuf),
    /// Drawn in the random phase as case number `index`.
    Random {
        /// Zero-based case index within the run.
        index: usize,
    },
}

impl fmt::Display for CaseSource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CaseSource::Corpus(path) => write!(f, "corpus {}", path.display()),
            CaseSource::Random { index } => write!(f, "random case #{index}"),
        }
    }
}

/// A fully reproducible property failure.
#[derive(Debug, Clone)]
pub struct Counterexample {
    /// Property name.
    pub property: String,
    /// Base seed of the run.
    pub seed: u64,
    /// Which case failed.
    pub source: CaseSource,
    /// Encoded input as originally drawn/replayed.
    pub original_input: String,
    /// Encoded input after shrinking (equal to `original_input` when no
    /// shrink candidate still failed).
    pub input: String,
    /// Number of successful shrink steps taken.
    pub shrink_steps: usize,
    /// The failure message of the shrunk input.
    pub message: String,
}

impl Counterexample {
    /// Human-readable multi-line report: seed, source, original and
    /// shrunk inputs, and the failure message.
    pub fn render(&self) -> String {
        format!(
            "property {p} FAILED\n  seed ........ {s:#018x}\n  source ...... {src}\n  original .... {orig}\n  shrunk ...... {inp}  ({steps} shrink steps)\n  failure ..... {msg}\n  pin it: save the block below as tests/corpus/{file}\n{case}",
            p = self.property,
            s = self.seed,
            src = self.source,
            orig = self.original_input,
            inp = self.input,
            steps = self.shrink_steps,
            msg = self.message.replace('\n', " | "),
            file = self.case_file_name(),
            case = indent(&self.to_case_file(), "    "),
        )
    }

    /// The `.case` corpus file body pinning this counterexample.
    pub fn to_case_file(&self) -> String {
        format!(
            "# shrunk counterexample, pinned as a regression\nproperty: {}\nseed: {:#x}\nmessage: {}\ninput: {}\n",
            self.property,
            self.seed,
            self.message.replace('\n', " | "),
            self.input,
        )
    }

    /// Deterministic corpus file name for this counterexample.
    pub fn case_file_name(&self) -> String {
        let slug: String = self
            .property
            .chars()
            .map(|c| if c.is_ascii_alphanumeric() { c } else { '-' })
            .collect();
        format!("{slug}-{:08x}.case", fnv1a(self.input.as_bytes()) as u32)
    }

    /// Writes the `.case` file into `dir`, returning its path.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors (missing directory, permissions).
    pub fn save_into(&self, dir: &Path) -> std::io::Result<PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(self.case_file_name());
        std::fs::write(&path, self.to_case_file())?;
        Ok(path)
    }
}

/// Outcome of a [`Checker`] run.
#[derive(Debug, Clone)]
pub enum CheckOutcome {
    /// All corpus and random cases passed.
    Pass {
        /// Random cases evaluated.
        cases: usize,
        /// Corpus cases replayed.
        corpus_cases: usize,
    },
    /// A case failed; the boxed counterexample is fully shrunk.
    Fail(Box<Counterexample>),
}

impl CheckOutcome {
    /// Whether the run passed.
    pub fn is_pass(&self) -> bool {
        matches!(self, CheckOutcome::Pass { .. })
    }

    /// The counterexample of a failing run, if any.
    pub fn counterexample(&self) -> Option<&Counterexample> {
        match self {
            CheckOutcome::Pass { .. } => None,
            CheckOutcome::Fail(c) => Some(c),
        }
    }
}

/// The property-check runner: corpus replay, random generation, and
/// shrinking. See the [module docs](self) for the overall model.
#[derive(Debug, Clone, Default)]
pub struct Checker {
    config: CheckConfig,
}

impl Checker {
    /// A checker with the given configuration.
    pub fn new(config: CheckConfig) -> Self {
        Checker { config }
    }

    /// A default-configured checker with the given base seed.
    pub fn with_seed(seed: u64) -> Self {
        Checker {
            config: CheckConfig {
                seed,
                ..CheckConfig::default()
            },
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &CheckConfig {
        &self.config
    }

    /// The per-case RNG stream for `(seed, index)` — exposed so a
    /// counterexample can be replayed by hand.
    pub fn case_rng(seed: u64, index: usize) -> DeterministicRng {
        DeterministicRng::new(seed ^ (index as u64 + 1).wrapping_mul(STREAM_MIX))
    }

    /// Checks `prop` over the corpus (first) and `cases` random inputs,
    /// shrinking the first failure.
    pub fn run<G: Gen>(
        &self,
        property: &str,
        gen: &G,
        prop: impl Fn(&G::Value) -> TestResult,
    ) -> CheckOutcome {
        let mut corpus_cases = 0;
        if let Some(dir) = &self.config.corpus {
            for (path, entry) in corpus_entries(dir, property) {
                // A file that does not parse, or whose input this generator
                // cannot decode, fails as it stands: nothing to shrink.
                let stale = |input: String, why: &str| {
                    CheckOutcome::Fail(Box::new(Counterexample {
                        property: property.to_string(),
                        seed: self.config.seed,
                        source: CaseSource::Corpus(path.clone()),
                        original_input: input.clone(),
                        input,
                        shrink_steps: 0,
                        message: format!("corpus {why}; regenerate or delete it"),
                    }))
                };
                let Some(entry) = entry else {
                    let why = format!("file {} does not parse as a .case file", path.display());
                    return stale(String::new(), &why);
                };
                corpus_cases += 1;
                let Some(value) = gen.decode(&entry.input) else {
                    let why = format!(
                        "entry {} no longer decodes for this generator",
                        path.display()
                    );
                    return stale(entry.input, &why);
                };
                if let Err(message) = prop(&value) {
                    return CheckOutcome::Fail(Box::new(self.shrink(
                        property,
                        CaseSource::Corpus(path),
                        gen,
                        &prop,
                        value,
                        message,
                    )));
                }
            }
        }
        for index in 0..self.config.cases {
            let mut rng = Checker::case_rng(self.config.seed, index);
            let value = gen.generate(&mut rng);
            if let Err(message) = prop(&value) {
                return CheckOutcome::Fail(Box::new(self.shrink(
                    property,
                    CaseSource::Random { index },
                    gen,
                    &prop,
                    value,
                    message,
                )));
            }
        }
        CheckOutcome::Pass {
            cases: self.config.cases,
            corpus_cases,
        }
    }

    /// Runs the property and panics with the rendered counterexample on
    /// failure — the drop-in replacement for an assert-per-iteration
    /// loop in a `#[test]`. When the `SIMKIT_CHECK_SAVE` environment
    /// variable is set and a corpus directory is configured, the shrunk
    /// counterexample is also written there so it can be committed.
    ///
    /// # Panics
    ///
    /// Panics when any corpus or random case fails.
    pub fn assert<G: Gen>(&self, property: &str, gen: &G, prop: impl Fn(&G::Value) -> TestResult) {
        if let CheckOutcome::Fail(cex) = self.run(property, gen, prop) {
            let mut rendered = cex.render();
            if std::env::var_os("SIMKIT_CHECK_SAVE").is_some() {
                if let Some(dir) = &self.config.corpus {
                    match cex.save_into(dir) {
                        Ok(path) => rendered.push_str(&format!("\n  saved to {}", path.display())),
                        Err(e) => rendered.push_str(&format!("\n  (corpus save failed: {e})")),
                    }
                }
            }
            panic!("{rendered}");
        }
    }

    fn shrink<G: Gen>(
        &self,
        property: &str,
        source: CaseSource,
        gen: &G,
        prop: &impl Fn(&G::Value) -> TestResult,
        original: G::Value,
        original_message: String,
    ) -> Counterexample {
        let original_input = gen.encode(&original);
        let mut current = original;
        let mut message = original_message;
        let mut steps = 0;
        let mut evals = 0;
        'outer: while evals < self.config.max_shrink_evals {
            for candidate in gen.shrink(&current) {
                if evals >= self.config.max_shrink_evals {
                    break 'outer;
                }
                evals += 1;
                if let Err(m) = prop(&candidate) {
                    current = candidate;
                    message = m;
                    steps += 1;
                    continue 'outer;
                }
            }
            break;
        }
        Counterexample {
            property: property.to_string(),
            seed: self.config.seed,
            source,
            original_input,
            input: gen.encode(&current),
            shrink_steps: steps,
            message,
        }
    }
}

// ---------------------------------------------------------------------------
// Corpus files
// ---------------------------------------------------------------------------

/// A parsed `.case` corpus entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CorpusEntry {
    /// Property the entry belongs to.
    pub property: String,
    /// Base seed recorded when the counterexample was found (for
    /// provenance; replay does not need it).
    pub seed: Option<u64>,
    /// Failure message recorded when the counterexample was found.
    pub message: Option<String>,
    /// Encoded input, replayed through [`Gen::decode`].
    pub input: String,
}

/// Parses a `.case` file body; `None` when required fields are missing.
pub fn parse_case(text: &str) -> Option<CorpusEntry> {
    let mut property = None;
    let mut seed = None;
    let mut message = None;
    let mut input = None;
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (key, value) = line.split_once(':')?;
        let value = value.trim();
        match key.trim() {
            "property" => property = Some(value.to_string()),
            "seed" => {
                let digits = value.trim_start_matches("0x");
                seed = u64::from_str_radix(digits, 16)
                    .ok()
                    .or_else(|| value.parse().ok());
            }
            "message" => message = Some(value.to_string()),
            "input" => input = Some(value.to_string()),
            _ => {}
        }
    }
    Some(CorpusEntry {
        property: property?,
        seed,
        message,
        input: input?,
    })
}

/// The `.case` files in `dir` whose property matches, sorted by file
/// name so replay order is stable, each with its parsed entry. A file
/// that cannot be read or parsed belongs to no known property, so it is
/// listed for every property with no entry.
fn corpus_entries(dir: &Path, property: &str) -> Vec<(PathBuf, Option<CorpusEntry>)> {
    let Ok(read) = std::fs::read_dir(dir) else {
        return Vec::new();
    };
    let mut paths: Vec<PathBuf> = read
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|e| e == "case"))
        .collect();
    paths.sort();
    paths
        .into_iter()
        .filter_map(|path| {
            let entry = std::fs::read_to_string(&path).ok();
            match entry.as_deref().and_then(parse_case) {
                Some(entry) if entry.property != property => None,
                entry => Some((path, entry)),
            }
        })
        .collect()
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

fn indent(text: &str, prefix: &str) -> String {
    text.lines()
        .map(|l| format!("{prefix}{l}"))
        .collect::<Vec<_>>()
        .join("\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("simkit-check-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn scalar_codecs_round_trip() {
        let g = f64_in(-10.0, 10.0);
        for v in [-10.0, 0.0, 0.1, 9.999_999, 1.0 / 3.0] {
            assert_eq!(g.decode(&g.encode(&v)), Some(v));
        }
        let u = usize_in(2, 9);
        assert_eq!(u.decode(&u.encode(&7)), Some(7));
        assert_eq!(u.decode("1"), None, "out of range rejected");
        let b = bool_any();
        assert_eq!(b.decode(&b.encode(&true)), Some(true));
    }

    #[test]
    fn vec_and_tuple_codecs_round_trip() {
        let g = vec_of(f64_in(0.0, 5.0), 0, 8);
        let v = vec![0.5, 1.0 / 3.0, 4.75];
        assert_eq!(g.decode(&g.encode(&v)), Some(v));
        assert_eq!(g.decode(&g.encode(&vec![])), Some(vec![]));
        let t = (vec_of(f64_in(0.0, 5.0), 1, 4), usize_in(0, 9));
        let tv = (vec![1.25, 3.0], 4usize);
        assert_eq!(t.decode(&t.encode(&tv)), Some(tv));
    }

    #[test]
    fn shrinks_scalar_to_near_boundary() {
        let checker = Checker::new(CheckConfig {
            seed: 0xC0FFEE,
            cases: 64,
            max_shrink_evals: 512,
            corpus: None,
        });
        let outcome = checker.run("test.ge_five_fails", &f64_in(0.0, 100.0), |&v| {
            ensure(v < 5.0, || format!("{v} >= 5"))
        });
        let cex = outcome.counterexample().expect("must fail").clone();
        let shrunk: f64 = cex.input.parse().unwrap();
        assert!(
            (5.0..6.0).contains(&shrunk),
            "shrunk to {shrunk}, expected just above 5"
        );
        assert!(cex.shrink_steps > 0);
    }

    #[test]
    fn shrinks_vector_to_single_offender() {
        let checker = Checker::with_seed(0xBADCAFE);
        let gen = vec_of(f64_in(0.0, 10.0), 1, 24);
        let outcome = checker.run("test.contains_large", &gen, |v| {
            ensure(v.iter().all(|&x| x < 9.0), || "has large element".into())
        });
        let cex = outcome.counterexample().expect("must fail");
        let shrunk = gen.decode(&cex.input).unwrap();
        assert_eq!(shrunk.len(), 1, "shrunk to {:?}", shrunk);
        assert!(shrunk[0] >= 9.0);
    }

    #[test]
    fn runs_are_deterministic() {
        let run = || {
            let checker = Checker::with_seed(0xD00D);
            checker.run("test.det", &vec_of(f64_in(0.0, 1.0), 1, 16), |v| {
                ensure(v.iter().sum::<f64>() < 6.0, || "sum too large".into())
            })
        };
        let (a, b) = (run(), run());
        match (a, b) {
            (CheckOutcome::Fail(ca), CheckOutcome::Fail(cb)) => {
                assert_eq!(ca.input, cb.input);
                assert_eq!(ca.original_input, cb.original_input);
                assert_eq!(ca.shrink_steps, cb.shrink_steps);
            }
            (CheckOutcome::Pass { .. }, CheckOutcome::Pass { .. }) => {}
            _ => panic!("outcomes diverged"),
        }
    }

    #[test]
    fn corpus_replays_before_random_phase() {
        let dir = temp_dir("replay");
        std::fs::write(
            dir.join("test-corpus-0001.case"),
            "# pinned\nproperty: test.corpus\nseed: 0x1\nmessage: m\ninput: 7.5e0\n",
        )
        .unwrap();
        let checker = Checker::new(CheckConfig {
            seed: 1,
            cases: 0, // random phase disabled: only the corpus can fail
            corpus: Some(dir.clone()),
            ..CheckConfig::default()
        });
        let outcome = checker.run("test.corpus", &f64_in(0.0, 10.0), |&v| {
            ensure(v < 5.0, || format!("{v} >= 5"))
        });
        let cex = outcome.counterexample().expect("corpus case must fail");
        assert!(matches!(cex.source, CaseSource::Corpus(_)));
        // Shrinking a corpus case still applies.
        let shrunk: f64 = cex.input.parse().unwrap();
        assert!(shrunk < 7.5);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_corpus_entry_is_an_explicit_failure() {
        let dir = temp_dir("stale");
        std::fs::write(
            dir.join("test-stale-0001.case"),
            "property: test.stale\ninput: not-a-float\n",
        )
        .unwrap();
        let checker = Checker::new(CheckConfig {
            seed: 1,
            cases: 0,
            corpus: Some(dir.clone()),
            ..CheckConfig::default()
        });
        let outcome = checker.run("test.stale", &f64_in(0.0, 10.0), |_| Ok(()));
        let cex = outcome.counterexample().expect("stale entry must fail");
        assert!(cex.message.contains("no longer decodes"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn malformed_corpus_file_fails_every_property() {
        let dir = temp_dir("malformed");
        std::fs::write(
            dir.join("test-malformed-0001.case"),
            "property: test.malformed\na wrapped comment line without its hash\ninput: 1e0\n",
        )
        .unwrap();
        let checker = Checker::new(CheckConfig {
            seed: 1,
            cases: 0,
            corpus: Some(dir.clone()),
            ..CheckConfig::default()
        });
        // Which property the file pinned is unknown, so every run fails.
        for property in ["test.malformed", "test.other"] {
            let outcome = checker.run(property, &f64_in(0.0, 10.0), |_| Ok(()));
            let cex = outcome.counterexample().expect("malformed file must fail");
            assert!(
                cex.message.contains("test-malformed-0001.case"),
                "{}",
                cex.message
            );
            assert!(cex.message.contains("does not parse"), "{}", cex.message);
        }
        // A file that parses but names another property is still skipped.
        std::fs::write(
            dir.join("test-malformed-0001.case"),
            "property: test.malformed\ninput: 1e0\n",
        )
        .unwrap();
        assert!(checker
            .run("test.other", &f64_in(0.0, 10.0), |_| Ok(()))
            .is_pass());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn case_file_round_trips_through_parser() {
        let cex = Counterexample {
            property: "vreg.required_active".into(),
            seed: 0xA001,
            source: CaseSource::Random { index: 3 },
            original_input: "1.9e1".into(),
            input: "1.35e1".into(),
            shrink_steps: 2,
            message: "too few active".into(),
        };
        let entry = parse_case(&cex.to_case_file()).unwrap();
        assert_eq!(entry.property, "vreg.required_active");
        assert_eq!(entry.seed, Some(0xA001));
        assert_eq!(entry.input, "1.35e1");
        let dir = temp_dir("save");
        let path = cex.save_into(&dir).unwrap();
        assert!(path
            .file_name()
            .unwrap()
            .to_str()
            .unwrap()
            .ends_with(".case"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn per_case_rng_is_independent_of_order() {
        // Case 5's stream depends only on (seed, 5), not on cases 0..4.
        let mut direct = Checker::case_rng(42, 5);
        let mut after_others = {
            for i in 0..5 {
                let mut r = Checker::case_rng(42, i);
                let _ = r.uniform_f64();
            }
            Checker::case_rng(42, 5)
        };
        assert_eq!(direct.next_u64(), after_others.next_u64());
    }
}
