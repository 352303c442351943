//! Renderers for the per-track call trees that
//! [`TraceAnalysis`] folds from a trace's span events (the run-level
//! handle is track 0; sweep workers emit `"track": n` on every event).
//! Every site carries its call count and inclusive/exclusive wall time.
//! Three renderings:
//!
//! * [`render_tree`] — the full call tree, indented, one line per site,
//!   deterministic for a given trace (children in first-appearance
//!   order);
//! * [`render_top`] — a flat `top`-style table aggregated across
//!   tracks. The default ranks by call count and prints **no wall-time
//!   columns**, so two runs of the same seeded config render
//!   byte-identical output (wall clocks never are); `with_times` adds
//!   inclusive/exclusive seconds and re-ranks by exclusive time;
//! * [`collapsed`] — collapsed-stack lines (`track0;a;b <weight>`)
//!   compatible with `flamegraph.pl` / inferno, weighted by exclusive
//!   time in integer microseconds. Weights are computed by budgeting
//!   each node's integer inclusive time over its children, so the total
//!   sample weight telescopes *exactly* to the sum of the root spans'
//!   inclusive time.
//!
//! The tree follows the analysis's one pairing rule: a span end that
//! does not close the innermost open span on its track is counted as a
//! pairing error and pops nothing. [`pairing_notes`] reports those
//! errors and the spans still open at end of trace.

use super::analyze::{TraceAnalysis, TrackProfile};
use std::fmt::Write as _;

/// One row of the aggregated [`render_top`] table.
#[derive(Debug, Clone)]
struct TopRow {
    name: String,
    calls: u64,
    tracks: u64,
    inclusive_s: f64,
    exclusive_s: f64,
}

/// The analysis's tracks sorted by track id.
fn sorted_tracks(analysis: &TraceAnalysis) -> Vec<&TrackProfile> {
    let mut tracks: Vec<&TrackProfile> = analysis.tracks.iter().collect();
    tracks.sort_by_key(|t| t.track);
    tracks
}

fn top_rows(analysis: &TraceAnalysis) -> Vec<TopRow> {
    let mut rows: Vec<TopRow> = Vec::new();
    for track in &analysis.tracks {
        let mut seen_names: Vec<&str> = Vec::new();
        for (idx, node) in track.nodes.iter().enumerate() {
            let i = match rows.iter().position(|r| r.name == node.name) {
                Some(i) => i,
                None => {
                    rows.push(TopRow {
                        name: node.name.clone(),
                        calls: 0,
                        tracks: 0,
                        inclusive_s: 0.0,
                        exclusive_s: 0.0,
                    });
                    rows.len() - 1
                }
            };
            let row = &mut rows[i];
            row.calls += node.calls;
            // The same name can appear at several tree positions in
            // one track; count the track once per name.
            if !seen_names.contains(&node.name.as_str()) {
                row.tracks += 1;
                seen_names.push(&node.name);
            }
            row.inclusive_s += node.inclusive_s;
            row.exclusive_s += track.exclusive_s(idx);
        }
    }
    rows
}

/// Renders the `top`-style site table.
///
/// Without `with_times` the output is structural only (site, calls,
/// tracks; ranked by call count, then name) and therefore
/// byte-identical across repeated runs of the same seeded config.
/// With `with_times`, inclusive/exclusive seconds and an
/// exclusive-share column are added and rows re-rank by exclusive
/// time.
pub fn render_top(analysis: &TraceAnalysis, with_times: bool) -> String {
    let mut rows = top_rows(analysis);
    if with_times {
        rows.sort_by(|a, b| {
            b.exclusive_s
                .total_cmp(&a.exclusive_s)
                .then_with(|| a.name.cmp(&b.name))
        });
    } else {
        rows.sort_by(|a, b| b.calls.cmp(&a.calls).then_with(|| a.name.cmp(&b.name)));
    }
    let total_excl: f64 = rows.iter().map(|r| r.exclusive_s).sum();
    let mut out = String::new();
    if with_times {
        let _ = writeln!(
            out,
            "{:<32} {:>8} {:>7} {:>12} {:>12} {:>7}",
            "site", "calls", "tracks", "incl s", "excl s", "excl %"
        );
    } else {
        let _ = writeln!(out, "{:<32} {:>8} {:>7}", "site", "calls", "tracks");
    }
    for row in &rows {
        if with_times {
            let share = if total_excl > 0.0 {
                100.0 * row.exclusive_s / total_excl
            } else {
                0.0
            };
            let _ = writeln!(
                out,
                "{:<32} {:>8} {:>7} {:>12.6} {:>12.6} {:>6.1}%",
                row.name, row.calls, row.tracks, row.inclusive_s, row.exclusive_s, share
            );
        } else {
            let _ = writeln!(out, "{:<32} {:>8} {:>7}", row.name, row.calls, row.tracks);
        }
    }
    out.push_str(&pairing_notes(analysis));
    out
}

/// Renders the full per-track call tree: one indented line per
/// site with calls and inclusive/exclusive wall time.
pub fn render_tree(analysis: &TraceAnalysis) -> String {
    let mut out = String::new();
    for track in sorted_tracks(analysis) {
        let label = if track.track == 0 { " (run)" } else { "" };
        let _ = writeln!(
            out,
            "track {}{label} — {:.6}s profiled",
            track.track,
            track.root_inclusive_s()
        );
        for &root in &track.roots {
            render_node(track, root, 1, &mut out);
        }
    }
    out.push_str(&pairing_notes(analysis));
    out
}

fn render_node(track: &TrackProfile, idx: usize, depth: usize, out: &mut String) {
    let node = &track.nodes[idx];
    let indent = "  ".repeat(depth);
    let site = format!("{indent}{}", node.name);
    let _ = writeln!(
        out,
        "{site:<40} calls {:>7}  incl {:>11.6}s  excl {:>11.6}s{}",
        node.calls,
        node.inclusive_s,
        track.exclusive_s(idx),
        if node.open > 0 { "  [open]" } else { "" },
    );
    for &child in &node.children {
        render_node(track, child, depth + 1, out);
    }
}

/// The pairing footnotes of every rendering: span ends that closed no
/// innermost open span, and spans still open at end of trace. Empty for
/// a cleanly recorded trace.
pub fn pairing_notes(analysis: &TraceAnalysis) -> String {
    let mut out = String::new();
    let errors: u64 = analysis.spans.iter().map(|(_, s)| s.unmatched_ends).sum();
    if errors > 0 {
        let _ = writeln!(out, "warning: {errors} span pairing error(s)");
    }
    let open = analysis.open_spans().len();
    if open > 0 {
        let _ = writeln!(out, "note: {open} span(s) still open at end of trace");
    }
    out
}

/// Renders collapsed-stack lines (`track0;engine.run;... <weight>`)
/// for `flamegraph.pl` / inferno, sorted lexicographically.
///
/// Weights are exclusive wall time in integer microseconds,
/// budgeted so they telescope exactly: each node's budget is split over
/// its children (clipped to the remaining budget, in order) with the
/// remainder kept as the node's own weight, so the total sample weight
/// equals the sum of the root spans' budgets. A node's budget is its
/// integer inclusive time; a span that never completed has none, so its
/// budget is its children's budgets, and the spans that finished under
/// it keep their weight. Zero-weight frames are omitted.
pub fn collapsed(analysis: &TraceAnalysis) -> String {
    let mut lines: Vec<String> = Vec::new();
    for track in sorted_tracks(analysis) {
        let prefix = format!("track{}", track.track);
        for &root in &track.roots {
            let budget = budget_us(track, root);
            collapse_node(track, root, budget, &prefix, &mut lines);
        }
    }
    lines.sort();
    let mut out = lines.join("\n");
    if !out.is_empty() {
        out.push('\n');
    }
    out
}

/// Seconds to whole microseconds (the collapsed-stack sample unit).
fn us(seconds: f64) -> u64 {
    (seconds * 1e6).round().max(0.0) as u64
}

/// A node's weight budget in microseconds (see [`collapsed`]).
fn budget_us(track: &TrackProfile, idx: usize) -> u64 {
    let node = &track.nodes[idx];
    if node.open < node.calls {
        us(node.inclusive_s)
    } else {
        node.children.iter().map(|&c| budget_us(track, c)).sum()
    }
}

fn collapse_node(
    track: &TrackProfile,
    idx: usize,
    budget: u64,
    prefix: &str,
    out: &mut Vec<String>,
) {
    let node = &track.nodes[idx];
    let path = format!("{prefix};{}", node.name);
    let mut remaining = budget;
    for &child in &node.children {
        let take = budget_us(track, child).min(remaining);
        remaining -= take;
        collapse_node(track, child, take, &path, out);
    }
    if remaining > 0 {
        out.push(format!("{path} {remaining}"));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::analyze::ParsedEvent;

    /// Synthetic two-track trace with power-of-two durations so float
    /// arithmetic is exact: track 0 runs a;b;b;c, track 2 runs a alone.
    fn sample() -> TraceAnalysis {
        let mut analysis = TraceAnalysis::exact();
        for line in [
            r#"{"t":0.0,"kind":"span_start","name":"a"}"#,
            r#"{"t":0.1,"kind":"span_start","name":"b"}"#,
            r#"{"t":0.2,"kind":"span_end","name":"b","dur_s":0.25}"#,
            r#"{"t":0.3,"kind":"span_start","name":"b"}"#,
            r#"{"t":0.4,"kind":"span_end","name":"b","dur_s":0.25}"#,
            r#"{"t":0.5,"kind":"span_start","name":"c"}"#,
            r#"{"t":0.6,"kind":"span_end","name":"c","dur_s":0.125}"#,
            r#"{"t":0.7,"kind":"span_end","name":"a","dur_s":1.0}"#,
            r#"{"t":0.1,"kind":"span_start","name":"a","track":2}"#,
            r#"{"t":0.2,"kind":"span_end","name":"a","dur_s":0.5,"track":2}"#,
        ] {
            analysis.observe(&ParsedEvent::from_line(line).expect("test event parses"));
        }
        analysis
    }

    #[test]
    fn collapsed_weights_telescope_to_root_inclusive() {
        let collapsed = collapsed(&sample());
        let total: u64 = collapsed
            .lines()
            .map(|l| l.rsplit(' ').next().unwrap().parse::<u64>().unwrap())
            .sum();
        // 1.0s (track 0 root) + 0.5s (track 2 root) in microseconds.
        assert_eq!(total, 1_500_000);
        assert!(collapsed.contains("track0;a;b 500000"));
        assert!(collapsed.contains("track0;a;c 125000"));
        assert!(collapsed.contains("track0;a 375000"));
        assert!(collapsed.contains("track2;a 500000"));
        // Deterministic: lexicographically sorted.
        let lines: Vec<&str> = collapsed.lines().collect();
        let sorted = {
            let mut s = lines.clone();
            s.sort();
            s
        };
        assert_eq!(lines, sorted);
    }

    #[test]
    fn spans_that_finished_under_an_open_span_keep_their_weight() {
        // a, b, /a, /b: the end of a is unmatched, so a never completes
        // and b (0.25 s) finishes under it.
        let mut analysis = TraceAnalysis::exact();
        for line in [
            r#"{"t":0.1,"kind":"span_start","name":"a"}"#,
            r#"{"t":0.2,"kind":"span_start","name":"b"}"#,
            r#"{"t":0.3,"kind":"span_end","name":"a","dur_s":0.25}"#,
            r#"{"t":0.4,"kind":"span_end","name":"b","dur_s":0.25}"#,
        ] {
            analysis.observe(&ParsedEvent::from_line(line).expect("test event parses"));
        }
        assert_eq!(collapsed(&analysis), "track0;a;b 250000\n");
    }

    #[test]
    fn top_default_is_structural_and_ranked_by_calls() {
        let analysis = sample();
        let top = render_top(&analysis, false);
        assert!(!top.contains("excl"), "default top must not print times");
        let b_line = top.lines().find(|l| l.starts_with('b')).unwrap();
        let a_line = top.lines().find(|l| l.starts_with('a')).unwrap();
        // b has 2 calls on 1 track; a has 2 calls on 2 tracks.
        assert!(b_line.contains('2'));
        assert!(a_line.contains('2'));
        let timed = render_top(&analysis, true);
        assert!(timed.contains("excl s"));
        // Ranked by exclusive time: a (0.375 on track 0 + 0.5 on
        // track 2) leads b (0.5).
        let first_site = timed.lines().nth(1).unwrap();
        assert!(first_site.starts_with('a'));
    }

    #[test]
    fn tree_report_is_deterministic_for_a_given_trace() {
        let analysis = sample();
        let tree = render_tree(&analysis);
        assert_eq!(tree, render_tree(&analysis));
        assert!(tree.contains("track 0 (run)"));
        assert!(tree.contains("track 2"));
        assert!(tree.contains("  a"));
        assert!(tree.contains("    b"));
        assert!(!tree.contains("warning") && !tree.contains("note"));
    }
}
