//! The collapsed-stack codec of the sampling profiler.
//!
//! Sampled stacks travel in the folded format of Brendan Gregg's
//! `flamegraph.pl` / [inferno]: one line per distinct stack,
//! `root;child;grandchild <samples>`. The harness and the repository
//! benchmark write them with [`folded_from_counts`] (`samples.folded`),
//! and `nrlt-report engine` reads them back with [`parse_folded`].
//!
//! [inferno]: https://github.com/jonhoo/inferno

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Escape one frame name for the folded format. `;` separates frames
/// and the *last* space separates the stack from its value, so both
/// must be escaped — reversibly ([`unescape_frame`]), because sampled
/// stacks round-trip through this format (written by the harness, read
/// back by `parse_folded`).
fn escape_frame(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for c in name.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            ';' => out.push_str("\\;"),
            ' ' => out.push_str("\\s"),
            '\t' => out.push_str("\\t"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Invert [`escape_frame`].
fn unescape_frame(frame: &str) -> String {
    let mut out = String::with_capacity(frame.len());
    let mut chars = frame.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('\\') => out.push('\\'),
            Some(';') => out.push(';'),
            Some('s') => out.push(' '),
            Some('t') => out.push('\t'),
            Some('n') => out.push('\n'),
            Some(other) => {
                // Unknown escape: keep it verbatim rather than lose bytes.
                out.push('\\');
                out.push(other);
            }
            None => out.push('\\'),
        }
    }
    out
}

/// Split a stack string on *unescaped* `;` and unescape each frame.
fn split_stack(stack: &str) -> Vec<String> {
    let mut frames = Vec::new();
    let mut cur = String::new();
    let mut escaped = false;
    for c in stack.chars() {
        if escaped {
            cur.push(c);
            escaped = false;
        } else if c == '\\' {
            cur.push(c);
            escaped = true;
        } else if c == ';' {
            frames.push(unescape_frame(&cur));
            cur.clear();
        } else {
            cur.push(c);
        }
    }
    frames.push(unescape_frame(&cur));
    frames
}

/// Parse a folded document back into `(frames, value)` rows, inverting
/// [`folded_from_counts`]. Lines without a parseable trailing value are
/// skipped.
pub fn parse_folded(doc: &str) -> Vec<(Vec<String>, u64)> {
    doc.lines()
        .filter_map(|l| {
            let (stack, v) = l.rsplit_once(' ')?;
            Some((split_stack(stack), v.parse::<u64>().ok()?))
        })
        .collect()
}

/// Render sampled stack counts in the collapsed-stack format: one line
/// per distinct stack, `a;b;c <samples>`, frames escaped, sorted by
/// stack. The values are *sample counts* and conserve nothing — a
/// cooperative sampler only sees threads that currently publish a
/// stack, so totals carry no inclusive-time invariant.
pub fn folded_from_counts(counts: &BTreeMap<Vec<&str>, u64>) -> String {
    let mut agg: BTreeMap<String, u64> = BTreeMap::new();
    for (stack, &n) in counts {
        let chain = stack.iter().map(|f| escape_frame(f)).collect::<Vec<String>>().join(";");
        *agg.entry(chain).or_insert(0) += n;
    }
    let mut out = String::new();
    for (chain, n) in agg {
        let _ = writeln!(out, "{chain} {n}");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn folded_builds_semicolon_stacks() {
        let mut counts: BTreeMap<Vec<&str>, u64> = BTreeMap::new();
        counts.insert(vec!["root"], 70);
        counts.insert(vec!["root", "mode;weird"], 20);
        counts.insert(vec!["root", "mode;weird", "analyze"], 10);
        let f = folded_from_counts(&counts);
        assert!(f.contains("root 70\n"), "{f}");
        assert!(f.contains("root;mode\\;weird 20\n"), "{f}");
        assert!(f.contains("root;mode\\;weird;analyze 10\n"), "{f}");
        // The escaped separator round-trips through the parser.
        let rows = parse_folded(&f);
        assert!(rows.iter().any(|(stack, v)| stack == &vec!["root", "mode;weird"] && *v == 20));
    }

    #[test]
    fn frame_escaping_round_trips() {
        for name in
            ["plain", "a;b", "with space", "tab\tchar", "line\nbreak", "back\\slash", "\\s;\\n \t"]
        {
            let escaped = escape_frame(name);
            assert!(!escaped.contains(' '), "escaped form must be space-free: {escaped:?}");
            assert!(!escaped.contains('\n'), "{escaped:?}");
            assert_eq!(unescape_frame(&escaped), name, "round-trip of {name:?}");
        }
    }

    #[test]
    fn sampled_counts_export_and_parse_without_conservation() {
        // Sampled stacks are non-conserving by nature: a parent can have
        // fewer samples than its children (the sampler only sees what is
        // published at tick time). The export must carry them verbatim.
        let mut counts: BTreeMap<Vec<&str>, u64> = BTreeMap::new();
        counts.insert(vec!["experiment.mode_cell", "measure.run", "engine.run"], 90);
        counts.insert(vec!["experiment.mode_cell"], 3);
        counts.insert(vec!["odd name;x"], 7);
        let doc = folded_from_counts(&counts);
        assert!(doc.contains("experiment.mode_cell;measure.run;engine.run 90\n"), "{doc}");
        assert!(doc.contains("odd\\sname\\;x 7\n"), "{doc}");
        let rows = parse_folded(&doc);
        assert_eq!(rows.len(), 3);
        assert_eq!(rows.iter().map(|(_, v)| v).sum::<u64>(), 100);
        assert!(rows.iter().any(|(s, v)| s == &vec!["odd name;x"] && *v == 7));
        assert!(rows
            .iter()
            .any(|(s, v)| s == &vec!["experiment.mode_cell", "measure.run", "engine.run"]
                && *v == 90));
    }
}
