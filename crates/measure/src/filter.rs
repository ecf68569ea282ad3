//! Event filtering, modelled on Score-P filter files.
//!
//! Filtered regions still execute (and still carry compiled-in counting
//! code under `lt_bb`/`lt_stmt`), but their enter/leave events are
//! discarded at a small per-check cost. The paper's rule of thumb:
//! filters are chosen so the `tsc` measurement stays at roughly 5 %
//! overhead or below — "not always possible" (TeaLeaf).

use std::collections::HashSet;

/// A set of region-name filter rules.
///
/// Rules match either exactly or, when ending in `*`, by prefix — the
/// subset of Score-P filter syntax the experiments need.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FilterRules {
    exact: HashSet<String>,
    prefixes: Vec<String>,
}

impl FilterRules {
    /// No filtering.
    pub(crate) fn none() -> Self {
        Self::default()
    }

    /// Build from rule strings.
    pub fn from_rules<I, S>(rules: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let mut f = FilterRules::default();
        for rule in rules {
            f.add(rule.into());
        }
        f
    }

    /// Add one rule.
    pub(crate) fn add(&mut self, rule: String) {
        if let Some(prefix) = rule.strip_suffix('*') {
            self.prefixes.push(prefix.to_owned());
        } else {
            self.exact.insert(rule);
        }
    }

    /// True if events of `region_name` are discarded.
    pub(crate) fn is_filtered(&self, region_name: &str) -> bool {
        self.exact.contains(region_name)
            || self.prefixes.iter().any(|p| region_name.starts_with(p.as_str()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_match() {
        let f = FilterRules::from_rules(["helper", "tiny_fn"]);
        assert!(f.is_filtered("helper"));
        assert!(!f.is_filtered("helpers"));
        assert!(!f.is_filtered("main"));
    }

    #[test]
    fn prefix_match() {
        let f = FilterRules::from_rules(["std::*", "Kokkos*"]);
        assert!(f.is_filtered("std::vector::push_back"));
        assert!(f.is_filtered("Kokkos"));
        assert!(!f.is_filtered("mystd::thing"));
    }

    #[test]
    fn empty_filters_nothing() {
        let f = FilterRules::none();
        assert!(!f.is_filtered("anything"));
    }
}
