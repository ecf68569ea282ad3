//! Source-code regions and their interning table.
//!
//! Regions play the role of Score-P's region definitions: every function,
//! OpenMP construct, and MPI call that can appear on a call path is a
//! region with a name and a paradigm classification. The classification
//! drives Scalasca's metric split (computation vs MPI vs OpenMP).

use std::collections::HashMap;
use std::fmt;

/// Interned region handle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RegionId(pub u32);

/// Which paradigm a region belongs to — Scalasca groups time by this.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RegionKind {
    /// User source code: counts as computation.
    User,
    /// An MPI API call (`MPI_Send`, `MPI_Allreduce`, …).
    Mpi,
    /// OpenMP parallel construct body (counts as computation container).
    OmpParallel,
    /// OpenMP worksharing loop body (iterations count as computation).
    OmpLoop,
    /// OpenMP implicit barrier (end of worksharing/parallel).
    OmpImplicitBarrier,
    /// OpenMP explicit barrier.
    OmpBarrier,
    /// OpenMP critical section.
    OmpCritical,
    /// OpenMP `single` construct.
    OmpSingle,
    /// OpenMP `master` construct.
    OmpMaster,
    /// Thread management: fork/join of parallel regions.
    OmpFork,
}

/// A region definition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Region {
    /// Display name, e.g. `cg_solve` or `!$omp for @waxpby`.
    pub name: String,
    /// Paradigm classification.
    pub kind: RegionKind,
}

/// Interning table for regions; shared by all ranks of a program.
#[derive(Debug, Clone, Default)]
pub struct RegionTable {
    regions: Vec<Region>,
    by_name: HashMap<String, RegionId>,
}

impl RegionTable {
    /// Empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Intern `(name, kind)`, returning the existing id when the name is
    /// already known.
    ///
    /// Panics if the same name is re-interned with a different kind — that
    /// would silently corrupt the metric classification.
    pub fn intern(&mut self, name: &str, kind: RegionKind) -> RegionId {
        if let Some(&id) = self.by_name.get(name) {
            assert_eq!(
                self.regions[id.0 as usize].kind, kind,
                "region {name:?} re-interned with a different kind"
            );
            return id;
        }
        let id = RegionId(self.regions.len() as u32);
        self.regions.push(Region { name: name.to_owned(), kind });
        self.by_name.insert(name.to_owned(), id);
        id
    }

    /// Look up an id by name.
    pub fn find(&self, name: &str) -> Option<RegionId> {
        self.by_name.get(name).copied()
    }

    /// The definition behind an id.
    pub(crate) fn get(&self, id: RegionId) -> &Region {
        &self.regions[id.0 as usize]
    }

    /// Region name.
    pub fn name(&self, id: RegionId) -> &str {
        &self.get(id).name
    }

    /// Region kind.
    pub fn kind(&self, id: RegionId) -> RegionKind {
        self.get(id).kind
    }

    /// Number of interned regions.
    pub fn len(&self) -> usize {
        self.regions.len()
    }

    /// True when no regions are interned.
    pub fn is_empty(&self) -> bool {
        self.regions.is_empty()
    }

    /// Iterate `(id, region)` pairs in interning order.
    pub fn iter(&self) -> impl Iterator<Item = (RegionId, &Region)> {
        self.regions.iter().enumerate().map(|(i, r)| (RegionId(i as u32), r))
    }
}

impl fmt::Display for RegionKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            RegionKind::User => "user",
            RegionKind::Mpi => "mpi",
            RegionKind::OmpParallel => "omp parallel",
            RegionKind::OmpLoop => "omp loop",
            RegionKind::OmpImplicitBarrier => "omp implicit barrier",
            RegionKind::OmpBarrier => "omp barrier",
            RegionKind::OmpCritical => "omp critical",
            RegionKind::OmpSingle => "omp single",
            RegionKind::OmpMaster => "omp master",
            RegionKind::OmpFork => "omp fork/join",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let mut t = RegionTable::new();
        let a = t.intern("foo", RegionKind::User);
        let b = t.intern("foo", RegionKind::User);
        assert_eq!(a, b);
        assert_eq!(t.len(), 1);
        assert_eq!(t.name(a), "foo");
    }

    #[test]
    #[should_panic(expected = "different kind")]
    fn kind_conflict_panics() {
        let mut t = RegionTable::new();
        t.intern("foo", RegionKind::User);
        t.intern("foo", RegionKind::Mpi);
    }

    #[test]
    fn find_and_iter() {
        let mut t = RegionTable::new();
        let a = t.intern("a", RegionKind::User);
        let b = t.intern("b", RegionKind::Mpi);
        assert_eq!(t.find("a"), Some(a));
        assert_eq!(t.find("c"), None);
        let ids: Vec<_> = t.iter().map(|(id, _)| id).collect();
        assert_eq!(ids, vec![a, b]);
    }
}
