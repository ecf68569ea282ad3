//! Call-path tree: the second profile dimension.
//!
//! Call paths are interned as (parent, region) pairs, rooted at each
//! program's entry region. Because all measurements of one benchmark
//! share the region table and program structure, call-path ids are
//! comparable across clock modes and repetitions — which is what lets
//! the Jaccard score compare (metric, call path) mappings directly.

use nrlt_trace::RegionRef;

/// Interned call-path handle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CallPathId(pub u32);

#[derive(Debug, Clone, PartialEq)]
struct Node {
    parent: Option<CallPathId>,
    region: RegionRef,
    children: Vec<CallPathId>,
    depth: u32,
}

/// The call-path tree.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CallTree {
    nodes: Vec<Node>,
    /// Paths with no parent, in interning order.
    roots: Vec<CallPathId>,
}

impl CallTree {
    /// Empty tree.
    pub fn new() -> Self {
        Self::default()
    }

    /// Intern the child `region` of `parent` (or a root when None).
    ///
    /// Looks the pair up by scanning the parent's children (or the
    /// roots): a node has a handful of children, so the scan beats
    /// hashing on the replay hot path, and ids still come out in
    /// first-seen order.
    pub fn intern(&mut self, parent: Option<CallPathId>, region: RegionRef) -> CallPathId {
        let siblings = match parent {
            Some(p) => &self.nodes[p.0 as usize].children,
            None => &self.roots,
        };
        if let Some(&id) = siblings.iter().find(|c| self.nodes[c.0 as usize].region == region) {
            return id;
        }
        let id = CallPathId(self.nodes.len() as u32);
        let depth = parent.map_or(0, |p| self.nodes[p.0 as usize].depth + 1);
        self.nodes.push(Node { parent, region, children: Vec::new(), depth });
        match parent {
            Some(p) => self.nodes[p.0 as usize].children.push(id),
            None => self.roots.push(id),
        }
        id
    }

    /// Number of call paths.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when no paths are interned.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Parent of a call path.
    pub fn parent(&self, id: CallPathId) -> Option<CallPathId> {
        self.nodes[id.0 as usize].parent
    }

    /// Region at the end of the path.
    pub fn region(&self, id: CallPathId) -> RegionRef {
        self.nodes[id.0 as usize].region
    }

    /// Children of a call path.
    pub fn children(&self, id: CallPathId) -> &[CallPathId] {
        &self.nodes[id.0 as usize].children
    }

    /// Depth (roots are 0).
    pub fn depth(&self, id: CallPathId) -> u32 {
        self.nodes[id.0 as usize].depth
    }

    /// Iterate all ids in interning order.
    pub fn iter(&self) -> impl Iterator<Item = CallPathId> {
        (0..self.nodes.len() as u32).map(CallPathId)
    }

    /// Render a path as `a/b/c` using a region-name lookup.
    pub fn path_string(&self, id: CallPathId, region_name: impl Fn(RegionRef) -> String) -> String {
        let mut parts = Vec::new();
        let mut cur = Some(id);
        while let Some(c) = cur {
            parts.push(region_name(self.nodes[c.0 as usize].region));
            cur = self.nodes[c.0 as usize].parent;
        }
        parts.reverse();
        parts.join("/")
    }

    /// Find the call path whose rendered string equals `path` (slow;
    /// for tests and report lookups).
    pub fn find_by_string(
        &self,
        path: &str,
        region_name: impl Fn(RegionRef) -> String + Copy,
    ) -> Option<CallPathId> {
        self.iter().find(|&id| self.path_string(id, region_name) == path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(r: RegionRef) -> String {
        format!("r{}", r.0)
    }

    #[test]
    fn intern_is_idempotent_per_parent() {
        let mut t = CallTree::new();
        let root = t.intern(None, RegionRef(0));
        let a = t.intern(Some(root), RegionRef(1));
        let a2 = t.intern(Some(root), RegionRef(1));
        assert_eq!(a, a2);
        assert_eq!(t.len(), 2);
        // Same region under a different parent is a different path.
        let b = t.intern(Some(a), RegionRef(1));
        assert_ne!(a, b);
        assert_eq!(t.depth(b), 2);
    }

    #[test]
    fn path_strings() {
        let mut t = CallTree::new();
        let root = t.intern(None, RegionRef(0));
        let a = t.intern(Some(root), RegionRef(1));
        let b = t.intern(Some(a), RegionRef(2));
        assert_eq!(t.path_string(b, names), "r0/r1/r2");
        assert_eq!(t.find_by_string("r0/r1", names), Some(a));
        assert_eq!(t.find_by_string("r9", names), None);
    }

    #[test]
    fn children_are_tracked() {
        let mut t = CallTree::new();
        let root = t.intern(None, RegionRef(0));
        let a = t.intern(Some(root), RegionRef(1));
        let b = t.intern(Some(root), RegionRef(2));
        assert_eq!(t.children(root), &[a, b]);
        assert_eq!(t.parent(a), Some(root));
        assert_eq!(t.parent(root), None);
    }
}
