//! Union–find (disjoint set union) with path halving and union by size.
//!
//! Closed switch failures contract the two endpoints of an edge into a
//! single electrical node (§2 of the paper: "two vertices of the edge
//! contract to one"). A failure instance therefore induces a quotient of
//! the vertex set, which is exactly a union–find structure; the paper's
//! *shorting* events (Lemma 2, Lemma 7 — two terminals becoming one node)
//! are queries against it.

/// Disjoint-set forest over `0..len`.
///
/// Entries are epoch-stamped: an element whose stamp does not match the
/// current epoch is implicitly a singleton (its own root, size 1), so
/// [`UnionFind::reset`] is O(1) instead of O(n) — Monte Carlo trial
/// loops at the paper's tiny ε do a handful of unions per trial and
/// must not pay a full re-initialisation each time.
#[derive(Clone, Debug)]
pub struct UnionFind {
    /// Parent pointer; valid only when stamped with the current epoch
    /// (roots point at themselves).
    parent: Vec<u32>,
    /// Component size; valid only at stamped roots.
    size: Vec<u32>,
    /// `parent[x]`/`size[x]` are live iff `stamp[x] == epoch`.
    stamp: Vec<u32>,
    epoch: u32,
}

impl UnionFind {
    /// Creates `len` singleton sets.
    pub fn new(len: usize) -> Self {
        UnionFind {
            parent: vec![0; len],
            size: vec![0; len],
            stamp: vec![0; len],
            epoch: 1,
        }
    }

    /// Current parent of `x` (`x` itself while unstamped).
    #[inline(always)]
    fn load(&self, x: u32) -> u32 {
        if self.stamp[x as usize] == self.epoch {
            self.parent[x as usize]
        } else {
            x
        }
    }

    /// Writes `parent[x] = p`, stamping the entry live.
    #[inline(always)]
    fn store(&mut self, x: u32, p: u32) {
        self.stamp[x as usize] = self.epoch;
        self.parent[x as usize] = p;
    }

    /// Size of the set rooted at stamped-or-implicit root `r`.
    #[inline(always)]
    fn root_size(&self, r: u32) -> u32 {
        if self.stamp[r as usize] == self.epoch {
            self.size[r as usize]
        } else {
            1
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// Whether the structure is empty.
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// Representative of `x`'s set (with path halving).
    pub fn find(&mut self, mut x: u32) -> u32 {
        loop {
            let p = self.load(x);
            if p == x {
                return x;
            }
            let gp = self.load(p);
            // path halving: skip over p (a no-op when p is the root)
            self.store(x, gp);
            x = gp;
        }
    }

    /// Merges the sets of `a` and `b`; returns `true` if they were distinct.
    pub fn union(&mut self, a: u32, b: u32) -> bool {
        let (mut ra, mut rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        let (mut sa, mut sb) = (self.root_size(ra), self.root_size(rb));
        if sa < sb {
            std::mem::swap(&mut ra, &mut rb);
            std::mem::swap(&mut sa, &mut sb);
        }
        // rb stops being a root (its stale size is never read again)
        self.store(rb, ra);
        self.store(ra, ra);
        self.size[ra as usize] = sa + sb;
        true
    }

    /// Whether `a` and `b` are in the same set.
    pub fn same(&mut self, a: u32, b: u32) -> bool {
        self.find(a) == self.find(b)
    }

    /// Compacts the quotient: returns `(class_of, num_classes)` where
    /// `class_of[x]` is a dense index in `0..num_classes`, equal for
    /// elements in the same set. Used to build contracted graphs.
    pub fn quotient(&mut self) -> (Vec<u32>, usize) {
        let n = self.len();
        let mut class_of = vec![u32::MAX; n];
        let mut next = 0u32;
        for x in 0..n as u32 {
            let r = self.find(x);
            if class_of[r as usize] == u32::MAX {
                class_of[r as usize] = next;
                next += 1;
            }
            class_of[x as usize] = class_of[r as usize];
        }
        (class_of, next as usize)
    }

    /// Resets every element to a singleton without reallocating —
    /// Monte Carlo loops reuse one structure across trials. O(1): the
    /// epoch bump invalidates every stamped entry (O(n) only on epoch
    /// wrap-around, once per 2³² resets).
    pub fn reset(&mut self) {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.stamp.fill(0);
            self.epoch = 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::rng;
    use rand::Rng;

    impl UnionFind {
        /// Number of disjoint sets.
        fn num_components(&mut self) -> usize {
            self.quotient().1
        }

        /// Size of the set containing `x`.
        fn component_size(&mut self, x: u32) -> usize {
            let r = self.find(x);
            self.root_size(r) as usize
        }
    }

    #[test]
    fn singletons() {
        let mut uf = UnionFind::new(5);
        assert_eq!(uf.num_components(), 5);
        assert_eq!(uf.len(), 5);
        assert!(!uf.is_empty());
        for i in 0..5 {
            assert_eq!(uf.find(i), i);
            assert_eq!(uf.component_size(i), 1);
        }
    }

    #[test]
    fn union_merges() {
        let mut uf = UnionFind::new(4);
        assert!(uf.union(0, 1));
        assert!(!uf.union(1, 0), "already merged");
        assert!(uf.same(0, 1));
        assert!(!uf.same(0, 2));
        assert_eq!(uf.num_components(), 3);
        assert_eq!(uf.component_size(1), 2);
        uf.union(2, 3);
        uf.union(0, 3);
        assert_eq!(uf.num_components(), 1);
        assert_eq!(uf.component_size(0), 4);
    }

    #[test]
    fn quotient_dense() {
        let mut uf = UnionFind::new(6);
        uf.union(0, 2);
        uf.union(2, 4);
        uf.union(1, 5);
        let (class_of, k) = uf.quotient();
        assert_eq!(k, 3);
        assert_eq!(class_of[0], class_of[2]);
        assert_eq!(class_of[2], class_of[4]);
        assert_eq!(class_of[1], class_of[5]);
        assert_ne!(class_of[0], class_of[1]);
        assert_ne!(class_of[0], class_of[3]);
        assert!(class_of.iter().all(|&c| (c as usize) < k));
    }

    #[test]
    fn reset_restores_singletons() {
        let mut uf = UnionFind::new(4);
        uf.union(0, 1);
        uf.union(2, 3);
        uf.reset();
        assert_eq!(uf.num_components(), 4);
        assert!(!uf.same(0, 1));
    }

    #[test]
    fn empty() {
        let mut uf = UnionFind::new(0);
        assert!(uf.is_empty());
        assert_eq!(uf.quotient().1, 0);
    }

    /// Reusing one structure across many reset cycles must behave like a
    /// fresh structure every time (the epoch-stamp invariant).
    #[test]
    fn reset_cycles_match_fresh_structures() {
        let mut r = rng(0xE90C);
        let n = 24;
        let mut reused = UnionFind::new(n);
        for _ in 0..50 {
            reused.reset();
            let mut fresh = UnionFind::new(n);
            for _ in 0..r.random_range(0..30usize) {
                let a = r.random_range(0..n) as u32;
                let b = r.random_range(0..n) as u32;
                assert_eq!(fresh.union(a, b), reused.union(a, b));
            }
            assert_eq!(fresh.num_components(), reused.num_components());
            for x in 0..n as u32 {
                assert_eq!(fresh.component_size(x), reused.component_size(x));
                for y in 0..n as u32 {
                    assert_eq!(fresh.same(x, y), reused.same(x, y));
                }
            }
            assert_eq!(fresh.quotient(), reused.quotient());
        }
    }

    /// Cross-check against naive connectivity on random union sequences.
    #[test]
    fn matches_naive_connectivity() {
        let mut r = rng(0x0F0F);
        for _ in 0..20 {
            let n = r.random_range(2..30usize);
            let ops = r.random_range(0..40usize);
            let mut uf = UnionFind::new(n);
            // naive: adjacency + BFS
            let mut adj = vec![Vec::new(); n];
            for _ in 0..ops {
                let a = r.random_range(0..n);
                let b = r.random_range(0..n);
                uf.union(a as u32, b as u32);
                adj[a].push(b);
                adj[b].push(a);
            }
            let reach = |s: usize| {
                let mut seen = vec![false; n];
                let mut stack = vec![s];
                seen[s] = true;
                while let Some(u) = stack.pop() {
                    for &w in &adj[u] {
                        if !seen[w] {
                            seen[w] = true;
                            stack.push(w);
                        }
                    }
                }
                seen
            };
            for a in 0..n {
                let seen = reach(a);
                for (b, &sb) in seen.iter().enumerate() {
                    assert_eq!(uf.same(a as u32, b as u32), sb, "n={n} a={a} b={b}");
                }
            }
        }
    }
}
