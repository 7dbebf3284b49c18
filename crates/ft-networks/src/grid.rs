//! `(l, w)`-directed grids — the paper's Fig. 4.
//!
//! A directed grid has `w` stages of `l` vertices; vertex `(i, j)` (row
//! `i`, stage `j`) has edges to `(i, j+1)` and `(i+1, j+1)`. §6 uses
//! `(64·4^γ, ν)`-directed grids to interface each input/output to the
//! truncated recursive network: the grid behaves as a Moore–Shannon
//! hammock, so an idle input keeps *access* to a majority of the grid's
//! last stage despite faults (Lemma 3).
//!
//! Note on the paper's notation: the definition in §6 says "(l, w)" with
//! `w` stages and `l` vertices per stage, and Fig. 4 is called a
//! `(4, 8)`-directed grid (4 rows × 8 stages). Lemma 3's proof makes the
//! grids attached to terminals `64·4^γ` rows × `ν` stages.

use ft_graph::{StagedBuilder, StagedNetwork, VertexId};

/// A directed grid with its dimensions.
#[derive(Clone, Debug)]
pub struct DirectedGrid {
    /// Rows `l`.
    pub(crate) rows: usize,
    /// Stages `w`.
    pub(crate) stages: usize,
    /// The staged network: inputs = first stage, outputs = last stage.
    pub net: StagedNetwork,
}

impl DirectedGrid {
    /// Builds the `(l, w)`-directed grid.
    pub fn new(rows: usize, stages: usize) -> Self {
        assert!(rows >= 1 && stages >= 1, "grid needs l, w ≥ 1");
        let mut b = StagedBuilder::with_capacity(rows * stages, grid_size(rows, stages));
        let mut ranges = Vec::with_capacity(stages);
        for _ in 0..stages {
            ranges.push(b.add_stage(rows));
        }
        for j in 0..stages - 1 {
            for i in 0..rows {
                let from = VertexId(ranges[j].start + i as u32);
                b.add_edge(from, VertexId(ranges[j + 1].start + i as u32));
                if i + 1 < rows {
                    b.add_edge(from, VertexId(ranges[j + 1].start + i as u32 + 1));
                }
            }
        }
        b.set_inputs(ranges[0].clone().map(VertexId).collect());
        b.set_outputs(ranges[stages - 1].clone().map(VertexId).collect());
        DirectedGrid {
            rows,
            stages,
            net: b.finish(),
        }
    }

    /// Vertex at `(row, stage)`.
    pub fn at(&self, row: usize, stage: usize) -> VertexId {
        assert!(row < self.rows && stage < self.stages);
        VertexId(self.net.stage_range(stage).start + row as u32)
    }

    /// Number of switches: `(2l − 1)(w − 1)`.
    pub fn size(&self) -> usize {
        self.net.size()
    }
}

/// Edge count formula for an `(l, w)` grid.
pub fn grid_size(l: usize, w: usize) -> usize {
    if w == 0 {
        return 0;
    }
    (2 * l - 1) * (w - 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ft_graph::traversal::{bfs_forward, dag_depth};

    #[test]
    fn fig4_shape() {
        // the paper's Fig. 4: a (4, 8)-directed grid
        let g = DirectedGrid::new(4, 8);
        assert_eq!(g.net.num_stages(), 8);
        assert_eq!(g.net.inputs().len(), 4);
        assert_eq!(g.net.outputs().len(), 4);
        assert_eq!(g.size(), grid_size(4, 8));
        assert_eq!(g.size(), 7 * 7);
        assert_eq!(g.net.depth(), 7);
        assert_eq!(dag_depth(g.net.graph()), 7);
    }

    #[test]
    fn edge_pattern() {
        let g = DirectedGrid::new(3, 3);
        // (0,0) -> (0,1) and (1,1)
        assert!(g.net.graph().has_edge(g.at(0, 0), g.at(0, 1)));
        assert!(g.net.graph().has_edge(g.at(0, 0), g.at(1, 1)));
        assert!(!g.net.graph().has_edge(g.at(0, 0), g.at(2, 1)));
        // bottom row has no diagonal
        assert!(g.net.graph().has_edge(g.at(2, 0), g.at(2, 1)));
        assert_eq!(g.net.graph().out_degree(g.at(2, 0)), 1);
        // interior degrees: out 2, in 2
        assert_eq!(g.net.graph().out_degree(g.at(1, 1)), 2);
        assert_eq!(g.net.graph().in_degree(g.at(1, 1)), 2);
    }

    #[test]
    fn row_zero_reaches_everything_downstream() {
        // from (0,0) every row is reachable at a late enough stage
        let g = DirectedGrid::new(5, 10);
        let b = bfs_forward(g.net.graph(), g.at(0, 0));
        for i in 0..5 {
            assert!(b.reached(g.at(i, 9)), "row {i} unreachable");
        }
        // but (1,0) can never reach row 0 (edges only go down)
        let b = bfs_forward(g.net.graph(), g.at(1, 0));
        assert!(!b.reached(g.at(0, 9)));
    }

    #[test]
    fn single_stage_grid() {
        let g = DirectedGrid::new(3, 1);
        assert_eq!(g.size(), 0);
        assert_eq!(g.net.depth(), 0);
        assert_eq!(g.net.inputs(), g.net.outputs());
    }

    #[test]
    fn single_row_grid_is_a_path() {
        let g = DirectedGrid::new(1, 5);
        assert_eq!(g.size(), 4);
        assert_eq!(g.net.depth(), 4);
    }
}
