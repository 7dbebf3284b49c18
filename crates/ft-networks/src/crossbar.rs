//! The `n × n` crossbar: one switch per input/output pair.
//!
//! The trivial strictly nonblocking network — `n²` switches, depth 1.
//! It anchors the baselines: maximal size, minimal depth, and (as the
//! experiments show) *still* not fault-tolerant, because a single open
//! failure on the unique `(i, o)` switch severs that pair, and a single
//! closed failure shorts an input to an output permanently.

use ft_graph::{StagedBuilder, StagedNetwork, VertexId};

/// `(vertices, switches)` of the `n × n` crossbar, `(2n, n²)`, or `None`
/// if a count overflows `usize`.
pub fn crossbar_census(n: usize) -> Option<(usize, usize)> {
    Some((n.checked_mul(2)?, n.checked_mul(n)?))
}

/// Builds the `n × n` crossbar as a 2-stage network.
pub fn crossbar(n: usize) -> StagedNetwork {
    assert!(n >= 1);
    let (vertices, switches) = crossbar_census(n).expect("crossbar census overflows usize");
    let mut b = StagedBuilder::with_capacity(vertices, switches);
    let ins = b.add_stage(n);
    let outs = b.add_stage(n);
    for i in ins.clone() {
        for o in outs.clone() {
            b.add_edge(VertexId(i), VertexId(o));
        }
    }
    b.set_inputs(ins.map(VertexId).collect());
    b.set_outputs(outs.map(VertexId).collect());
    b.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ft_graph::menger::verify_superconcentrator_exhaustive;

    #[test]
    fn shape() {
        let x = crossbar(4);
        assert_eq!(x.size(), 16);
        assert_eq!(x.depth(), 1);
        assert_eq!(x.inputs().len(), 4);
        assert_eq!(x.outputs().len(), 4);
    }

    #[test]
    fn crossbar_is_superconcentrator() {
        let x = crossbar(3);
        assert!(verify_superconcentrator_exhaustive(x.graph(), x.inputs(), x.outputs()).is_none());
    }

    #[test]
    fn unit_crossbar() {
        let x = crossbar(1);
        assert_eq!(x.size(), 1);
        assert_eq!(x.depth(), 1);
    }
}
