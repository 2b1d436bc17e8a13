//! Reachability in the strict graph, policy aside: can some source node
//! of a cluster reach a destination's node along observed-direction
//! edges at all?
//!
//! A strict search labels a node only through an in-edge whose `src` it
//! is (`search.rs`), so a source that cannot reach the destination in
//! the strict graph gets no strict label, whatever the policy checks
//! would say: that search can only miss. `Sccs` answers the question
//! exactly for one build of the graph, in memory linear in its nodes and
//! edges:
//!
//! * its strongly connected components, numbered by an iterative Tarjan
//!   over the in-edge rows. Tarjan numbers a component only after every
//!   component it reaches, and along in-edges those are the forward
//!   ancestors: a node that reaches another never has the larger id;
//! * the in-edges of its condensation (component → the components with
//!   an edge into it).
//!
//! Same component: yes. A source component numbered above the
//! destination's: no. Otherwise the answer is a bit of the destination
//! component's ancestor set — every component that reaches it, each
//! below it — which a walk of the condensation builds on first use and
//! [`AncestorSets`] keeps, least recently used first out.

use crate::graph::InEdge;
use crate::index::csr;
use inano_model::Lru;

/// "Not yet visited" / "not yet in a component".
const UNSEEN: u32 = u32::MAX;

/// The strongly connected components of a strict graph and its
/// condensation's in-edges.
#[derive(Default)]
pub(crate) struct Sccs {
    /// Component per node.
    of: Vec<u32>,
    /// `preds[pred_off[c]..pred_off[c + 1]]` are the components with an
    /// edge into component `c`, repeats included, `c` itself never.
    pred_off: Vec<u32>,
    preds: Vec<u32>,
}

impl Sccs {
    /// The components of the graph whose in-edges of node `v` are
    /// `edges[edge_off[v]..edge_off[v + 1]]`.
    pub(crate) fn new(edge_off: &[u32], edges: &[InEdge]) -> Sccs {
        let n = edge_off.len() - 1;
        // Tarjan's visit number and low link per node; `open` is its
        // stack of nodes not yet in a component.
        let (mut order, mut low, mut of) = (vec![UNSEEN; n], vec![0; n], vec![UNSEEN; n]);
        let (mut open, mut path) = (Vec::new(), Vec::new());
        let (mut visited, mut done) = (0, 0);
        for root in 0..n {
            if order[root] != UNSEEN {
                continue;
            }
            // The node being walked and its next in-edge; `path` holds
            // the nodes it was reached through, each with its next one.
            let (mut v, mut next) = (root, edge_off[root] as usize);
            (order[v], low[v]) = (visited, visited);
            visited += 1;
            open.push(v);
            loop {
                if next < edge_off[v + 1] as usize {
                    let w = edges[next].src as usize;
                    next += 1;
                    if order[w] == UNSEEN {
                        path.push((v, next));
                        (v, next) = (w, edge_off[w] as usize);
                        (order[v], low[v]) = (visited, visited);
                        visited += 1;
                        open.push(v);
                    } else if of[w] == UNSEEN {
                        low[v] = low[v].min(order[w]);
                    }
                    continue;
                }
                if low[v] == order[v] {
                    loop {
                        let w = open.pop().expect("a component's root is open");
                        of[w] = done;
                        if w == v {
                            break;
                        }
                    }
                    done += 1;
                }
                let Some((u, resume)) = path.pop() else {
                    break;
                };
                low[u] = low[u].min(low[v]);
                (v, next) = (u, resume);
            }
        }
        // Each in-edge between two components, as (target's, source's).
        let mut between = Vec::new();
        for v in 0..n {
            for e in &edges[edge_off[v] as usize..edge_off[v + 1] as usize] {
                let (c, p) = (of[v], of[e.src as usize]);
                if c != p {
                    between.push((c, p));
                }
            }
        }
        let (pred_off, preds) = csr(done as usize, between.into_iter());
        Sccs {
            of,
            pred_off,
            preds,
        }
    }

    /// The component of `node`.
    pub(crate) fn of(&self, node: u32) -> u32 {
        self.of[node as usize]
    }

    /// Every component that reaches component `dest`, one bit each; all
    /// are numbered below it, so the set is `dest` bits long.
    fn ancestors(&self, dest: u32) -> Box<[u64]> {
        let mut bits = vec![0u64; (dest as usize).div_ceil(64)].into_boxed_slice();
        let mut todo = vec![dest];
        while let Some(c) = todo.pop() {
            let row = self.pred_off[c as usize] as usize..self.pred_off[c as usize + 1] as usize;
            for &p in &self.preds[row] {
                debug_assert!(p < c, "an ancestor is numbered below");
                let (word, bit) = (p as usize / 64, 1u64 << (p % 64));
                if bits[word] & bit == 0 {
                    bits[word] |= bit;
                    todo.push(p);
                }
            }
        }
        bits
    }
}

/// The ancestor sets of the destination components a caller asked
/// about, at most `capacity` of them, least recently used first out.
/// The sets belong to the graph they were first asked of: ask them of
/// no other.
pub struct AncestorSets(Lru<u32, Box<[u64]>>);

impl AncestorSets {
    pub fn new(capacity: usize) -> AncestorSets {
        AncestorSets(Lru::new(capacity))
    }

    /// Does a node of component `from` reach one of component `to`?
    pub(crate) fn reaches(&mut self, sccs: &Sccs, from: u32, to: u32) -> bool {
        if from >= to {
            return from == to;
        }
        if self.0.get(&to).is_none() {
            self.0.insert(to, sccs.ancestors(to));
        }
        let bits = self.0.get(&to).expect("just inserted");
        bits[from as usize / 64] >> (from % 64) & 1 == 1
    }
}
