//! Cross-layer call-sequence profiles.
//!
//! Paper §4.2: "VIProf also extends the call graph functionality of
//! Oprofile to include call sequence profiles across layers." The VM
//! Agent samples call edges (Java→Java, Java→native) and records them
//! here; the report shows the hottest edges regardless of which layer
//! the endpoints live in.

use std::collections::HashMap;

/// Sampled caller→callee edge counts, keyed caller first so an edge
/// already seen is found by `&str` and counted without allocating.
#[derive(Debug, Clone, Default)]
pub struct CallGraph {
    edges: HashMap<String, HashMap<String, u64>>,
}

impl CallGraph {
    pub fn new() -> Self {
        CallGraph::default()
    }

    pub fn add_edge(&mut self, caller: &str, callee: &str) {
        self.add_edge_n(caller, callee, 1);
    }

    pub fn add_edge_n(&mut self, caller: &str, callee: &str, n: u64) {
        let Some(callees) = self.edges.get_mut(caller) else {
            self.edges
                .entry(caller.to_string())
                .or_default()
                .insert(callee.to_string(), n);
            return;
        };
        match callees.get_mut(callee) {
            Some(count) => *count += n,
            None => {
                callees.insert(callee.to_string(), n);
            }
        }
    }

    /// Every edge with its count, in no particular order.
    fn edges(&self) -> impl Iterator<Item = (&str, &str, u64)> {
        self.edges.iter().flat_map(|(caller, callees)| {
            callees
                .iter()
                .map(move |(callee, c)| (caller.as_str(), callee.as_str(), *c))
        })
    }

    /// Total recorded edge samples.
    pub fn total_edges(&self) -> u64 {
        self.edges().map(|(_, _, c)| c).sum()
    }

    /// Hottest `n` edges, count-descending (name-ascending tiebreak for
    /// determinism).
    pub fn top_edges(&self, n: usize) -> Vec<(&str, &str, u64)> {
        let mut v: Vec<(&str, &str, u64)> = self.edges().collect();
        v.sort_by(|x, y| y.2.cmp(&x.2).then_with(|| (x.0, x.1).cmp(&(y.0, y.1))));
        v.truncate(n);
        v
    }

    /// Text rendering of the top edges.
    pub fn render_text(&self, n: usize) -> String {
        let total = self.total_edges().max(1);
        let mut s = String::from("samples  %        caller -> callee\n");
        for (a, b, c) in self.top_edges(n) {
            s.push_str(&format!(
                "{:<9}{:<9.4}{} -> {}\n",
                c,
                100.0 * c as f64 / total as f64,
                a,
                b
            ));
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edges_accumulate() {
        let mut g = CallGraph::new();
        g.add_edge("a", "b");
        g.add_edge("a", "b");
        g.add_edge("a", "c");
        assert_eq!(g.total_edges(), 3);
        assert_eq!(g.edges().count(), 2);
    }

    #[test]
    fn top_edges_ordered_and_truncated() {
        let mut g = CallGraph::new();
        for _ in 0..5 {
            g.add_edge("hot", "callee");
        }
        g.add_edge("cold", "callee");
        let top = g.top_edges(1);
        assert_eq!(top, vec![("hot", "callee", 5)]);
    }

    #[test]
    fn edges_of_one_caller_count_apart() {
        let mut g = CallGraph::new();
        g.add_edge("m", "x");
        g.add_edge_n("m", "x", 3);
        g.add_edge("m", "memset");
        g.add_edge("other", "x");
        assert_eq!(g.total_edges(), 6);
        assert_eq!(g.edges().count(), 3);
        assert_eq!(
            g.top_edges(10),
            vec![("m", "x", 4), ("m", "memset", 1), ("other", "x", 1)]
        );
    }

    #[test]
    fn render_contains_cross_layer_edge() {
        let mut g = CallGraph::new();
        g.add_edge("dacapo.ps.Scanner.parseLine", "memset");
        let text = g.render_text(10);
        assert!(text.contains("dacapo.ps.Scanner.parseLine -> memset"));
    }
}
