//! Compatibility graphs and the heuristic minimal clique cover
//! (Definition 3.8 and Algorithm 3.2).
//!
//! Finding a minimum clique cover is NP-hard [Garey & Johnson], so the
//! paper uses a greedy heuristic that repeatedly grows a clique around the
//! *minimum-degree* node. A maximum-degree-first order covers random
//! graphs with fewer cliques but moves Algorithm 3.3's summed widths by
//! under 0.1% (EXPERIMENTS.md, "Ablations"), so it is not offered. The
//! `ablations` binary of `bddcf-bench` compares Algorithm 3.3's cover
//! engines.

/// An undirected compatibility graph over `n` functions
/// (Definition 3.8: nodes are functions, edges join compatible pairs).
#[derive(Clone, Debug)]
pub struct CompatGraph {
    n: usize,
    adj: Vec<Vec<bool>>, // dense symmetric adjacency, no self loops
}

impl CompatGraph {
    /// An edgeless graph over `n` nodes.
    pub fn new(n: usize) -> Self {
        CompatGraph {
            n,
            adj: vec![vec![false; n]; n],
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True if the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Adds the undirected edge `{i, j}`.
    ///
    /// # Panics
    ///
    /// Panics if `i == j` or an index is out of range.
    pub fn add_edge(&mut self, i: usize, j: usize) {
        assert!(i != j, "no self loops");
        assert!(i < self.n && j < self.n, "node index out of range");
        self.adj[i][j] = true;
        self.adj[j][i] = true;
    }

    /// Is `{i, j}` an edge?
    pub fn has_edge(&self, i: usize, j: usize) -> bool {
        self.adj[i][j]
    }

    /// Number of edges.
    pub fn num_edges(&self) -> usize {
        self.adj
            .iter()
            .enumerate()
            .map(|(i, row)| row[..i].iter().filter(|&&e| e).count())
            .sum()
    }

    fn degree_within(&self, v: usize, alive: &[bool]) -> usize {
        (0..self.n).filter(|&u| alive[u] && self.adj[v][u]).count()
    }

    /// Algorithm 3.2: heuristic minimal clique cover. Returns the cliques
    /// as sorted index lists; every node appears in exactly one clique.
    ///
    /// The algorithm (paper, §3.2): isolated nodes become singletons; then
    /// repeatedly seed a clique with the minimum-degree node `vᵢ` of the
    /// remaining graph, and grow it by minimum-degree candidates among the
    /// common neighbours until none remain. Ties go to the lowest index.
    pub fn clique_cover(&self) -> Vec<Vec<usize>> {
        let mut cover: Vec<Vec<usize>> = Vec::new();
        let mut alive = vec![true; self.n];

        // Isolated nodes first (step 0 of Algorithm 3.2).
        for v in 0..self.n {
            if self.degree_within(v, &alive) == 0 {
                alive[v] = false;
                cover.push(vec![v]);
            }
        }

        while alive.iter().any(|&a| a) {
            // Seed: minimum-degree node among the living.
            let (_, vi) = (0..self.n)
                .filter(|&v| alive[v])
                .map(|v| (self.degree_within(v, &alive), v))
                .min()
                .expect("some node is alive");
            let mut clique = vec![vi];
            // S_b: neighbours of the seed among the living.
            let mut sb: Vec<usize> = (0..self.n)
                .filter(|&u| alive[u] && self.adj[vi][u])
                .collect();
            while !sb.is_empty() {
                let sb_alive = {
                    let mut mask = vec![false; self.n];
                    for &u in &sb {
                        mask[u] = true;
                    }
                    mask
                };
                let (_, vj) = sb
                    .iter()
                    .map(|&u| (self.degree_within(u, &sb_alive), u))
                    .min()
                    .expect("S_b is non-empty");
                clique.push(vj);
                sb.retain(|&u| u != vj && self.adj[vj][u]);
            }
            for &v in &clique {
                alive[v] = false;
            }
            clique.sort_unstable();
            cover.push(clique);
        }
        cover.sort();
        cover
    }

    /// Exact minimum clique cover by branch and bound, for quality
    /// evaluation of Algorithm 3.2 on small graphs.
    ///
    /// Equivalent to colouring the complement graph; exponential in the
    /// worst case.
    ///
    /// # Panics
    ///
    /// Panics if the graph has more than 24 nodes (the search would not
    /// finish in reasonable time).
    pub fn clique_cover_exact(&self) -> Vec<Vec<usize>> {
        assert!(self.n <= 24, "exact cover limited to 24 nodes");
        if self.n == 0 {
            return Vec::new();
        }
        // Greedy upper bound to prune against.
        let mut best = self.clique_cover();
        let mut assignment: Vec<Vec<usize>> = Vec::new();
        self.exact_rec(0, &mut assignment, &mut best);
        best.sort();
        best
    }

    fn exact_rec(&self, v: usize, assignment: &mut Vec<Vec<usize>>, best: &mut Vec<Vec<usize>>) {
        if assignment.len() >= best.len() {
            return; // cannot beat the incumbent
        }
        if v == self.n {
            *best = assignment.clone();
            return;
        }
        // Try putting v into each existing clique.
        for k in 0..assignment.len() {
            if assignment[k].iter().all(|&u| self.adj[u][v]) {
                assignment[k].push(v);
                self.exact_rec(v + 1, assignment, best);
                assignment[k].pop();
            }
        }
        // Or open a new clique.
        assignment.push(vec![v]);
        self.exact_rec(v + 1, assignment, best);
        assignment.pop();
    }

    /// Checks that `cover` is a partition of the nodes into cliques.
    pub fn is_valid_cover(&self, cover: &[Vec<usize>]) -> bool {
        let mut seen = vec![false; self.n];
        for clique in cover {
            for (k, &v) in clique.iter().enumerate() {
                if v >= self.n || std::mem::replace(&mut seen[v], true) {
                    return false;
                }
                for &u in &clique[..k] {
                    if !self.adj[u][v] {
                        return false;
                    }
                }
            }
        }
        seen.into_iter().all(|s| s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_graph_has_empty_cover() {
        let g = CompatGraph::new(0);
        assert!(g.is_empty());
        assert!(g.clique_cover().is_empty());
    }

    #[test]
    fn edgeless_graph_covers_with_singletons() {
        let g = CompatGraph::new(4);
        let cover = g.clique_cover();
        assert_eq!(cover.len(), 4);
        assert!(g.is_valid_cover(&cover));
    }

    #[test]
    fn complete_graph_covers_with_one_clique() {
        let mut g = CompatGraph::new(5);
        for i in 0..5 {
            for j in i + 1..5 {
                g.add_edge(i, j);
            }
        }
        let cover = g.clique_cover();
        assert_eq!(cover.len(), 1);
        assert_eq!(cover[0], vec![0, 1, 2, 3, 4]);
        assert!(g.is_valid_cover(&cover));
    }

    #[test]
    fn paper_fig7_compatibility_graph() {
        // Fig. 7: nodes {6, 7, 8, 10} with edges 6–8 and 7–10 (two pairs).
        // Index them 0..4 as [6, 7, 8, 10].
        let mut g = CompatGraph::new(4);
        g.add_edge(0, 2); // 6–8
        g.add_edge(1, 3); // 7–10
        let cover = g.clique_cover();
        assert_eq!(cover.len(), 2, "two cliques as in Example 3.6");
        assert!(cover.contains(&vec![0, 2]));
        assert!(cover.contains(&vec![1, 3]));
    }

    #[test]
    fn path_graph_min_degree_seeds_at_ends() {
        // Path 0-1-2-3: optimal cover is {0,1},{2,3} (2 cliques).
        let mut g = CompatGraph::new(4);
        g.add_edge(0, 1);
        g.add_edge(1, 2);
        g.add_edge(2, 3);
        let cover = g.clique_cover();
        assert!(g.is_valid_cover(&cover));
        assert_eq!(cover.len(), 2, "min-degree-first finds the optimum here");
    }

    #[test]
    fn triangle_plus_pendant() {
        // Triangle {0,1,2} with pendant 3-0.
        let mut g = CompatGraph::new(4);
        g.add_edge(0, 1);
        g.add_edge(1, 2);
        g.add_edge(0, 2);
        g.add_edge(0, 3);
        let cover = g.clique_cover();
        assert!(g.is_valid_cover(&cover));
        assert_eq!(cover.len(), 2);
    }

    #[test]
    fn cover_is_valid_on_chained_triangles() {
        let mut g = CompatGraph::new(6);
        for (i, j) in [(0, 1), (1, 2), (0, 2), (3, 4), (2, 3), (4, 5)] {
            g.add_edge(i, j);
        }
        assert!(g.is_valid_cover(&g.clique_cover()));
    }

    #[test]
    fn cover_validation_rejects_non_cliques() {
        let mut g = CompatGraph::new(3);
        g.add_edge(0, 1);
        assert!(!g.is_valid_cover(&[vec![0, 1, 2]]), "0-2 is not an edge");
        assert!(!g.is_valid_cover(&[vec![0, 1]]), "2 uncovered");
        assert!(g.is_valid_cover(&[vec![0, 1], vec![2]]));
    }

    #[test]
    fn exact_cover_is_optimal_on_known_graphs() {
        // Path 0-1-2-3-4: optimum 3 cliques? No — {0,1},{2,3},{4}: 3.
        let mut g = CompatGraph::new(5);
        for (i, j) in [(0, 1), (1, 2), (2, 3), (3, 4)] {
            g.add_edge(i, j);
        }
        let exact = g.clique_cover_exact();
        assert!(g.is_valid_cover(&exact));
        assert_eq!(exact.len(), 3);
        // 5-cycle: clique cover number is 3 (cliques are edges/vertices).
        let mut c5 = CompatGraph::new(5);
        for i in 0..5 {
            c5.add_edge(i, (i + 1) % 5);
        }
        assert_eq!(c5.clique_cover_exact().len(), 3);
        // Complete graph: 1.
        let mut k4 = CompatGraph::new(4);
        for i in 0..4 {
            for j in i + 1..4 {
                k4.add_edge(i, j);
            }
        }
        assert_eq!(k4.clique_cover_exact().len(), 1);
    }

    #[test]
    fn heuristic_never_beats_exact_and_is_often_equal() {
        // Deterministic pseudo-random graphs.
        let mut state = 12345u64;
        for n in [6usize, 8, 10] {
            let mut g = CompatGraph::new(n);
            for i in 0..n {
                for j in i + 1..n {
                    state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                    if (state >> 33) % 10 < 4 {
                        g.add_edge(i, j);
                    }
                }
            }
            let exact = g.clique_cover_exact().len();
            let greedy = g.clique_cover().len();
            assert!(greedy >= exact, "greedy cannot beat the optimum");
            assert!(
                greedy <= exact + 2,
                "greedy should stay close on small graphs (got {greedy} vs {exact})"
            );
        }
    }

    #[test]
    fn edge_count() {
        let mut g = CompatGraph::new(4);
        g.add_edge(0, 1);
        g.add_edge(2, 3);
        g.add_edge(0, 3);
        assert_eq!(g.num_edges(), 3);
        assert!(g.has_edge(1, 0), "edges are undirected");
    }
}
