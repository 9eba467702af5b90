//! Topology graphs: GPUs and switches connected by directed links.
//!
//! A [`Topology`] is a directed multigraph. GPU nodes come first
//! (ids `0..num_gpus`), switch nodes after. Every edge carries its own
//! [`LinkConfig`], so a fabric can mix link speeds — the hierarchical
//! constructor uses fast intra-node links and slow inter-node links.
//!
//! Routes between every GPU pair are precomputed at construction with
//! Dijkstra over per-link costs (`latency_cycles + 1`, so equal-hop
//! ties resolve toward lower-latency links, and among equal-cost paths
//! the lowest node index wins — routing is fully deterministic).

use t3_sim::config::LinkConfig;
use t3_sim::Cycle;

/// What a topology node is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeKind {
    /// A GPU endpoint: sources and sinks collective traffic.
    Gpu,
    /// A switch: only forwards traffic, never originates it.
    Switch,
}

/// Index of one directed link in a [`Topology`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LinkId(pub usize);

/// One directed link of the graph.
#[derive(Debug, Clone, PartialEq)]
pub struct TopoLink {
    /// Source node index.
    pub src: usize,
    /// Destination node index.
    pub dst: usize,
    /// Bandwidth/latency parameters of this link.
    pub cfg: LinkConfig,
}

/// Which canned fabric a [`Topology`] was built as.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TopologyKind {
    /// Bidirectional ring over the GPUs (the paper's fabric; the
    /// collective schedules use the forward direction only, exactly as
    /// [`t3_net::ring::Ring`] does).
    Ring,
    /// A dedicated link per ordered GPU pair (Section 7.1).
    FullyConnected,
    /// A single central switch; every GPU hangs off it (star).
    Switch,
    /// A 2D torus with wrap-around row/column links.
    Torus2d {
        /// Grid rows.
        rows: usize,
        /// Grid columns.
        cols: usize,
    },
    /// Two-level "ring of rings": a fast bidirectional ring inside
    /// each node, a slow bidirectional ring over the node leaders.
    Hierarchical {
        /// Number of nodes (servers).
        nodes: usize,
        /// GPUs per node.
        gpus_per_node: usize,
    },
}

impl TopologyKind {
    /// Human-readable fabric name (matches the `figures --topology`
    /// accepted values).
    pub fn label(&self) -> &'static str {
        match self {
            TopologyKind::Ring => "ring",
            TopologyKind::FullyConnected => "fully-connected",
            TopologyKind::Switch => "switch",
            TopologyKind::Torus2d { .. } => "torus",
            TopologyKind::Hierarchical { .. } => "hierarchical",
        }
    }
}

/// A network fabric: nodes, directed links, and precomputed GPU-pair
/// routes.
#[derive(Debug, Clone)]
pub struct Topology {
    kind: TopologyKind,
    nodes: Vec<NodeKind>,
    num_gpus: usize,
    links: Vec<TopoLink>,
    /// Outgoing link ids per node.
    out: Vec<Vec<LinkId>>,
    /// `routes[src][dst]` is the link path from GPU `src` to GPU
    /// `dst`; empty on the diagonal.
    routes: Vec<Vec<Vec<LinkId>>>,
}

impl Topology {
    /// Bidirectional ring over `n` GPUs, every link configured as
    /// `cfg`.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`.
    pub fn ring(n: usize, cfg: &LinkConfig) -> Self {
        assert!(n >= 2, "a ring needs at least two GPUs");
        let mut b = Builder::new(TopologyKind::Ring, n);
        for d in 0..n {
            b.bidi(d, (d + 1) % n, cfg);
        }
        b.finish()
    }

    /// Fully-connected fabric: one dedicated directed link per ordered
    /// GPU pair.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`.
    pub fn fully_connected(n: usize, cfg: &LinkConfig) -> Self {
        assert!(n >= 2, "a fabric needs at least two GPUs");
        let mut b = Builder::new(TopologyKind::FullyConnected, n);
        for s in 0..n {
            for d in 0..n {
                if s != d {
                    b.link(s, d, cfg);
                }
            }
        }
        b.finish()
    }

    /// Star fabric: `n` GPUs around one central switch. Every GPU↔
    /// switch port is a link pair, so all GPU-pair traffic shares the
    /// switch's per-port serialisers.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`.
    pub fn switch(n: usize, cfg: &LinkConfig) -> Self {
        assert!(n >= 2, "a fabric needs at least two GPUs");
        let mut b = Builder::new(TopologyKind::Switch, n);
        let hub = b.add_switch();
        for d in 0..n {
            b.bidi(d, hub, cfg);
        }
        b.finish()
    }

    /// `rows x cols` 2D torus with wrap-around links in both
    /// directions. Duplicate edges from degenerate wraps (a dimension
    /// of length 2 wraps onto the same neighbour) are collapsed.
    ///
    /// # Panics
    ///
    /// Panics if `rows * cols < 2`.
    pub fn torus2d(rows: usize, cols: usize, cfg: &LinkConfig) -> Self {
        assert!(rows * cols >= 2, "a fabric needs at least two GPUs");
        let n = rows * cols;
        let mut b = Builder::new(TopologyKind::Torus2d { rows, cols }, n);
        let id = |r: usize, c: usize| r * cols + c;
        for r in 0..rows {
            for c in 0..cols {
                if cols > 1 {
                    b.bidi(id(r, c), id(r, (c + 1) % cols), cfg);
                }
                if rows > 1 {
                    b.bidi(id(r, c), id((r + 1) % rows, c), cfg);
                }
            }
        }
        b.finish()
    }

    /// Two-level multi-node fabric: inside each node a fast
    /// bidirectional ring over its GPUs; the first GPU of each node
    /// ("leader") additionally sits on a slow bidirectional inter-node
    /// ring. GPU ids are `node * gpus_per_node + local`.
    ///
    /// # Panics
    ///
    /// Panics if `nodes < 2` or `gpus_per_node < 2`.
    pub fn hierarchical(
        nodes: usize,
        gpus_per_node: usize,
        fast: &LinkConfig,
        slow: &LinkConfig,
    ) -> Self {
        assert!(nodes >= 2, "a hierarchy needs at least two nodes");
        assert!(gpus_per_node >= 2, "each node needs at least two GPUs");
        let n = nodes * gpus_per_node;
        let mut b = Builder::new(
            TopologyKind::Hierarchical {
                nodes,
                gpus_per_node,
            },
            n,
        );
        for node in 0..nodes {
            let base = node * gpus_per_node;
            for local in 0..gpus_per_node {
                b.bidi(base + local, base + (local + 1) % gpus_per_node, fast);
            }
        }
        for node in 0..nodes {
            let leader = node * gpus_per_node;
            let next_leader = ((node + 1) % nodes) * gpus_per_node;
            b.bidi(leader, next_leader, slow);
        }
        b.finish()
    }

    /// Builds the canned fabric named `label` over `n` GPUs — the
    /// inverse of [`TopologyKind::label`], shared by the `figures
    /// --topology` CLI and the t3-spec frontend. `torus` is a
    /// `2 × n/2` torus; `hierarchical` is two `n/2`-GPU nodes whose
    /// leader GPUs are joined by `inter_node` links (`intra` everywhere
    /// else). Returns `None` for unknown labels, and for `torus` /
    /// `hierarchical` when `n` is odd or below 4 (those shapes need
    /// two even halves — callers degrade to `ring` or reject).
    pub fn by_label(
        label: &str,
        n: usize,
        intra: &LinkConfig,
        inter_node: &LinkConfig,
    ) -> Option<Self> {
        let two_even_halves = n >= 4 && n.is_multiple_of(2);
        Some(match label {
            "ring" => Topology::ring(n, intra),
            "fully-connected" => Topology::fully_connected(n, intra),
            "switch" => Topology::switch(n, intra),
            "torus" if two_even_halves => Topology::torus2d(2, n / 2, intra),
            "hierarchical" if two_even_halves => {
                Topology::hierarchical(2, n / 2, intra, inter_node)
            }
            _ => return None,
        })
    }

    /// Which canned fabric this is.
    pub fn kind(&self) -> TopologyKind {
        self.kind
    }

    /// True for the ring fabric (the validated special case).
    pub fn is_ring(&self) -> bool {
        self.kind == TopologyKind::Ring
    }

    /// Number of GPU endpoints.
    pub fn num_gpus(&self) -> usize {
        self.num_gpus
    }

    /// Total nodes (GPUs + switches).
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of directed links.
    pub fn num_links(&self) -> usize {
        self.links.len()
    }

    /// The link behind an id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn link(&self, id: LinkId) -> &TopoLink {
        &self.links[id.0]
    }

    /// All links, indexed by [`LinkId`].
    pub fn links(&self) -> &[TopoLink] {
        &self.links
    }

    /// Kind of node `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn node_kind(&self, node: usize) -> NodeKind {
        self.nodes[node]
    }

    /// The direct link from `src` to `dst`, if the graph has one.
    pub fn link_between(&self, src: usize, dst: usize) -> Option<LinkId> {
        self.out[src]
            .iter()
            .copied()
            .find(|&id| self.links[id.0].dst == dst)
    }

    /// Precomputed shortest route from GPU `src` to GPU `dst` (empty
    /// iff `src == dst`).
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is not a GPU index.
    pub fn route(&self, src: usize, dst: usize) -> &[LinkId] {
        assert!(src < self.num_gpus && dst < self.num_gpus, "GPU ids only");
        &self.routes[src][dst]
    }

    /// Sum of link latencies along the `src -> dst` route.
    pub fn route_latency(&self, src: usize, dst: usize) -> Cycle {
        self.route(src, dst)
            .iter()
            .map(|&id| self.links[id.0].cfg.latency_cycles())
            .sum()
    }

    /// Number of hops on the `src -> dst` route.
    pub fn hops(&self, src: usize, dst: usize) -> usize {
        self.route(src, dst).len()
    }

    /// The maximum hop count over all GPU pairs (the fabric diameter
    /// as routed).
    pub fn diameter(&self) -> usize {
        let mut max = 0;
        for s in 0..self.num_gpus {
            for d in 0..self.num_gpus {
                max = max.max(self.hops(s, d));
            }
        }
        max
    }
}

/// Internal construction helper: accumulates nodes/links, then runs
/// all-pairs Dijkstra.
struct Builder {
    kind: TopologyKind,
    nodes: Vec<NodeKind>,
    num_gpus: usize,
    links: Vec<TopoLink>,
    out: Vec<Vec<LinkId>>,
}

impl Builder {
    fn new(kind: TopologyKind, num_gpus: usize) -> Self {
        Builder {
            kind,
            nodes: vec![NodeKind::Gpu; num_gpus],
            num_gpus,
            links: Vec::new(),
            out: vec![Vec::new(); num_gpus],
        }
    }

    fn add_switch(&mut self) -> usize {
        self.nodes.push(NodeKind::Switch);
        self.out.push(Vec::new());
        self.nodes.len() - 1
    }

    /// Adds the directed link `src -> dst` unless an identical edge
    /// already exists (collapses degenerate duplicates).
    fn link(&mut self, src: usize, dst: usize, cfg: &LinkConfig) {
        assert_ne!(src, dst, "no self links");
        if self.out[src].iter().any(|&id| self.links[id.0].dst == dst) {
            return;
        }
        let id = LinkId(self.links.len());
        self.links.push(TopoLink {
            src,
            dst,
            cfg: cfg.clone(),
        });
        self.out[src].push(id);
    }

    fn bidi(&mut self, a: usize, b: usize, cfg: &LinkConfig) {
        self.link(a, b, cfg);
        self.link(b, a, cfg);
    }

    fn finish(self) -> Topology {
        let mut topo = Topology {
            kind: self.kind,
            nodes: self.nodes,
            num_gpus: self.num_gpus,
            links: self.links,
            out: self.out,
            routes: Vec::new(),
        };
        topo.routes = (0..topo.num_gpus)
            .map(|src| shortest_paths(&topo, src))
            .collect();
        topo
    }
}

/// Dijkstra from `src` to every GPU. Cost per link is
/// `latency_cycles + 1`; ties resolve by node index (deterministic).
fn shortest_paths(topo: &Topology, src: usize) -> Vec<Vec<LinkId>> {
    let n = topo.num_nodes();
    let mut dist: Vec<u64> = vec![u64::MAX; n];
    let mut prev: Vec<Option<LinkId>> = vec![None; n];
    let mut heap = std::collections::BinaryHeap::new();
    dist[src] = 0;
    heap.push(std::cmp::Reverse((0u64, src)));
    while let Some(std::cmp::Reverse((d, node))) = heap.pop() {
        if d > dist[node] {
            continue;
        }
        for &id in &topo.out[node] {
            let link = &topo.links[id.0];
            let next = d + link.cfg.latency_cycles() + 1;
            if next < dist[link.dst] {
                dist[link.dst] = next;
                prev[link.dst] = Some(id);
                heap.push(std::cmp::Reverse((next, link.dst)));
            }
        }
    }
    (0..topo.num_gpus)
        .map(|dst| {
            if dst == src {
                return Vec::new();
            }
            assert!(dist[dst] != u64::MAX, "fabric is disconnected");
            let mut path = Vec::new();
            let mut at = dst;
            while let Some(id) = prev[at] {
                path.push(id);
                at = topo.links[id.0].src;
            }
            path.reverse();
            path
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use t3_sim::config::SystemConfig;

    fn cfg() -> LinkConfig {
        SystemConfig::paper_default().link
    }

    #[test]
    fn by_label_round_trips_every_kind() {
        let link = cfg();
        let mut slow = link.clone();
        slow.link_gb_s /= 4.0;
        for label in ["ring", "fully-connected", "switch", "torus", "hierarchical"] {
            let t = Topology::by_label(label, 8, &link, &slow).expect("known label");
            assert_eq!(t.kind().label(), label);
            assert_eq!(t.num_gpus(), 8, "{label}");
        }
        assert!(Topology::by_label("mesh", 8, &link, &slow).is_none());
        // Two-even-halves shapes reject odd and tiny GPU counts.
        assert!(Topology::by_label("torus", 7, &link, &slow).is_none());
        assert!(Topology::by_label("hierarchical", 2, &link, &slow).is_none());
        assert!(Topology::by_label("ring", 2, &link, &slow).is_some());
    }

    #[test]
    fn ring_has_two_links_per_gpu_and_direct_neighbour_routes() {
        let t = Topology::ring(8, &cfg());
        assert_eq!(t.num_gpus(), 8);
        assert_eq!(t.num_links(), 16);
        assert!(t.is_ring());
        for d in 0..8 {
            let next = (d + 1) % 8;
            let prev = (d + 8 - 1) % 8;
            assert_eq!(t.route(d, next).len(), 1);
            assert_eq!(t.route(d, prev).len(), 1);
            assert!(t.link_between(d, next).is_some());
            assert!(t.link_between(d, prev).is_some());
        }
        // Opposite side of the ring is 4 hops either way.
        assert_eq!(t.hops(0, 4), 4);
        assert_eq!(t.diameter(), 4);
    }

    #[test]
    fn fully_connected_is_always_one_hop() {
        let t = Topology::fully_connected(6, &cfg());
        assert_eq!(t.num_links(), 30);
        assert_eq!(t.diameter(), 1);
    }

    #[test]
    fn switch_routes_pass_the_hub() {
        let t = Topology::switch(8, &cfg());
        assert_eq!(t.num_nodes(), 9);
        assert_eq!(t.node_kind(8), NodeKind::Switch);
        assert_eq!(t.num_links(), 16);
        for s in 0..8 {
            for d in 0..8 {
                if s != d {
                    let r = t.route(s, d);
                    assert_eq!(r.len(), 2);
                    assert_eq!(t.link(r[0]).dst, 8, "first hop enters the switch");
                }
            }
        }
    }

    #[test]
    fn torus_wraps_and_keeps_diameter_small() {
        let t = Topology::torus2d(2, 4, &cfg());
        assert_eq!(t.num_gpus(), 8);
        // Each GPU: 2 horizontal neighbours + 1 deduped vertical pair.
        assert_eq!(t.num_links(), 8 * 2 + 8);
        assert_eq!(t.diameter(), 3); // 2 around the row + 1 across
        let sq = Topology::torus2d(4, 4, &cfg());
        assert_eq!(sq.diameter(), 4);
    }

    #[test]
    fn hierarchical_prefers_fast_links_and_crosses_leaders() {
        let fast = cfg();
        let mut slow = cfg();
        slow.link_gb_s /= 4.0;
        slow.latency_ns *= 4.0;
        let t = Topology::hierarchical(2, 4, &fast, &slow);
        assert_eq!(t.num_gpus(), 8);
        // Intra-node routes never leave the node.
        let r = t.route(1, 3);
        assert!(r.iter().all(|&id| t.link(id).dst < 4));
        // Cross-node routes pass both leaders (0 and 4).
        let x = t.route(2, 6);
        assert!(x
            .iter()
            .any(|&id| t.link(id).dst == 4 || t.link(id).src == 4));
        let crossing = x
            .iter()
            .filter(|&&id| t.link(id).cfg.latency_cycles() == slow.latency_cycles())
            .count();
        assert_eq!(crossing, 1, "exactly one slow hop per cross-node route");
    }

    #[test]
    fn routes_are_connected_chains() {
        for t in [
            Topology::ring(5, &cfg()),
            Topology::fully_connected(4, &cfg()),
            Topology::switch(5, &cfg()),
            Topology::torus2d(3, 3, &cfg()),
            Topology::hierarchical(3, 2, &cfg(), &cfg()),
        ] {
            for s in 0..t.num_gpus() {
                for d in 0..t.num_gpus() {
                    let r = t.route(s, d);
                    if s == d {
                        assert!(r.is_empty());
                        continue;
                    }
                    let mut at = s;
                    for &id in r {
                        assert_eq!(t.link(id).src, at);
                        at = t.link(id).dst;
                    }
                    assert_eq!(at, d);
                }
            }
        }
    }

    #[test]
    fn labels_match_cli_names() {
        assert_eq!(TopologyKind::Ring.label(), "ring");
        assert_eq!(Topology::torus2d(2, 2, &cfg()).kind().label(), "torus");
    }

    #[test]
    #[should_panic(expected = "at least two")]
    fn tiny_ring_rejected() {
        let _ = Topology::ring(1, &cfg());
    }
}
