//! 2D mesh with XY routing, contention, and broadcast trees.

use crate::stats::NocStats;
use cmpsim_engine::Cycle;

/// Mesh geometry and timing parameters (defaults = paper Table III).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NocConfig {
    /// Mesh width in tiles.
    pub cols: usize,
    /// Mesh height in tiles.
    pub rows: usize,
    /// Wire latency per link, cycles.
    pub link_cycles: Cycle,
    /// Crossbar/switch latency per hop, cycles.
    pub switch_cycles: Cycle,
    /// Routing-decision latency per hop, cycles.
    pub router_cycles: Cycle,
    /// Flit (and link) width in bytes.
    pub flit_bytes: usize,
    /// Flits in a control packet (requests, acks, pointers).
    pub control_flits: u64,
    /// Flits in a data packet (64-byte block + header).
    pub data_flits: u64,
    /// When false, links never queue (infinite bandwidth); used by tests
    /// that need pure-latency checks.
    pub model_contention: bool,
}

impl Default for NocConfig {
    fn default() -> Self {
        Self {
            cols: 8,
            rows: 8,
            link_cycles: 2,
            switch_cycles: 2,
            router_cycles: 1,
            flit_bytes: 16,
            control_flits: 1,
            data_flits: 5,
            model_contention: true,
        }
    }
}

impl NocConfig {
    /// Total tiles in the mesh.
    pub fn tiles(&self) -> usize {
        self.cols * self.rows
    }

    /// Per-hop latency with an idle network.
    pub fn hop_cycles(&self) -> Cycle {
        self.link_cycles + self.switch_cycles + self.router_cycles
    }

    /// Theoretical average hop distance between two uniformly random tiles
    /// of a `c x r` mesh: `(c + r) / 3` exactly; the paper quotes the
    /// square-mesh approximation `2/3 * sqrt(ntc)`.
    pub fn avg_distance(&self) -> f64 {
        (self.cols as f64 + self.rows as f64) / 3.0
    }
}

/// Outcome of injecting a message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Delivery {
    /// Cycle at which the tail flit reaches the destination.
    pub arrival: Cycle,
    /// Links traversed (the Manhattan distance; 0 for local delivery).
    pub links: u64,
}

/// Direction of a mesh link leaving a tile.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Dir {
    East,
    West,
    North,
    South,
}

/// Incremental XY-route walker: yields each (tile, direction) link
/// traversal from source to destination without allocating. X-dimension
/// first, then Y, exactly as the former `Vec`-building routing did.
#[derive(Debug, Clone, Copy)]
struct RouteIter {
    x: usize,
    y: usize,
    dx: usize,
    dy: usize,
    cols: usize,
}

impl Iterator for RouteIter {
    type Item = (usize, Dir);

    fn next(&mut self) -> Option<(usize, Dir)> {
        let tile = self.y * self.cols + self.x;
        if self.x != self.dx {
            let dir = if self.dx > self.x { Dir::East } else { Dir::West };
            if self.dx > self.x {
                self.x += 1;
            } else {
                self.x -= 1;
            }
            Some((tile, dir))
        } else if self.y != self.dy {
            let dir = if self.dy > self.y { Dir::South } else { Dir::North };
            if self.dy > self.y {
                self.y += 1;
            } else {
                self.y -= 1;
            }
            Some((tile, dir))
        } else {
            None
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.x.abs_diff(self.dx) + self.y.abs_diff(self.dy);
        (n, Some(n))
    }
}

impl ExactSizeIterator for RouteIter {}

/// The mesh interconnect. Owns per-directed-link "busy until" clocks for
/// the contention model and the traffic statistics.
#[derive(Debug, Clone)]
pub struct Mesh {
    cfg: NocConfig,
    /// `link_free[tile * 4 + dir]`: earliest cycle the directed link out of
    /// `tile` toward `dir` can accept a new header flit.
    link_free: Vec<Cycle>,
    /// `link_busy[tile * 4 + dir]`: cumulative cycles each directed link
    /// has spent transmitting flits (one cycle per flit traversal). An
    /// interval sampler diffs this against an earlier snapshot to get
    /// per-link utilization over a window.
    link_busy: Vec<u64>,
    /// `link_stall[tile * 4 + dir]`: cumulative contention cycles
    /// charged on each directed link (the per-link split of
    /// `NocStats::contention_cycles`). Feeds the spatial heatmaps.
    link_stall: Vec<u64>,
    stats: NocStats,
}

impl Mesh {
    /// Builds an idle mesh.
    pub fn new(cfg: NocConfig) -> Self {
        assert!(cfg.cols >= 1 && cfg.rows >= 1, "degenerate mesh");
        Self {
            link_free: vec![0; cfg.tiles() * 4],
            link_busy: vec![0; cfg.tiles() * 4],
            link_stall: vec![0; cfg.tiles() * 4],
            cfg,
            stats: NocStats::default(),
        }
    }

    /// Configuration in effect.
    pub fn config(&self) -> &NocConfig {
        &self.cfg
    }

    /// Traffic statistics accumulated so far.
    pub fn stats(&self) -> &NocStats {
        &self.stats
    }

    /// Cumulative per-directed-link busy cycles, indexed `tile * 4 +
    /// dir`. Border slots that have no physical link stay 0.
    pub fn link_busy(&self) -> &[u64] {
        &self.link_busy
    }

    /// Cumulative per-directed-link contention (stall) cycles, indexed
    /// `tile * 4 + dir` like [`Mesh::link_busy`]. Sums exactly to
    /// `stats().contention_cycles`.
    pub fn link_contention(&self) -> &[u64] {
        &self.link_stall
    }

    /// Number of physical directed links in the mesh (border slots in
    /// [`Mesh::link_busy`] excluded) — the denominator for mean link
    /// utilization.
    pub fn directed_links(&self) -> usize {
        2 * (self.cfg.cols - 1) * self.cfg.rows + 2 * (self.cfg.rows - 1) * self.cfg.cols
    }

    /// Resets statistics, including link-busy accumulation (keeps link
    /// clocks).
    pub fn reset_stats(&mut self) {
        self.stats = NocStats::default();
        self.link_busy.iter_mut().for_each(|b| *b = 0);
        self.link_stall.iter_mut().for_each(|b| *b = 0);
    }

    fn xy(&self, tile: usize) -> (usize, usize) {
        (tile % self.cfg.cols, tile / self.cfg.cols)
    }

    fn tile(&self, x: usize, y: usize) -> usize {
        y * self.cfg.cols + x
    }

    /// Manhattan distance between two tiles.
    pub fn distance(&self, a: usize, b: usize) -> u64 {
        let (ax, ay) = self.xy(a);
        let (bx, by) = self.xy(b);
        (ax.abs_diff(bx) + ay.abs_diff(by)) as u64
    }

    /// The XY route from `src` to `dst` as an incremental iterator of
    /// (tile, direction) link traversals — no per-message allocation.
    /// Empty when `src == dst`.
    fn route(&self, src: usize, dst: usize) -> RouteIter {
        let (x, y) = self.xy(src);
        let (dx, dy) = self.xy(dst);
        RouteIter { x, y, dx, dy, cols: self.cfg.cols }
    }

    /// True when the XY route from `src` to `dst` passes through (or
    /// terminates at) router `tile`. Used by the fault-injection layer
    /// to decide which in-flight messages a transient router outage
    /// holds up. A message is affected by its own source router too
    /// (`src == tile`), matching a store-and-forward outage model.
    pub fn passes_through(&self, src: usize, dst: usize, tile: usize) -> bool {
        if src == tile || dst == tile {
            return true;
        }
        self.route(src, dst).any(|(t, _)| t == tile)
    }

    fn link_index(&self, tile: usize, dir: Dir) -> usize {
        tile * 4
            + match dir {
                Dir::East => 0,
                Dir::West => 1,
                Dir::North => 2,
                Dir::South => 3,
            }
    }

    /// Sends one `flits`-flit message from `src` to `dst`, starting at
    /// cycle `now`. Returns the tail-flit arrival time and accounts
    /// routing/link energy events. `src == dst` is free local delivery
    /// (1 cycle, no network events), used for requests whose home L2 bank
    /// is in the requestor's own tile.
    pub fn send(&mut self, now: Cycle, src: usize, dst: usize, flits: u64) -> Delivery {
        debug_assert!(src < self.cfg.tiles() && dst < self.cfg.tiles());
        if src == dst {
            self.stats.local_deliveries.inc();
            return Delivery { arrival: now + 1, links: 0 };
        }
        let hops = self.route(src, dst);
        let nlinks = hops.len() as u64;
        let hop_cycles = self.cfg.hop_cycles();
        let model_contention = self.cfg.model_contention;
        let mut t = now;
        for (tile, dir) in hops {
            let li = self.link_index(tile, dir);
            t += hop_cycles;
            if model_contention {
                if t < self.link_free[li] {
                    let stall = self.link_free[li] - t;
                    self.stats.contention_cycles.add(stall);
                    self.link_stall[li] += stall;
                    t = self.link_free[li];
                }
                // The link is serialized for the body flits behind the head.
                self.link_free[li] = t + flits.saturating_sub(1);
            }
            self.link_busy[li] += flits;
        }
        // Tail flit trails the head by (flits - 1) cycles on the last link.
        let arrival = t + flits.saturating_sub(1);
        self.stats.messages.inc();
        self.stats.routing_events.add(nlinks);
        self.stats.flit_link_traversals.add(nlinks * flits);
        self.stats.links_per_message.record(nlinks);
        self.stats.message_latency.record(arrival - now);
        Delivery { arrival, links: nlinks }
    }

    /// Broadcasts one message from `src` to every other tile along a
    /// row-then-column spanning tree (the standard mesh broadcast the
    /// paper's Garnet extension implements): the message travels along the
    /// source's row, and each tile of that row forwards it up and down its
    /// column. Exactly `tiles - 1` link traversals occur.
    ///
    /// Returns `(tile, arrival)` for every destination tile (excluding
    /// `src`).
    pub fn broadcast(&mut self, now: Cycle, src: usize, flits: u64) -> Vec<(usize, Cycle)> {
        let (sx, sy) = self.xy(src);
        let mut arrivals = Vec::with_capacity(self.cfg.tiles() - 1);
        let mut row_time = vec![0 as Cycle; self.cfg.cols];
        row_time[sx] = now;

        // Phase 1: along the source row, east and west.
        for x in (0..sx).rev() {
            let from = self.tile(x + 1, sy);
            let t = self.traverse_link(row_time[x + 1], from, Dir::West, flits);
            row_time[x] = t;
            arrivals.push((self.tile(x, sy), t + flits.saturating_sub(1)));
        }
        for x in (sx + 1)..self.cfg.cols {
            let from = self.tile(x - 1, sy);
            let t = self.traverse_link(row_time[x - 1], from, Dir::East, flits);
            row_time[x] = t;
            arrivals.push((self.tile(x, sy), t + flits.saturating_sub(1)));
        }

        // Phase 2: each row tile forwards along its column.
        for (x, &base) in row_time.iter().enumerate() {
            let mut t_up = base;
            for y in (0..sy).rev() {
                let from = self.tile(x, y + 1);
                t_up = self.traverse_link(t_up, from, Dir::North, flits);
                arrivals.push((self.tile(x, y), t_up + flits.saturating_sub(1)));
            }
            let mut t_down = base;
            for y in (sy + 1)..self.cfg.rows {
                let from = self.tile(x, y - 1);
                t_down = self.traverse_link(t_down, from, Dir::South, flits);
                arrivals.push((self.tile(x, y), t_down + flits.saturating_sub(1)));
            }
        }

        self.stats.broadcasts.inc();
        self.stats.messages.inc();
        let nlinks = (self.cfg.tiles() - 1) as u64;
        self.stats.routing_events.add(nlinks);
        self.stats.flit_link_traversals.add(nlinks * flits);
        // Per-destination delivery latency. Kept out of the unicast
        // `message_latency` Running: tree deliveries are a different
        // population (one injection, tiles - 1 arrivals) and would skew
        // the point-to-point figure.
        for &(_, at) in &arrivals {
            self.stats.broadcast_latency.record(at - now);
        }
        arrivals
    }

    /// One link traversal for the broadcast tree, applying contention.
    fn traverse_link(&mut self, depart: Cycle, from: usize, dir: Dir, flits: u64) -> Cycle {
        let li = self.link_index(from, dir);
        let mut t = depart + self.cfg.hop_cycles();
        if self.cfg.model_contention {
            if t < self.link_free[li] {
                let stall = self.link_free[li] - t;
                self.stats.contention_cycles.add(stall);
                self.link_stall[li] += stall;
                t = self.link_free[li];
            }
            self.link_free[li] = t + flits.saturating_sub(1);
        }
        self.link_busy[li] += flits;
        t
    }
}

cmpsim_engine::impl_snap!(NocConfig {
    cols,
    rows,
    link_cycles,
    switch_cycles,
    router_cycles,
    flit_bytes,
    control_flits,
    data_flits,
    model_contention,
});

cmpsim_engine::impl_snap!(Mesh { cfg, link_free, link_busy, link_stall, stats });

#[cfg(test)]
mod tests {
    use super::*;

    fn mesh() -> Mesh {
        Mesh::new(NocConfig::default())
    }

    #[test]
    fn distance_is_manhattan() {
        let m = mesh();
        assert_eq!(m.distance(0, 0), 0);
        assert_eq!(m.distance(0, 7), 7);
        assert_eq!(m.distance(0, 63), 14);
        assert_eq!(m.distance(9, 18), 2);
    }

    #[test]
    fn idle_latency_matches_table_iii() {
        let mut m = mesh();
        // 1 hop, control packet: 2 (link) + 2 (switch) + 1 (router) = 5.
        let d = m.send(0, 0, 1, 1);
        assert_eq!(d.arrival, 5);
        assert_eq!(d.links, 1);
        // 3 hops, data packet (5 flits): 3*5 + 4 tail cycles = 19.
        let d = m.send(100, 0, 3, 5);
        assert_eq!(d.arrival, 100 + 19);
        assert_eq!(d.links, 3);
    }

    #[test]
    fn local_delivery_is_free() {
        let mut m = mesh();
        let d = m.send(10, 5, 5, 5);
        assert_eq!(d.arrival, 11);
        assert_eq!(d.links, 0);
        assert_eq!(m.stats().messages.get(), 0);
        assert_eq!(m.stats().local_deliveries.get(), 1);
    }

    #[test]
    fn route_length_equals_distance() {
        let m = mesh();
        for src in 0..64 {
            for dst in 0..64 {
                assert_eq!(m.route(src, dst).count() as u64, m.distance(src, dst));
                assert_eq!(m.route(src, dst).len() as u64, m.distance(src, dst));
            }
        }
    }

    #[test]
    fn passes_through_follows_xy_routes() {
        let m = mesh();
        // 0 -> 63 routes along row 0 then down column 7.
        assert!(m.passes_through(0, 63, 0));
        assert!(m.passes_through(0, 63, 3)); // row 0
        assert!(m.passes_through(0, 63, 7)); // turn corner
        assert!(m.passes_through(0, 63, 31)); // column 7
        assert!(m.passes_through(0, 63, 63));
        assert!(!m.passes_through(0, 63, 8)); // column 0 below the row
        assert!(!m.passes_through(0, 63, 56)); // opposite corner
                                               // Local delivery only involves its own router.
        assert!(m.passes_through(5, 5, 5));
        assert!(!m.passes_through(5, 5, 6));
    }

    #[test]
    fn contention_serializes_same_link() {
        let mut m = mesh();
        // Two 5-flit messages over the same single link, injected together.
        let a = m.send(0, 0, 1, 5);
        let b = m.send(0, 0, 1, 5);
        assert!(b.arrival > a.arrival, "second message must queue");
        assert!(m.stats().contention_cycles.get() > 0);
    }

    #[test]
    fn no_contention_when_disabled() {
        let mut m = Mesh::new(NocConfig { model_contention: false, ..NocConfig::default() });
        let a = m.send(0, 0, 1, 5);
        let b = m.send(0, 0, 1, 5);
        assert_eq!(a.arrival, b.arrival);
        assert_eq!(m.stats().contention_cycles.get(), 0);
    }

    #[test]
    fn disjoint_paths_do_not_interact() {
        let mut m = mesh();
        let a = m.send(0, 0, 1, 5);
        let b = m.send(0, 62, 63, 5);
        assert_eq!(a.arrival, b.arrival);
    }

    #[test]
    fn energy_counts_accumulate() {
        let mut m = mesh();
        m.send(0, 0, 2, 5); // 2 links, 10 flit-links
        m.send(0, 0, 8, 1); // 1 link, 1 flit-link
        assert_eq!(m.stats().routing_events.get(), 3);
        assert_eq!(m.stats().flit_link_traversals.get(), 11);
        assert_eq!(m.stats().messages.get(), 2);
    }

    #[test]
    fn broadcast_reaches_everyone_once() {
        let mut m = mesh();
        let arr = m.broadcast(0, 27, 1);
        assert_eq!(arr.len(), 63);
        let mut seen = [false; 64];
        for (t, at) in &arr {
            assert!(!seen[*t], "tile {} reached twice", t);
            seen[*t] = true;
            assert!(*at > 0);
        }
        assert!(!seen[27], "source must not receive its own broadcast");
    }

    #[test]
    fn broadcast_uses_tiles_minus_one_links() {
        let mut m = mesh();
        m.broadcast(0, 0, 1);
        assert_eq!(m.stats().routing_events.get(), 63);
        assert_eq!(m.stats().flit_link_traversals.get(), 63);
        assert_eq!(m.stats().broadcasts.get(), 1);
    }

    #[test]
    fn broadcast_latency_recorded_per_destination() {
        let mut m = Mesh::new(NocConfig { model_contention: false, ..NocConfig::default() });
        m.send(0, 0, 1, 1);
        m.broadcast(100, 0, 1);
        // One unicast record, 63 broadcast records — separate populations.
        assert_eq!(m.stats().message_latency.count(), 1);
        assert_eq!(m.stats().broadcast_latency.count(), 63);
        // Idle network: nearest neighbor = one hop (5 cycles), far corner
        // = 14 hops (70 cycles).
        assert_eq!(m.stats().broadcast_latency.min(), Some(5));
        assert_eq!(m.stats().broadcast_latency.max(), Some(70));
    }

    #[test]
    fn broadcast_arrival_grows_with_distance() {
        let mut m = Mesh::new(NocConfig { model_contention: false, ..NocConfig::default() });
        let arr = m.broadcast(0, 0, 1);
        let lookup = |tile: usize| arr.iter().find(|(t, _)| *t == tile).unwrap().1;
        // Along the row: +5 cycles per hop.
        assert_eq!(lookup(1), 5);
        assert_eq!(lookup(7), 35);
        // Down the first column.
        assert_eq!(lookup(8), 5);
        assert_eq!(lookup(56), 35);
        // Far corner: 14 hops * 5.
        assert_eq!(lookup(63), 70);
    }

    #[test]
    fn link_busy_tracks_flit_traversals() {
        let mut m = mesh();
        m.send(0, 0, 2, 5); // 2 links x 5 flits
        assert_eq!(m.link_busy().iter().sum::<u64>(), 10);
        m.broadcast(100, 0, 1); // 63 links x 1 flit
        assert_eq!(m.link_busy().iter().sum::<u64>(), 73);
        m.reset_stats();
        assert_eq!(m.link_busy().iter().sum::<u64>(), 0);
    }

    #[test]
    fn link_stall_splits_contention_cycles() {
        let mut m = mesh();
        // Serialize several data packets over the same link, plus a
        // contended broadcast, then check the per-link split ties out.
        for _ in 0..4 {
            m.send(0, 0, 1, 5);
        }
        m.broadcast(0, 0, 5);
        assert!(m.stats().contention_cycles.get() > 0);
        assert_eq!(
            m.link_contention().iter().sum::<u64>(),
            m.stats().contention_cycles.get(),
            "per-link stalls must sum to the aggregate contention counter"
        );
        m.reset_stats();
        assert_eq!(m.link_contention().iter().sum::<u64>(), 0);
    }

    #[test]
    fn directed_link_count() {
        // 8x8 mesh: 2*7*8 horizontal + 2*7*8 vertical = 224 directed links.
        assert_eq!(mesh().directed_links(), 224);
        let m = Mesh::new(NocConfig { cols: 4, rows: 4, ..NocConfig::default() });
        assert_eq!(m.directed_links(), 48);
        // Busy accumulation only ever touches physical links.
        let mut m = mesh();
        m.broadcast(0, 27, 5);
        let used = m.link_busy().iter().filter(|&&b| b > 0).count();
        assert!(used <= m.directed_links());
    }

    #[test]
    fn avg_distance_formula() {
        let cfg = NocConfig::default();
        // (8+8)/3 = 5.33 for one-way; the paper's "two-hop miss" figure of
        // 10.6 links is twice this.
        assert!((cfg.avg_distance() - 16.0 / 3.0).abs() < 1e-9);
        assert!((2.0 * cfg.avg_distance() - 10.6).abs() < 0.1);
    }

    #[test]
    fn empirical_avg_distance_matches_theory() {
        let m = mesh();
        let mut sum = 0u64;
        let mut n = 0u64;
        for a in 0..64 {
            for b in 0..64 {
                sum += m.distance(a, b);
                n += 1;
            }
        }
        let avg = sum as f64 / n as f64;
        // Exact mean over all ordered pairs including a==b: 2*(c^2-1)/(3c) per
        // dimension summed = 5.25 for 8x8.
        assert!((avg - 5.25).abs() < 1e-9, "avg {avg}");
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Distance is a metric: symmetric, zero iff equal, triangle
        /// inequality.
        #[test]
        fn distance_is_a_metric(a in 0usize..64, b in 0usize..64, c in 0usize..64) {
            let m = Mesh::new(NocConfig::default());
            prop_assert_eq!(m.distance(a, b), m.distance(b, a));
            prop_assert_eq!(m.distance(a, a), 0);
            prop_assert!(m.distance(a, c) <= m.distance(a, b) + m.distance(b, c));
        }

        /// Idle-network latency is exactly hops * hop_cycles plus the
        /// tail serialization.
        #[test]
        fn idle_latency_formula(src in 0usize..64, dst in 0usize..64, flits in 1u64..8) {
            let cfg = NocConfig { model_contention: false, ..NocConfig::default() };
            let mut m = Mesh::new(cfg);
            let d = m.send(1000, src, dst, flits);
            if src == dst {
                prop_assert_eq!(d.arrival, 1001);
            } else {
                let hops = m.distance(src, dst);
                prop_assert_eq!(d.arrival, 1000 + hops * cfg.hop_cycles() + (flits - 1));
                prop_assert_eq!(d.links, hops);
            }
        }

        /// Contention can only delay, never accelerate, a message.
        #[test]
        fn contention_is_monotone(msgs in prop::collection::vec(
            (0usize..64, 0usize..64, 1u64..6), 1..40,
        )) {
            let mut contended = Mesh::new(NocConfig::default());
            let mut ideal =
                Mesh::new(NocConfig { model_contention: false, ..NocConfig::default() });
            for (i, &(s, d, f)) in msgs.iter().enumerate() {
                let t = i as Cycle; // near-simultaneous injection
                let a = contended.send(t, s, d, f);
                let b = ideal.send(t, s, d, f);
                prop_assert!(a.arrival >= b.arrival);
            }
        }

        /// Broadcast reaches all other tiles exactly once, from any root.
        #[test]
        fn broadcast_covers_chip(src in 0usize..64) {
            let mut m = Mesh::new(NocConfig::default());
            let arrivals = m.broadcast(0, src, 1);
            prop_assert_eq!(arrivals.len(), 63);
            let mut seen = [false; 64];
            for (t, _) in arrivals {
                prop_assert!(!seen[t]);
                seen[t] = true;
            }
            prop_assert!(!seen[src]);
        }
    }
}
