//! DiCo-Providers (paper §III-A and §IV-A, Tables I and II).
//!
//! The chip is statically divided into areas. Coherence information is
//! kept **per area**:
//!
//! * the *owner* L1 keeps the sharing code of its own area (an
//!   `nta`-bit vector) plus one provider pointer (`ProPo`) per remote
//!   area;
//! * each *provider* keeps the sharing code of its own area and serves
//!   in-area reads, so misses to data shared between areas (deduplicated
//!   pages) resolve in two short hops without leaving the area;
//! * the home L2, when it holds the ownership, keeps only the ProPos —
//!   never sharers (those live at the providers).
//!
//! Request handling follows the paper's Table I verbatim; replacements
//! follow Table II (providership/ownership hand-off to a sharer of the
//! area, `Change_Provider` / `No_Provider` / `Change_Owner` registration
//! messages, ownership recall on L2C$ eviction with the former owner
//! staying on as its area's provider).
//!
//! Stale pointers are self-correcting rather than blocking: a request
//! forwarded to a cache that is no longer the supplier chases the
//! hand-off tombstone (point-to-point FIFO delivery guarantees the
//! hand-off arrives first) or returns to the node that forwarded it,
//! which recognises its own stale pointer through the `forwarder` field
//! and repairs it — the same mechanism the paper introduces for
//! DiCo-Arin's provider pointers.
//!
//! The DiCo machinery itself lives in the shared [`DiCoCore`];
//! [`ProvidersPolicy`] adds the areas, the providers and the Table II
//! hand-offs.

use crate::common::*;
use crate::dico_core::{AreaPolicy, DiCoCore, L1Line, L1State, L2Entry, Tombstones};
use cmpsim_engine::{Cycle, Snap, SnapError, SnapReader, SnapWriter};

/// The DiCo-Providers protocol.
pub type Providers = DiCoCore<ProvidersPolicy>;

/// DiCo-Providers: area-local sharing codes plus one ProPo per remote
/// area at the owner; providers track their area's sharers.
#[derive(Debug, Clone)]
pub struct ProvidersPolicy {
    /// Providership hand-off tombstones, per tile.
    ptombstones: Vec<Tombstones<Tile>>,
}

impl Snap for ProvidersPolicy {
    fn save(&self, w: &mut SnapWriter) {
        self.ptombstones.save(w);
    }

    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(Self { ptombstones: Snap::load(r)? })
    }
}

impl AreaPolicy for ProvidersPolicy {
    const KIND: ProtocolKind = ProtocolKind::DiCoProviders;
    const AREAS: bool = true;
    const PROVIDERS_TRACK_SHARERS: bool = true;
    const RECALLED_OWNER_STAYS_PROVIDER: bool = true;
    const HINT_ON_TRANSFER_TO_MISS: bool = true;
    type Propos = Propos;
    /// The home keeps only ProPos — never sharers, which live at the
    /// providers (paper §III-A).
    type Home = Propos;

    fn new(spec: &ChipSpec) -> Self {
        Self { ptombstones: vec![Tombstones::default(); spec.tiles()] }
    }

    fn per_tile_len(&self) -> Option<usize> {
        Some(self.ptombstones.len())
    }

    /// Table I: remote-area read at the owner.
    fn remote_read_at_owner(
        c: &mut Providers,
        ctx: &mut Ctx,
        tile: Tile,
        block: Block,
        req: ReqInfo,
    ) {
        let lat = c.spec.lat;
        let req_area = c.area_of(req.requestor);
        let provider = c.l1[tile].peek(block).expect("owner line").propos.get(req_area);
        match provider {
            Some(p) if req.forwarder != Some(p) => {
                // Forward to the provider of the requestor's area.
                c.send_req(
                    ctx,
                    block,
                    Node::L1(tile),
                    Node::L1(p),
                    ReqInfo { forwarder: Some(tile), hops: req.hops.saturating_add(1), ..req },
                    lat.l1_tag,
                );
            }
            _ => {
                // No provider (or our pointer just bounced): serve and
                // make the requestor the provider. A displaced pointer's
                // copy may still be live (message crossing): destroy it
                // silently so no untracked copy survives.
                if let Some(p) = provider {
                    ctx.send(
                        Msg {
                            kind: MsgKind::InvSilent,
                            block,
                            src: Node::L1(tile),
                            dst: Node::L1(p),
                        },
                        lat.l1_tag,
                    );
                }
                let line = c.l1[tile].get_mut(block).expect("owner line");
                line.propos.set(req_area, Some(req.requestor));
                if let L1State::Owner { exclusive, .. } = &mut line.state {
                    *exclusive = false;
                }
                let version = line.version;
                c.stats.l1_data_read.inc();
                ctx.send(
                    Msg {
                        kind: MsgKind::Data(DataInfo {
                            make_provider: true,
                            ..DataInfo::shared(version, Supplier::OwnerL1)
                        }),
                        block,
                        src: Node::L1(tile),
                        dst: Node::L1(req.requestor),
                    },
                    lat.l1_hit(),
                );
            }
        }
    }

    /// Table I: a provider serves an in-area read and tracks the reader.
    fn provider_read(c: &mut Providers, ctx: &mut Ctx, tile: Tile, block: Block, req: ReqInfo) {
        let lb = c.sharer_bit(req.requestor);
        let line = c.l1[tile].get_mut(block).expect("provider line");
        line.sharers |= lb;
        let version = line.version;
        c.stats.l1_data_read.inc();
        ctx.send(
            Msg {
                kind: MsgKind::Data(DataInfo::shared(version, Supplier::ProviderL1)),
                block,
                src: Node::L1(tile),
                dst: Node::L1(req.requestor),
            },
            c.spec.lat.l1_hit(),
        );
    }

    /// Table II: providership (+ sharing code) moves to a sharer of the
    /// area; with none left, the owner learns there is no provider.
    fn evict_provider(
        c: &mut Providers,
        ctx: &mut Ctx,
        tile: Tile,
        block: Block,
        line: L1Line<Propos>,
    ) {
        c.stats.l1_repl_transactions.inc();
        let my_area = c.area_of(tile);
        if line.sharers != 0 {
            let local = line.sharers.trailing_zeros() as usize;
            let target = c.sharer_tile(tile, local);
            let rest = line.sharers & !(1 << local);
            c.policy.ptombstones[tile].set(block, target);
            ctx.send(
                Msg {
                    kind: MsgKind::ProvidershipTransfer {
                        sharers: rest,
                        remaining: rest,
                        former: tile,
                    },
                    block,
                    src: Node::L1(tile),
                    dst: Node::L1(target),
                },
                c.spec.lat.l1_tag,
            );
        } else {
            // No sharers left: tell the owner (via the home), and drop
            // any note from an older hand-off so a chase cannot cycle.
            c.policy.ptombstones[tile].remove(block);
            ctx.send(
                Msg {
                    kind: MsgKind::NoProvider { area: my_area as u16, former: tile },
                    block,
                    src: Node::L1(tile),
                    dst: Node::L2(c.home(block)),
                },
                c.spec.lat.l1_tag,
            );
        }
    }

    fn home_entry(_: &ChipSpec, _: Tile, _: u64, propos: Propos) -> Propos {
        propos
    }

    /// Table I, L2 rows.
    fn serve_home_owned(c: &mut Providers, ctx: &mut Ctx, home: Tile, msg: Msg, req: ReqInfo) {
        let block = msg.block;
        let lat = c.spec.lat;
        let req_area = c.area_of(req.requestor);
        // Read + live provider in the area: forward to the provider.
        if !req.write {
            let propo = c.l2[home].peek(block).expect("home-owned entry").code.get(req_area);
            match propo {
                Some(p) if req.forwarder != Some(p) && p != req.requestor => {
                    c.send_req(
                        ctx,
                        block,
                        Node::L2(home),
                        Node::L1(p),
                        ReqInfo { via_home: true, hops: 0, ..req },
                        lat.l2_tag,
                    );
                    return;
                }
                Some(p) if req.forwarder == Some(p) => {
                    // The provider pointer is stale (or the messages
                    // crossed): repair it and destroy any surviving copy
                    // at the displaced provider.
                    c.l2[home].peek_mut(block).expect("home-owned entry").code.set(req_area, None);
                    ctx.send(
                        Msg {
                            kind: MsgKind::InvSilent,
                            block,
                            src: Node::L2(home),
                            dst: Node::L1(p),
                        },
                        lat.l2_tag,
                    );
                }
                _ => {}
            }
        }
        // Grant the ownership to the requestor (Table I: L2 owner, no
        // provider -> requestor becomes owner).
        let e = c.l2[home].remove(block).expect("home-owned entry");
        c.stats.l2_data_read.inc();
        let propos = e.code;
        let n_prov = propos.count();
        if req.write {
            c.send_provider_invs(ctx, Node::L2(home), block, &propos, Node::L1(req.requestor));
        }
        let data = DataInfo {
            exclusive: n_prov == 0,
            ownership: true,
            sharers: 0,
            propos: if req.write { Propos::NONE } else { propos },
            acks_sharers: 0,
            acks_providers: if req.write { n_prov } else { 0 },
            dirty: e.dirty,
            version: e.version,
            supplier: Supplier::HomeL2,
            ..DataInfo::shared(e.version, Supplier::HomeL2)
        };
        c.home_grant(ctx, home, block, req.requestor, data);
    }

    /// Evicting a home-owned entry invalidates through the providers
    /// (the home acts as owner and requestor at once, paper §IV-A).
    fn evict_home_owned(
        c: &mut Providers,
        ctx: &mut Ctx,
        home: Tile,
        block: Block,
        e: L2Entry<Propos>,
    ) {
        let n = e.code.count();
        if n == 0 {
            c.evict_home_quiet(home, block, e.dirty, e.version);
            return;
        }
        c.evict_home_begin(home, block, 0, n as i64, e.dirty, e.version);
        c.send_provider_invs(ctx, Node::L2(home), block, &e.code, Node::L2(home));
    }

    /// Suppliers self-report: their reachability is through the owner's
    /// ProPos or a providership hand-off chain, which no union can see.
    fn home_recorded(_: &Providers, propos: &Propos) -> Option<u64> {
        Some(propos.iter().fold(0, |bits, p| bits | bit(p)))
    }

    fn handle(c: &mut Providers, ctx: &mut Ctx, msg: Msg) -> Result<(), ProtoError> {
        let block = msg.block;
        match (msg.dst, msg.kind) {
            (Node::L1(_), MsgKind::AckCount { sharers }) => {
                c.l1_ack(ctx, &msg, sharers as i64, -1, "provider ack-count")?;
            }
            (Node::L1(tile), MsgKind::InvSilent) => inv_silent(c, ctx, tile, block),
            (Node::L1(tile), MsgKind::InvProvider { reply_to }) => {
                inv_provider(c, ctx, tile, block, reply_to);
            }
            (Node::L1(tile), MsgKind::ProvidershipTransfer { sharers, former, .. }) => {
                providership_transfer(c, ctx, tile, block, sharers, former);
            }
            (Node::L1(_), MsgKind::ChangeProviderAck) => {
                // Informational only (see module docs): no blocking state.
            }
            (Node::L1(tile), MsgKind::ChangeProvider { .. } | MsgKind::NoProvider { .. }) => {
                l1_provider_update(c, ctx, tile, msg);
            }
            (Node::L2(home), MsgKind::ChangeProvider { .. } | MsgKind::NoProvider { .. }) => {
                home_provider_update(c, ctx, home, msg);
            }
            (Node::L2(_), MsgKind::AckCount { sharers }) => {
                c.home_evict_ack(ctx, &msg, sharers as i64, -1, "provider ack-count")?;
            }
            _ => return Err(ProtoError::unexpected(Self::KIND, &msg)),
        }
        Ok(())
    }
}

/// A silent invalidation (pointer repair) at an L1.
fn inv_silent(c: &mut Providers, ctx: &mut Ctx, tile: Tile, block: Block) {
    c.stats.l1_tag.inc();
    match c.l1[tile].peek(block).map(|l| (l.state, l.sharers)) {
        // An owner copy is authoritative: a silent invalidation
        // targeting it is stale — ignore.
        Some((L1State::Owner { .. }, _)) => {}
        Some((state, sharers)) => {
            // A provider cascades to its tracked sharers.
            if state == L1State::Provider {
                for i in iter_bits(sharers) {
                    let t = c.sharer_tile(tile, i);
                    ctx.send(
                        Msg {
                            kind: MsgKind::InvSilent,
                            block,
                            src: Node::L1(tile),
                            dst: Node::L1(t),
                        },
                        c.spec.lat.l1_tag,
                    );
                }
            }
            c.l1[tile].remove(block);
        }
        None => {
            if let Some(e) = c.mshr[tile].get_mut(block) {
                if !e.write {
                    // Kill the fill in flight from before the repair.
                    e.pending_inv = Some(u64::MAX);
                }
            }
        }
    }
}

/// Invalidate a provider: it cascades to its area sharers and
/// acknowledges with the cascaded count.
fn inv_provider(c: &mut Providers, ctx: &mut Ctx, tile: Tile, block: Block, reply_to: Node) {
    c.stats.l1_tag.inc();
    let lat = c.spec.lat;
    let is_provider = matches!(c.l1[tile].peek(block).map(|l| &l.state), Some(L1State::Provider));
    if is_provider {
        let line = c.l1[tile].remove(block).expect("provider line");
        let n = line.sharers.count_ones();
        c.send_sharer_invs(ctx, tile, block, line.sharers, reply_to, line.version);
        ctx.send(
            Msg {
                kind: MsgKind::AckCount { sharers: n },
                block,
                src: Node::L1(tile),
                dst: reply_to,
            },
            lat.l1_tag,
        );
        if let Node::L1(new_owner) = reply_to {
            c.learn(tile, block, new_owner);
        }
        return;
    }
    // Not (or no longer) the provider: chase the providership hand-off
    // (FIFO delivery guarantees it arrived first), else the area
    // genuinely has no tracked sharers.
    if let Some(next) = c.policy.ptombstones[tile].get(block) {
        ctx.send(
            Msg {
                kind: MsgKind::InvProvider { reply_to },
                block,
                src: Node::L1(tile),
                dst: Node::L1(next),
            },
            lat.l1_tag,
        );
        return;
    }
    // Drop any plain copy we still hold and report zero cascades.
    c.l1[tile].remove(block);
    if let Some(e) = c.mshr[tile].get_mut(block) {
        if !e.write && !e.have_data {
            e.pending_inv = Some(u64::MAX);
        }
    }
    ctx.send(
        Msg { kind: MsgKind::AckCount { sharers: 0 }, block, src: Node::L1(tile), dst: reply_to },
        lat.l1_tag,
    );
}

/// Table II: a providership hand-off arrives at a sharer of the area.
fn providership_transfer(
    c: &mut Providers,
    ctx: &mut Ctx,
    tile: Tile,
    block: Block,
    sharers: u64,
    former: Tile,
) {
    c.stats.l1_tag.inc();
    let lat = c.spec.lat;
    let mine = sharers & !c.sharer_bit(tile);
    let my_area = c.area_of(tile);
    let is_plain_sharer =
        matches!(c.l1[tile].peek(block).map(|l| &l.state), Some(L1State::Sharer { .. }));
    if is_plain_sharer {
        let line = c.l1[tile].get_mut(block).expect("sharer line");
        line.state = L1State::Provider;
        line.sharers = mine;
        // Register with the owner (routed via the home; best-effort — a
        // stale ProPo self-corrects through the forwarder check).
        ctx.send(
            Msg {
                kind: MsgKind::ChangeProvider { area: my_area as u16, new_provider: tile },
                block,
                src: Node::L1(tile),
                dst: Node::L2(c.home(block)),
            },
            lat.l1_tag,
        );
        // Hint the inherited sharers about their new supplier (paper
        // Figure 5), keeping their predictions warm.
        c.send_hints(ctx, tile, block, mine);
        return;
    }
    // Pass it along, or tell the owner there is no provider left.
    if mine != 0 {
        let local = mine.trailing_zeros() as usize;
        let target = c.sharer_tile(tile, local);
        c.policy.ptombstones[tile].set(block, target);
        ctx.send(
            Msg {
                kind: MsgKind::ProvidershipTransfer {
                    sharers: mine,
                    remaining: mine & !(1 << local),
                    former,
                },
                block,
                src: Node::L1(tile),
                dst: Node::L1(target),
            },
            lat.l1_tag,
        );
    } else {
        c.policy.ptombstones[tile].remove(block);
        ctx.send(
            Msg {
                kind: MsgKind::NoProvider { area: my_area as u16, former },
                block,
                src: Node::L1(tile),
                dst: Node::L2(c.home(block)),
            },
            lat.l1_tag,
        );
    }
}

/// Applies a `Change_Provider` / `No_Provider` to a ProPo array; a
/// `Change_Provider` is acknowledged to the new provider from `src`.
fn apply_provider_update(propos: &mut Propos, ctx: &mut Ctx, msg: Msg, src: Node, delay: Cycle) {
    match msg.kind {
        MsgKind::ChangeProvider { area, new_provider } => {
            propos.set(area as usize, Some(new_provider));
            ctx.send(
                Msg {
                    kind: MsgKind::ChangeProviderAck,
                    block: msg.block,
                    src,
                    dst: Node::L1(new_provider),
                },
                delay,
            );
        }
        MsgKind::NoProvider { area, former } => {
            if propos.get(area as usize) == Some(former) {
                propos.set(area as usize, None);
            }
        }
        _ => unreachable!("not a provider update"),
    }
}

/// `Change_Provider` / `No_Provider` arriving at the home: applied to the
/// home's own entry, or forwarded to the L1 owner.
fn home_provider_update(c: &mut Providers, ctx: &mut Ctx, home: Tile, msg: Msg) {
    c.stats.l2c_access.inc();
    let block = msg.block;
    if let Some(owner) = c.l2c[home].peek(block) {
        ctx.send(Msg { dst: Node::L1(owner.get()), src: Node::L2(home), ..msg }, c.spec.lat.l2_tag);
        return;
    }
    let delay = c.spec.lat.l2_tag;
    if let Some(e) = c.l2[home].peek_mut(block) {
        apply_provider_update(&mut e.code, ctx, msg, Node::L2(home), delay);
    }
    // Ownership in transit: drop; stale pointers self-correct.
}

/// The same updates arriving at an owner L1.
fn l1_provider_update(c: &mut Providers, ctx: &mut Ctx, tile: Tile, msg: Msg) {
    c.stats.l1_tag.inc();
    let delay = c.spec.lat.l1_tag;
    match c.l1[tile].peek_mut(msg.block) {
        Some(line) if matches!(line.state, L1State::Owner { .. }) => {
            apply_provider_update(&mut line.propos, ctx, msg, Node::L1(tile), delay);
        }
        // Stale: drop; the pointer will self-correct.
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checker::CopyState;
    use crate::harness::{random_stress, Harness};

    fn harness() -> Harness<Providers> {
        Harness::new(Providers::new(ChipSpec::small()))
    }

    #[test]
    fn restore_refuses_per_tile_state_of_the_wrong_length() {
        crate::common::assert_restore_checks_per_tile!(
            Providers::new(ChipSpec::small());
            l1, l1c, mshr, l1_queues, co_pending, co_ack_early, tombstones, l2, l2c, home_queues,
            tx, bounce_hold, policy.ptombstones,
        );
    }

    #[test]
    #[should_panic(expected = "too many tiles for a one-byte ProPo")]
    fn refuses_chips_too_big_for_one_byte_propos() {
        Providers::new(ChipSpec {
            areas: cmpsim_virt::AreaMap::new(16, 16, 16),
            ..ChipSpec::small()
        });
    }

    /// ChipSpec::small is a 4x4 mesh with four 2x2 areas:
    /// area 0 = {0,1,4,5}, area 1 = {2,3,6,7}, area 2 = {8,9,12,13},
    /// area 3 = {10,11,14,15}.
    #[test]
    fn area_layout_assumption() {
        let spec = ChipSpec::small();
        assert_eq!(spec.area_of(0), 0);
        assert_eq!(spec.area_of(2), 1);
        assert_eq!(spec.area_of(8), 2);
        assert_eq!(spec.area_of(15), 3);
    }

    #[test]
    fn local_read_serves_as_dico() {
        let mut h = harness();
        h.push_access(0, 100, true); // tile 0 owner (area 0)
        h.run_checked(1000);
        h.push_access(1, 100, false); // same area read
        h.run_checked(2000);
        let view = h.proto.block_view(100);
        assert!(matches!(view.copies[1].unwrap().state, CopyState::Shared));
    }

    #[test]
    fn remote_read_creates_provider() {
        let mut h = harness();
        h.push_access(0, 100, true); // owner in area 0
        h.run_checked(1000);
        h.push_access(2, 100, false); // area 1 reads -> becomes provider
        h.run_checked(2000);
        let view = h.proto.block_view(100);
        assert!(matches!(view.copies[2].unwrap().state, CopyState::Provider));
    }

    #[test]
    fn provider_serves_in_area_read() {
        let mut h = harness();
        h.push_access(0, 100, true);
        h.run_checked(1000);
        h.push_access(2, 100, false); // provider of area 1
        h.run_checked(2000);
        h.push_access(3, 100, false); // same area as tile 2
        h.run_checked(3000);
        let view = h.proto.block_view(100);
        assert!(matches!(view.copies[3].unwrap().state, CopyState::Shared));
        // Tile 3 had no prediction: its request went through the home,
        // which forwarded to the owner, which forwarded to the provider —
        // the data still came from the provider L1.
        let s = h.proto.stats();
        assert!(
            s.class_count(MissClass::UnpredictedForwarded) >= 1,
            "classes: {:?}",
            MissClass::all().map(|c| (c.label(), s.class_count(c)))
        );
    }

    #[test]
    fn predicted_provider_hit_is_classified() {
        let mut h = harness();
        h.push_access(0, 100, true);
        h.run_checked(1000);
        h.push_access(2, 100, false); // tile 2 provider (area 1)
        h.run_checked(2000);
        h.push_access(3, 100, false); // tile 3 sharer, hint -> tile 2
        h.run_checked(3000);
        // Evict nothing; tile 3's line hint points at the provider. Write
        // some other block then re-miss on 100 via eviction is complex;
        // instead make tile 6 (same area) read with a learned prediction:
        // tile 6 has no hint, so seed its L1C$ through an invalidation is
        // overkill — simply have tile 3 lose its copy by another tile's
        // write, then re-read using the hint learned from the Inv.
        h.push_access(0, 100, true); // invalidates everyone, tile 3 learns owner=0
        h.run_checked(5000);
        h.push_access(3, 100, false); // predicted to tile 0 (owner) -> 2-hop
        h.run_checked(6000);
        assert!(
            h.proto.stats().class_count(MissClass::PredictedOwnerHit) >= 1
                || h.proto.stats().class_count(MissClass::PredictedProviderHit) >= 1,
            "classes: {:?}",
            MissClass::all().map(|c| (c.label(), h.proto.stats().class_count(c)))
        );
    }

    #[test]
    fn write_invalidates_across_areas() {
        let mut h = harness();
        h.push_access(0, 100, true); // owner area 0
        h.run_checked(1000);
        for t in [1usize, 2, 3, 8, 10] {
            h.push_access(t, 100, false); // sharers + providers in 4 areas
        }
        h.run_checked(8000);
        h.push_access(5, 100, true); // write from area 0
        h.run_checked(10_000);
        let view = h.proto.block_view(100);
        for t in [0usize, 1, 2, 3, 8, 10] {
            assert!(view.copies[t].is_none(), "tile {t} kept a stale copy");
        }
        assert!(matches!(
            view.copies[5].unwrap().state,
            CopyState::Owner { exclusive: true, dirty: true }
        ));
        assert_eq!(h.proto.authority().latest(100), 2);
    }

    #[test]
    fn writer_who_is_provider_invalidates_own_area() {
        let mut h = harness();
        h.push_access(0, 100, true); // owner area 0
        h.run_checked(1000);
        h.push_access(2, 100, false); // tile 2 provider of area 1
        h.run_checked(2000);
        h.push_access(3, 100, false); // tile 3 sharer tracked by tile 2
        h.run_checked(3000);
        h.push_access(2, 100, true); // the provider writes
        h.run_checked(6000);
        let view = h.proto.block_view(100);
        assert!(view.copies[3].is_none(), "tile 3 must be invalidated by tile 2");
        assert!(view.copies[0].is_none());
        assert!(matches!(
            view.copies[2].unwrap().state,
            CopyState::Owner { exclusive: true, dirty: true }
        ));
    }

    #[test]
    fn ping_pong_across_areas_serializes() {
        let mut h = harness();
        for i in 0..12 {
            h.push_access([0, 2, 8, 10][i % 4], 64, true);
        }
        h.run_checked(60_000);
        assert_eq!(h.proto.authority().latest(64), 12);
    }

    #[test]
    fn stress_read_heavy() {
        let mut h = harness();
        random_stress(&mut h, 0xc1, 60, 40, 0.1);
    }

    #[test]
    fn stress_write_heavy() {
        let mut h = harness();
        random_stress(&mut h, 0xc2, 60, 24, 0.6);
    }

    #[test]
    fn stress_high_contention() {
        let mut h = harness();
        random_stress(&mut h, 0xc3, 50, 4, 0.5);
    }

    #[test]
    fn stress_tiny_chip_capacity_pressure() {
        let mut h = Harness::new(Providers::new(ChipSpec::tiny()));
        random_stress(&mut h, 0xc4, 80, 64, 0.3);
    }

    #[test]
    fn stress_many_seeds() {
        for seed in 0..6 {
            let mut h = harness();
            random_stress(&mut h, 0xd000 + seed, 30, 16, 0.4);
        }
    }
}
