//! The active half of HA: a background thread per node that renews the
//! lease while leading and watches for a lapsed lease (or an operator
//! `PROMOTE`) while following.
//!
//! One loop, role-dispatched per tick (TTL/3), instead of separate
//! leader/follower threads: a follower that wins an election *becomes*
//! the leader mid-loop, so the same thread carries the node through
//! promotion without a handoff. Witnesses tick too but do nothing — all
//! their behaviour is passive (`HaMember::handle`).
//!
//! Election protocol (static membership, one ballot per epoch):
//!
//! 1. the follower sees its granted lease lapse (plus nothing — the
//!    grace is already in the lease horizon) or a `PROMOTE` request;
//! 2. it stands at `epoch + 1`, voting for itself implicitly, and asks
//!    every peer for a vote; granters adopt the epoch in their
//!    persistent ballot, so the epoch is burned whether or not the
//!    election completes;
//! 3. a majority (self included) promotes the local [`Replica`] — epoch
//!    bump persisted to the sidecar *and* the WAL, apply loop stopped,
//!    sweepers respawned, sessions flipped writable — and the member
//!    becomes leader; the next ticks renew the lease so commits may
//!    degrade again;
//! 4. anything less backs off a full TTL before standing again.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use bullfrog_net::wire::HaReq;
use bullfrog_net::Client;
use bullfrog_repl::Replica;
use parking_lot::Mutex;

use crate::member::{HaMember, Role};

/// Handle to a node's HA loop thread.
pub struct HaNode {
    member: Arc<HaMember>,
    stop: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl HaNode {
    /// Spawns the loop. `replica` is the promotion target for followers
    /// (leaders and witnesses pass `None` — they have nothing to
    /// promote).
    pub fn spawn(member: Arc<HaMember>, replica: Option<Arc<Mutex<Replica>>>) -> HaNode {
        let stop = Arc::new(AtomicBool::new(false));
        let thread = {
            let member = Arc::clone(&member);
            let stop = Arc::clone(&stop);
            std::thread::Builder::new()
                .name("bf-ha-loop".into())
                .spawn(move || run(&member, replica.as_ref(), &stop))
                .expect("spawn HA loop thread")
        };
        HaNode {
            member,
            stop,
            thread: Some(thread),
        }
    }

    /// The member this loop drives.
    pub fn member(&self) -> &Arc<HaMember> {
        &self.member
    }

    /// Stops and joins the loop thread. Idempotent.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for HaNode {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn run(member: &Arc<HaMember>, replica: Option<&Arc<Mutex<Replica>>>, stop: &AtomicBool) {
    let tick = (member.config.lease_ttl / 3).max(Duration::from_millis(20));
    while !stop.load(Ordering::Acquire) {
        match member.role() {
            Role::Leader => leader_tick(member),
            Role::Follower | Role::Candidate => {
                if let Some(r) = replica {
                    follower_tick(member, r);
                }
            }
            Role::Witness => {}
        }
        std::thread::sleep(tick);
    }
}

/// One renewal round: ask every peer to extend the lease at our epoch.
/// A majority of grants (self included) extends our own lease horizon;
/// a higher epoch in any reply means we have been deposed.
fn leader_tick(member: &Arc<HaMember>) {
    let epoch = member.epoch.epoch();
    let ttl_ms = member.config.lease_ttl.as_millis() as u64;
    let mut grants = 1usize; // our own lease grant to ourselves
    let mut deposed: Option<String> = None;
    for peer in member.config.peers() {
        let Some(mut c) = connect(peer) else { continue };
        let reply = c.ha(HaReq::Renew {
            epoch,
            leader: member.config.self_addr.clone(),
            ttl_ms,
        });
        match reply {
            Ok(r) if r.epoch > epoch => {
                let _ = member.epoch.observe(r.epoch);
                deposed = Some(if r.leader.is_empty() {
                    peer.clone()
                } else {
                    r.leader
                });
                break;
            }
            Ok(r) if r.granted => grants += 1,
            _ => {}
        }
    }
    if let Some(leader) = deposed {
        eprintln!(
            "bf-ha: {} deposed (higher epoch observed, new leader {leader})",
            member.config.self_addr
        );
        member.step_down(Some(leader));
        return;
    }
    if grants >= member.config.majority() {
        member.extend_lease();
    } else if member.lease_lapsed() {
        // Could not reach a majority for a full TTL: keep serving reads
        // but never degrade a sync commit — an ack handed out here
        // could be lost to a promotion happening on the other side of
        // the partition.
        member.lease_lost();
    }
}

/// Watch the granted lease; once it verifiably lapses (or the operator
/// forces it), stand for election and — with a majority — promote.
fn follower_tick(member: &Arc<HaMember>, replica: &Arc<Mutex<Replica>>) {
    let forced = member.take_promote_request();
    if !forced && !member.lease_lapsed() {
        return;
    }
    member.set_candidate();
    let target = member.epoch.epoch() + 1;
    let mut votes = 1usize; // a candidate always votes for itself
    for peer in member.config.peers() {
        let Some(mut c) = connect(peer) else { continue };
        if let Ok(r) = c.ha(HaReq::Vote {
            epoch: target,
            candidate: member.config.self_addr.clone(),
            forced,
        }) {
            if r.granted {
                votes += 1;
            } else if r.epoch > target {
                // Someone is already past this epoch; adopt and retreat.
                let _ = member.epoch.observe(r.epoch);
            }
        }
    }
    if votes < member.config.majority() {
        member.election_lost();
        return;
    }
    match replica.lock().promote() {
        Ok(epoch) => {
            eprintln!(
                "bf-ha: {} promoted to leader at epoch {epoch} ({votes}/{} votes)",
                member.config.self_addr,
                member.config.members.len()
            );
            member.became_leader();
        }
        Err(e) => {
            eprintln!(
                "bf-ha: {} won the election but promotion failed: {e}",
                member.config.self_addr
            );
            member.election_lost();
        }
    }
}

/// Short-timeout connect; HA ticks must never hang on a dead peer.
fn connect(addr: &str) -> Option<Client> {
    use std::net::ToSocketAddrs;
    let sa = addr.to_socket_addrs().ok()?.next()?;
    Client::connect_timeout(&sa, Duration::from_millis(250)).ok()
}
