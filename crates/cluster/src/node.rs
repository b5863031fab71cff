//! One member of the clustered control plane.
//!
//! A [`ClusterNode`] wraps a [`FuncxService`] and makes it one of N
//! cooperating instances:
//!
//! * **gossip** — each tick it sends a heartbeat frame carrying a
//!   [`ClusterGossip`] payload (membership roster, lease table, shipping
//!   acks) to every peer channel, and absorbs whatever peers send it;
//! * **replication** — it continuously tails every peer's shipped WAL
//!   through a [`Follower`], so a takeover starts from a warm replica;
//! * **leases** — each tick it recomputes the consistent-hash ring over
//!   the members it believes alive and claims any partition the ring
//!   assigns it that is unleased or led by a dead member, fencing the old
//!   leader with an incremented epoch;
//! * **failover** — claiming a dead member's partition runs a final
//!   catch-up against that member's shipped log and folds the partition's
//!   slice of its state into the local service, re-queueing
//!   dispatched-but-unacked tasks for at-least-once redelivery.
//!
//! Transport is a [`ChannelHandle`] — in-process pairs in unit tests, real
//! TCP in a deployment — so the protocol logic is testable without serde
//! or sockets.

use std::collections::{HashMap, HashSet};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use funcx_proto::tcp::TcpServer;
use funcx_proto::{ChannelHandle, ClusterGossip, MemberInfo, Message, PartitionLease};
use funcx_service::FuncxService;
use funcx_types::{FuncxError, Result};
use funcx_wal::{Follower, SegmentShipper, WalState};
use parking_lot::Mutex;

use crate::membership::Membership;
use crate::ring::{partition_of_user, HashRing, DEFAULT_PARTITIONS, DEFAULT_SEED, DEFAULT_VNODES};

/// Cluster-wide agreement parameters plus this instance's tunables. The
/// hash parameters (`partitions`, `vnodes`, `seed`) must be identical on
/// every member — they *are* the assignment function.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Partition count (ownership granularity).
    pub partitions: u32,
    /// Virtual nodes per member on the ring.
    pub vnodes: u32,
    /// Ring hash seed.
    pub seed: u64,
    /// Wall-clock cadence of the gossip/replicate/reconcile tick.
    pub gossip_period: Duration,
    /// Virtual-clock silence after which a member counts as dead.
    pub member_timeout: funcx_types::time::VirtualDuration,
    /// Events pulled per shipping round per peer.
    pub ship_batch: usize,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            partitions: DEFAULT_PARTITIONS,
            vnodes: DEFAULT_VNODES,
            seed: DEFAULT_SEED,
            gossip_period: Duration::from_millis(25),
            member_timeout: Duration::from_secs(10),
            ship_batch: 512,
        }
    }
}

/// A peer's shipped log being tailed locally.
struct Replica {
    shipper: SegmentShipper,
    follower: Follower,
}

/// One instance of the clustered control plane.
pub struct ClusterNode {
    config: ClusterConfig,
    service: Arc<FuncxService>,
    membership: Membership,
    /// Partition → newest lease seen (own claims and gossiped ones).
    leases: Mutex<HashMap<u32, PartitionLease>>,
    /// Peer instance → warm replica of its shipped WAL.
    replicas: Mutex<HashMap<u64, Replica>>,
    /// Follower instance → how far it acked *our* log (from its gossip).
    follower_acks: Mutex<HashMap<u64, u64>>,
    /// Outbound gossip channels (dead ones are dropped on send failure).
    peers: Mutex<Vec<ChannelHandle>>,
    hb_seq: AtomicU64,
    failovers: AtomicU64,
    shutdown: Arc<AtomicBool>,
    threads: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl ClusterNode {
    /// Wrap `service` as cluster member `info.instance`. The service
    /// should come from [`FuncxService::recover_shared`] so every member
    /// validates every member's bearer tokens.
    pub fn new(
        service: Arc<FuncxService>,
        config: ClusterConfig,
        info: MemberInfo,
    ) -> Arc<ClusterNode> {
        let membership = Membership::new(service.clock(), config.member_timeout, info);
        Arc::new(ClusterNode {
            config,
            service,
            membership,
            leases: Mutex::new(HashMap::new()),
            replicas: Mutex::new(HashMap::new()),
            follower_acks: Mutex::new(HashMap::new()),
            peers: Mutex::new(Vec::new()),
            hb_seq: AtomicU64::new(0),
            failovers: AtomicU64::new(0),
            shutdown: Arc::new(AtomicBool::new(false)),
            threads: Mutex::new(Vec::new()),
        })
    }

    /// This member's id.
    pub fn instance(&self) -> u64 {
        self.membership.self_id()
    }

    /// The wrapped service.
    pub fn service(&self) -> &Arc<FuncxService> {
        &self.service
    }

    /// Fill in this member's REST address once the FrontDoor is bound
    /// (ephemeral ports are only known after binding, and binding the
    /// FrontDoor needs the node).
    pub fn set_rest_addr(&self, rest_addr: String) {
        self.membership.set_rest_addr(rest_addr);
    }

    /// Register a bidirectional gossip channel to a peer: we heartbeat on
    /// it every tick and absorb whatever arrives. In-process tests hand
    /// each node one side of an `inproc_pair`.
    pub fn add_peer(self: &Arc<Self>, channel: ChannelHandle) {
        self.spawn_reader(Arc::clone(&channel));
        self.peers.lock().push(channel);
    }

    /// Dial a peer's gossip listener over TCP.
    pub fn connect_peer(self: &Arc<Self>, addr: SocketAddr) -> Result<()> {
        self.add_peer(funcx_proto::tcp::connect(addr)?);
        Ok(())
    }

    /// Serve inbound gossip connections (peers dialing us).
    pub fn serve_gossip(self: &Arc<Self>, server: TcpServer) {
        let node = Arc::clone(self);
        let handle = std::thread::Builder::new()
            .name(format!("gossip-accept-{}", self.instance()))
            .spawn(move || {
                while !node.shutdown.load(Ordering::Acquire) {
                    match server.accept_timeout(Duration::from_millis(200)) {
                        Ok(Some(channel)) => node.spawn_reader(channel),
                        Ok(None) => {}
                        Err(_) => break,
                    }
                }
            })
            .expect("spawn gossip accept loop");
        self.threads.lock().push(handle);
    }

    /// Start the gossip/replicate/reconcile tick loop.
    pub fn start(self: &Arc<Self>) {
        let node = Arc::clone(self);
        let handle = std::thread::Builder::new()
            .name(format!("cluster-tick-{}", self.instance()))
            .spawn(move || {
                while !node.shutdown.load(Ordering::Acquire) {
                    node.tick();
                    std::thread::sleep(node.config.gossip_period);
                }
            })
            .expect("spawn cluster tick loop");
        self.threads.lock().push(handle);
    }

    /// Stop the loops and close every channel. Idempotent.
    pub fn shutdown(&self) {
        self.shutdown.store(true, Ordering::Release);
        for peer in self.peers.lock().drain(..) {
            peer.close();
        }
        // Collect before joining: the accept thread pushes reader handles
        // into `threads`, so holding the lock across a join of that very
        // thread would deadlock.
        let handles: Vec<_> = self.threads.lock().drain(..).collect();
        for handle in handles {
            let _ = handle.join();
        }
    }

    /// One protocol step: replicate peer logs, reconcile leases against
    /// the ring, gossip our view. Public so deterministic tests can drive
    /// the protocol without the wall-clock loop.
    pub fn tick(&self) {
        self.replicate();
        self.reconcile();
        self.broadcast();
    }

    // -- gossip ------------------------------------------------------------

    /// Our current gossip payload.
    fn gossip(&self) -> ClusterGossip {
        let leases: Vec<PartitionLease> = {
            let mut all: Vec<PartitionLease> = self.leases.lock().values().copied().collect();
            all.sort_by_key(|l| l.partition);
            all
        };
        let acked: Vec<(u64, u64)> = {
            let replicas = self.replicas.lock();
            let mut a: Vec<(u64, u64)> =
                replicas.iter().map(|(&peer, r)| (peer, r.follower.acked_seq())).collect();
            a.sort_unstable();
            a
        };
        ClusterGossip { from: self.instance(), members: self.membership.roster(), leases, acked }
    }

    fn broadcast(&self) {
        let seq = self.hb_seq.fetch_add(1, Ordering::Relaxed);
        let gossip = self.gossip();
        let mut peers = self.peers.lock();
        peers.retain(|peer| {
            peer.send(Message::Heartbeat { seq, gossip: Some(gossip.clone()) }).is_ok()
        });
    }

    /// Fold a received gossip payload into local state.
    pub fn absorb_gossip(&self, gossip: &ClusterGossip) {
        for member in &gossip.members {
            // Only a member's own frame proves it alive; relayed rows are
            // metadata. The sender vouches for itself.
            self.membership.observe(member, member.instance == gossip.from);
        }
        {
            // For equal-epoch conflicts (a cold-start contest: every node
            // claims every partition before it has heard of its peers).
            let alive = self.membership.alive();
            let ring = HashRing::new(self.config.seed, self.config.vnodes, &alive);
            let mut leases = self.leases.lock();
            for lease in &gossip.leases {
                match leases.get(&lease.partition).copied() {
                    Some(mine) if mine.epoch > lease.epoch => {}
                    Some(mine) if mine.epoch == lease.epoch => {
                        if mine.leader != lease.leader && !prefer_lease(&ring, &mine, lease) {
                            leases.insert(lease.partition, *lease);
                        }
                    }
                    _ => {
                        leases.insert(lease.partition, *lease);
                    }
                }
            }
        }
        let mut acks = self.follower_acks.lock();
        for &(leader, seq) in &gossip.acked {
            if leader == self.instance() {
                let entry = acks.entry(gossip.from).or_insert(0);
                *entry = (*entry).max(seq);
            }
        }
    }

    fn spawn_reader(self: &Arc<Self>, channel: ChannelHandle) {
        let node = Arc::clone(self);
        let handle = std::thread::Builder::new()
            .name(format!("gossip-read-{}", self.instance()))
            .spawn(move || loop {
                if node.shutdown.load(Ordering::Acquire) {
                    return;
                }
                match channel.recv_timeout(Duration::from_millis(200)) {
                    Ok(Message::Heartbeat { gossip: Some(gossip), .. }) => {
                        node.absorb_gossip(&gossip)
                    }
                    Ok(_) => {}
                    Err(FuncxError::Timeout(_)) => {}
                    Err(_) => return,
                }
            })
            .expect("spawn gossip reader");
        self.threads.lock().push(handle);
    }

    // -- replication -------------------------------------------------------

    /// Tail every peer's shipped log a bounded step forward.
    fn replicate(&self) {
        let roster = self.membership.roster();
        let mut replicas = self.replicas.lock();
        for member in roster {
            if member.instance == self.instance() || member.wal_dir.is_empty() {
                continue;
            }
            let replica = replicas.entry(member.instance).or_insert_with(|| Replica {
                shipper: SegmentShipper::new(&member.wal_dir),
                follower: Follower::new(),
            });
            let _ = replica.follower.catch_up(&replica.shipper, self.config.ship_batch);
        }
    }

    // -- leases & failover -------------------------------------------------

    fn reconcile(&self) {
        let alive = self.membership.alive();
        let ring = HashRing::new(self.config.seed, self.config.vnodes, &alive);
        // Leases to take over, grouped by their dead leader.
        let mut stale: HashMap<u64, Vec<PartitionLease>> = HashMap::new();
        {
            let mut leases = self.leases.lock();
            for partition in 0..self.config.partitions {
                let Some(owner) = ring.owner_of_partition(partition) else { continue };
                if owner != self.instance() {
                    continue;
                }
                match leases.get(&partition).copied() {
                    Some(lease) if lease.leader == self.instance() => {}
                    // A live leader keeps its lease even when the ring
                    // disagrees (a joining member must not yank partitions
                    // from a healthy owner mid-flight).
                    Some(lease) if self.membership.is_alive(lease.leader) => {}
                    Some(lease) => stale.entry(lease.leader).or_default().push(lease),
                    None => {
                        leases.insert(
                            partition,
                            PartitionLease { partition, leader: self.instance(), epoch: 1 },
                        );
                    }
                }
            }
        }
        // Absorb first, publish second: once a lease names us, every
        // FrontDoor sends the partition's requests here, and they must
        // find its tasks.
        for (dead, stale) in stale {
            let partitions: Vec<u32> = stale.iter().map(|lease| lease.partition).collect();
            self.take_over(dead, &partitions);
            let mut leases = self.leases.lock();
            for lease in stale {
                // Gossip may have delivered a newer claim meanwhile.
                if leases.get(&lease.partition) == Some(&lease) {
                    leases.insert(
                        lease.partition,
                        PartitionLease { leader: self.instance(), epoch: lease.epoch + 1, ..lease },
                    );
                }
            }
        }
    }

    /// Recover `partitions` from dead member `dead`: final catch-up
    /// against its shipped log, then fold the partitions' slice of its
    /// state into the local service.
    fn take_over(&self, dead: u64, partitions: &[u32]) {
        self.failovers.fetch_add(1, Ordering::Relaxed);
        self.service.metrics.counter("funcx_cluster_failovers_total", &[]).inc();
        let state = {
            let mut replicas = self.replicas.lock();
            let Some(replica) = replicas.get_mut(&dead) else { return };
            let _ = replica.follower.catch_up(&replica.shipper, self.config.ship_batch);
            replica.follower.state().clone()
        };
        let owned: HashSet<u32> = partitions.iter().copied().collect();
        let slice = slice_state(&state, &owned, self.config.partitions);
        self.service.absorb_state(&slice);
    }

    // -- routing -----------------------------------------------------------

    /// The instance owning `bearer`'s partition right now, resolved
    /// through the lease table (falling back to the live ring when no
    /// lease exists yet). `None` means the token is unknown — route
    /// locally and let the service answer 401.
    pub fn owner_of_bearer(&self, bearer: &str) -> Option<MemberInfo> {
        let token = self.service.auth.tokens.validate(bearer)?;
        let partition = partition_of_user(token.user, self.config.partitions);
        self.owner_of_partition(partition)
    }

    /// The member currently leading `partition`.
    pub fn owner_of_partition(&self, partition: u32) -> Option<MemberInfo> {
        if let Some(lease) = self.leases.lock().get(&partition) {
            if self.membership.is_alive(lease.leader) {
                return self.membership.info(lease.leader);
            }
        }
        let alive = self.membership.alive();
        let ring = HashRing::new(self.config.seed, self.config.vnodes, &alive);
        ring.owner_of_partition(partition).and_then(|i| self.membership.info(i))
    }

    // -- introspection -----------------------------------------------------

    /// Takeover events this node has performed.
    pub fn failovers(&self) -> u64 {
        self.failovers.load(Ordering::Relaxed)
    }

    /// The epoch of `partition`'s current lease (0 = unleased).
    pub fn lease_epoch(&self, partition: u32) -> u64 {
        self.leases.lock().get(&partition).map_or(0, |l| l.epoch)
    }

    /// The `/v1/cluster/status` document: ring membership, the
    /// partition→leader map with lease epochs, and WAL-shipping lag both
    /// ways (followers of our log; our replicas of peers' logs).
    pub fn status_json(&self) -> serde_json::Value {
        let alive: HashSet<u64> = self.membership.alive().into_iter().collect();
        let members: Vec<serde_json::Value> = self
            .membership
            .roster()
            .into_iter()
            .map(|m| {
                serde_json::json!({
                    "instance": m.instance,
                    "rest_addr": m.rest_addr,
                    "gossip_addr": m.gossip_addr,
                    "wal_dir": m.wal_dir,
                    "generation": m.generation,
                    "alive": alive.contains(&m.instance),
                })
            })
            .collect();
        let leases: Vec<serde_json::Value> = {
            let table = self.leases.lock();
            let mut all: Vec<PartitionLease> = table.values().copied().collect();
            all.sort_by_key(|l| l.partition);
            all.iter()
                .map(|l| {
                    serde_json::json!({
                        "partition": l.partition,
                        "leader": l.leader,
                        "epoch": l.epoch,
                    })
                })
                .collect()
        };
        let tip = self.own_tip();
        let followers: Vec<serde_json::Value> = {
            let acks = self.follower_acks.lock();
            let mut rows: Vec<(u64, u64)> = acks.iter().map(|(&f, &a)| (f, a)).collect();
            rows.sort_unstable();
            rows.iter()
                .map(|&(follower, acked)| {
                    serde_json::json!({
                        "instance": follower,
                        "acked": acked,
                        "lag": tip.saturating_sub(acked),
                    })
                })
                .collect()
        };
        let replicating: Vec<serde_json::Value> = {
            let replicas = self.replicas.lock();
            let mut rows: Vec<(u64, u64, u64)> = replicas
                .iter()
                .map(|(&leader, r)| {
                    let leader_tip = r.shipper.tip().unwrap_or(0);
                    (leader, r.follower.acked_seq(), r.follower.lag(leader_tip))
                })
                .collect();
            rows.sort_unstable();
            rows.iter()
                .map(|&(leader, acked, lag)| {
                    serde_json::json!({ "leader": leader, "acked": acked, "lag": lag })
                })
                .collect()
        };
        serde_json::json!({
            "instance": self.instance(),
            "partitions": self.config.partitions,
            "members": members,
            "leases": leases,
            "failovers": self.failovers.load(Ordering::Relaxed),
            "wal": {
                "tip": tip,
                "followers": followers,
                "replicating": replicating,
            },
        })
    }

    /// Next sequence our own shipped log will assign (0 when not durable).
    fn own_tip(&self) -> u64 {
        let dir = self.membership.self_info().wal_dir;
        if dir.is_empty() {
            return 0;
        }
        SegmentShipper::new(dir).tip().unwrap_or(0)
    }
}

/// Of two equal-epoch claims for the same partition, both claimants (and
/// every bystander) must deterministically pick the same winner or the
/// contest never resolves. Prefer whichever leader the ring assigns the
/// partition to; when neither matches (the alive view is still
/// converging), the lower instance id. Returns whether `mine` wins.
fn prefer_lease(ring: &HashRing, mine: &PartitionLease, theirs: &PartitionLease) -> bool {
    match ring.owner_of_partition(mine.partition) {
        Some(owner) if owner == mine.leader => true,
        Some(owner) if owner == theirs.leader => false,
        _ => mine.leader <= theirs.leader,
    }
}

/// The slice of `state` owned by `owned` partitions (of `partitions`
/// total): tasks (in the order they are owed), endpoints and functions
/// whose owning user hashes into the set. Memoized results are
/// content-addressed rather than user-owned, so they transfer whole —
/// duplicating a memo entry is harmless, losing one is a cache miss — and
/// so do deregistrations: an endpoint id is never reused, and whoever
/// adopts a task its endpoint can no longer run must be able to tell.
fn slice_state(state: &WalState, owned: &HashSet<u32>, partitions: u32) -> WalState {
    let keep_user =
        |user: funcx_types::UserId| owned.contains(&partition_of_user(user, partitions));
    let mut out = WalState::new();
    out.memo = state.memo.clone();
    out.deregistered = state.deregistered.clone();
    for (id, record) in &state.endpoints {
        if keep_user(record.owner) {
            out.endpoints.insert(*id, record.clone());
        }
    }
    for (id, record) in &state.functions {
        if keep_user(record.owner) {
            out.functions.insert(*id, record.clone());
        }
    }
    for record in state.tasks_in_order() {
        if keep_user(record.spec.user_id) {
            out.insert_task(record.clone());
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use funcx_service::ServiceConfig;
    use funcx_types::time::ManualClock;

    fn info(instance: u64) -> MemberInfo {
        MemberInfo {
            instance,
            rest_addr: format!("127.0.0.1:{}", 8000 + instance),
            gossip_addr: format!("127.0.0.1:{}", 8100 + instance),
            wal_dir: String::new(),
            generation: 0,
        }
    }

    fn node(clock: &Arc<ManualClock>, instance: u64) -> Arc<ClusterNode> {
        let shared: funcx_types::time::SharedClock = clock.clone();
        let service = FuncxService::new(shared, ServiceConfig::default());
        ClusterNode::new(service, ClusterConfig::default(), info(instance))
    }

    /// Deliver every node's gossip to every other node, as the channel
    /// fabric would.
    fn exchange(nodes: &[Arc<ClusterNode>]) {
        let frames: Vec<ClusterGossip> = nodes.iter().map(|n| n.gossip()).collect();
        for node in nodes {
            for frame in &frames {
                if frame.from != node.instance() {
                    node.absorb_gossip(frame);
                }
            }
        }
    }

    #[test]
    fn a_lone_node_leases_every_partition_at_epoch_one() {
        let clock = ManualClock::new();
        let n = node(&clock, 1);
        n.tick();
        for p in 0..DEFAULT_PARTITIONS {
            assert_eq!(n.lease_epoch(p), 1);
            assert_eq!(n.owner_of_partition(p).unwrap().instance, 1);
        }
        assert_eq!(n.failovers(), 0, "claiming unleased partitions is not a failover");
    }

    #[test]
    fn peers_agree_on_a_disjoint_partition_split() {
        let clock = ManualClock::new();
        let nodes = [node(&clock, 1), node(&clock, 2), node(&clock, 3)];
        // Round 1: learn the roster. Round 2: everyone claims off the same
        // three-member ring. Round 3: leases propagate.
        for _ in 0..3 {
            exchange(&nodes);
            for n in &nodes {
                n.reconcile();
            }
        }
        for p in 0..DEFAULT_PARTITIONS {
            let owners: Vec<u64> =
                nodes.iter().map(|n| n.owner_of_partition(p).unwrap().instance).collect();
            assert_eq!(owners[0], owners[1], "partition {p}: split brain");
            assert_eq!(owners[1], owners[2], "partition {p}: split brain");
            let epochs: Vec<u64> = nodes.iter().map(|n| n.lease_epoch(p)).collect();
            assert_eq!(epochs, vec![1, 1, 1], "partition {p}: bootstrap is epoch 1");
        }
        // Each member leads at least one partition.
        for n in &nodes {
            let led = (0..DEFAULT_PARTITIONS)
                .filter(|&p| n.owner_of_partition(p).unwrap().instance == n.instance())
                .count();
            assert!(led > 0, "instance {} leads nothing", n.instance());
        }
    }

    #[test]
    fn a_cold_start_contest_resolves_to_the_ring_split() {
        let clock = ManualClock::new();
        let nodes = [node(&clock, 1), node(&clock, 2), node(&clock, 3)];
        // The pathological boot: every node ticks before hearing from any
        // peer, so every node claims EVERY partition at epoch 1.
        for n in &nodes {
            n.tick();
            for p in 0..DEFAULT_PARTITIONS {
                assert_eq!(n.owner_of_partition(p).unwrap().instance, n.instance());
            }
        }
        // One full gossip exchange must dissolve the contest: the
        // equal-epoch tie-break steers every table to the ring's choice.
        for _ in 0..2 {
            exchange(&nodes);
            for n in &nodes {
                n.reconcile();
            }
        }
        for p in 0..DEFAULT_PARTITIONS {
            let owners: Vec<u64> =
                nodes.iter().map(|n| n.owner_of_partition(p).unwrap().instance).collect();
            assert_eq!(owners[0], owners[1], "partition {p}: split brain after contest");
            assert_eq!(owners[1], owners[2], "partition {p}: split brain after contest");
            let epochs: Vec<u64> = nodes.iter().map(|n| n.lease_epoch(p)).collect();
            assert_eq!(epochs, vec![1, 1, 1], "partition {p}: contest must not burn epochs");
        }
        for n in &nodes {
            let led = (0..DEFAULT_PARTITIONS)
                .filter(|&p| n.owner_of_partition(p).unwrap().instance == n.instance())
                .count();
            assert!(led > 0, "instance {} starved by the tie-break", n.instance());
        }
    }

    #[test]
    fn a_dead_members_partitions_fail_over_with_a_higher_epoch() {
        let clock = ManualClock::new();
        let nodes = [node(&clock, 1), node(&clock, 2), node(&clock, 3)];
        for _ in 0..3 {
            exchange(&nodes);
            for n in &nodes {
                n.reconcile();
            }
        }
        let dead = nodes[2].instance();
        let dead_partitions: Vec<u32> = (0..DEFAULT_PARTITIONS)
            .filter(|&p| nodes[0].owner_of_partition(p).unwrap().instance == dead)
            .collect();
        assert!(!dead_partitions.is_empty(), "instance 3 must lead something");

        // Instance 3 goes silent; 1 and 2 keep gossiping to each other.
        clock.advance(Duration::from_secs(30));
        let survivors = [Arc::clone(&nodes[0]), Arc::clone(&nodes[1])];
        for _ in 0..3 {
            exchange(&survivors);
            for n in &survivors {
                n.reconcile();
            }
        }
        for &p in &dead_partitions {
            for n in &survivors {
                let owner = n.owner_of_partition(p).unwrap().instance;
                assert_ne!(owner, dead, "partition {p} still routed to the dead member");
                assert_eq!(n.lease_epoch(p), 2, "failover must fence with a higher epoch");
            }
        }
        // Partitions the survivors already led are untouched.
        for p in 0..DEFAULT_PARTITIONS {
            if !dead_partitions.contains(&p) {
                assert_eq!(survivors[0].lease_epoch(p), 1, "partition {p} moved needlessly");
            }
        }
        let total: u64 = survivors.iter().map(|n| n.failovers()).sum();
        assert!(total >= 1, "somebody must record the takeover");
    }

    #[test]
    fn stale_epochs_never_overwrite_newer_leases() {
        let clock = ManualClock::new();
        let n = node(&clock, 1);
        n.absorb_gossip(&ClusterGossip {
            from: 2,
            members: vec![info(2)],
            leases: vec![PartitionLease { partition: 0, leader: 2, epoch: 5 }],
            acked: vec![],
        });
        assert_eq!(n.lease_epoch(0), 5);
        n.absorb_gossip(&ClusterGossip {
            from: 3,
            members: vec![info(3)],
            leases: vec![PartitionLease { partition: 0, leader: 3, epoch: 4 }],
            acked: vec![],
        });
        assert_eq!(n.lease_epoch(0), 5, "stale claim must lose");
        assert_eq!(n.owner_of_partition(0).unwrap().instance, 2);
    }

    #[test]
    fn status_reports_members_leases_and_acks() {
        let clock = ManualClock::new();
        let n = node(&clock, 1);
        n.tick();
        n.absorb_gossip(&ClusterGossip {
            from: 2,
            members: vec![info(2)],
            leases: vec![],
            acked: vec![(1, 17), (9, 3)],
        });
        let status = n.status_json();
        assert_eq!(status["instance"], 1);
        assert_eq!(status["members"].as_array().unwrap().len(), 2);
        assert_eq!(status["leases"].as_array().unwrap().len(), DEFAULT_PARTITIONS as usize);
        let followers = status["wal"]["followers"].as_array().unwrap();
        assert_eq!(followers.len(), 1, "only acks of our own log count");
        assert_eq!(followers[0]["instance"], 2);
        assert_eq!(followers[0]["acked"], 17);
    }

    #[test]
    fn state_slices_follow_partition_ownership() {
        use funcx_registry::{EndpointRecord, EndpointStatus};
        let partitions = DEFAULT_PARTITIONS;
        let mut state = WalState::new();
        for i in 1..=32u128 {
            let user = funcx_types::UserId::from_u128(i * 7919);
            let ep = funcx_types::EndpointId::from_u128(i);
            state.endpoints.insert(
                ep,
                EndpointRecord {
                    endpoint_id: ep,
                    owner: user,
                    name: "ep".into(),
                    description: String::new(),
                    allowed_users: Vec::new(),
                    allowed_groups: Vec::new(),
                    public: false,
                    status: EndpointStatus::Offline,
                    generation: 0,
                    registered_at: funcx_types::time::VirtualInstant(0),
                    last_report: None,
                    last_heartbeat: None,
                    runtimes: Vec::new(),
                },
            );
        }
        let owned: HashSet<u32> = (0..partitions / 2).collect();
        let slice = slice_state(&state, &owned, partitions);
        assert!(!slice.endpoints.is_empty(), "half the partitions must own something");
        assert!(slice.endpoints.len() < state.endpoints.len());
        for record in slice.endpoints.values() {
            assert!(owned.contains(&partition_of_user(record.owner, partitions)));
        }
        // The two complementary slices partition the endpoint set exactly.
        let rest: HashSet<u32> = (partitions / 2..partitions).collect();
        let other = slice_state(&state, &rest, partitions);
        assert_eq!(slice.endpoints.len() + other.endpoints.len(), state.endpoints.len());
    }
}
