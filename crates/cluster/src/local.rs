//! An in-process loopback cluster.
//!
//! [`LocalCluster`] spins up N full BFNET1 servers on ephemeral
//! 127.0.0.1 ports, each with its own [`Database`] partition and a
//! [`ClusterMember`] enforcing shard ownership and flip windows, and
//! installs one [`ShardMap`] across them. It is the substrate for the
//! cluster integration tests: everything above
//! the TCP socket is identical to a real multi-machine deployment, so
//! the routing, flip, and exchange paths exercised here are the ones
//! `clusterd` serves.

use std::sync::Arc;

use bullfrog_core::Bullfrog;
use bullfrog_engine::{Database, DbConfig, EngineMode};
use bullfrog_net::{ClusterMember, Server, ServerConfig, ShardMap};

/// One member node of a [`LocalCluster`].
pub struct LocalNode {
    server: Server,
    bf: Arc<Bullfrog>,
    member: Arc<ClusterMember>,
}

impl LocalNode {
    /// The node's bound loopback address.
    pub fn addr(&self) -> std::net::SocketAddr {
        self.server.local_addr()
    }

    /// The node's engine handle (for white-box assertions in tests).
    pub fn bullfrog(&self) -> &Arc<Bullfrog> {
        &self.bf
    }

    /// The node's cluster membership state.
    pub fn member(&self) -> &Arc<ClusterMember> {
        &self.member
    }
}

/// N in-process nodes under one shard map.
pub struct LocalCluster {
    nodes: Vec<LocalNode>,
}

impl LocalCluster {
    /// Starts `n` nodes in `mode` and installs a fresh version-1
    /// [`ShardMap`] listing their bound addresses on every member.
    pub fn start(n: usize, mode: EngineMode) -> std::io::Result<LocalCluster> {
        assert!(n > 0, "a cluster needs at least one node");
        let mut nodes = Vec::with_capacity(n);
        for _ in 0..n {
            let db = Arc::new(Database::with_config(DbConfig {
                mode,
                ..DbConfig::default()
            }));
            let bf = Arc::new(Bullfrog::new(db));
            let member = Arc::new(ClusterMember::new());
            let server = Server::bind(
                ("127.0.0.1", 0),
                Arc::clone(&bf),
                ServerConfig {
                    cluster: Some(Arc::clone(&member)),
                    ..ServerConfig::default()
                },
            )?;
            nodes.push(LocalNode { server, bf, member });
        }
        let map = ShardMap::new(nodes.iter().map(|n| n.addr().to_string()).collect());
        for (i, node) in nodes.iter().enumerate() {
            node.member
                .install_map(map.clone(), i)
                .expect("self index is in range by construction");
        }
        Ok(LocalCluster { nodes })
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the cluster has no nodes (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The member nodes.
    pub fn nodes(&self) -> &[LocalNode] {
        &self.nodes
    }

    /// Every node's address, in shard-map order.
    pub fn addrs(&self) -> Vec<String> {
        self.nodes.iter().map(|n| n.addr().to_string()).collect()
    }

    /// Gracefully shuts every node down.
    pub fn shutdown(&mut self) {
        for node in &mut self.nodes {
            node.server.shutdown();
        }
    }
}

impl Drop for LocalCluster {
    fn drop(&mut self) {
        self.shutdown();
    }
}
