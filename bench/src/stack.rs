//! The system under test, stood up exactly as a deployment would: service
//! with a WAL, REST over a real socket, the endpoint attached over real
//! TCP, one manager with four workers. Nothing here is modelled.

use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use funcx_auth::{IdentityProvider, Scope};
use funcx_endpoint::{Agent, EndpointConfig, Manager};
use funcx_proto::channel::inproc_pair;
use funcx_serial::Serializer;
use funcx_service::forwarder::Forwarder;
use funcx_service::http::HttpServer;
use funcx_service::rest::serve_rest;
use funcx_service::{FuncxService, ServiceConfig};
use funcx_types::time::{RealClock, SharedClock};
use funcx_types::EndpointId;

/// Where WAL directories go: RAM-backed `/dev/shm` when the box has it, so
/// the numbers are the program's and not a shared disk's.
pub fn wal_root() -> (PathBuf, &'static str) {
    let shm = Path::new("/dev/shm");
    if shm.is_dir() {
        (shm.to_path_buf(), "tmpfs:/dev/shm")
    } else {
        (std::env::temp_dir(), "temp_dir")
    }
}

/// A directory no other stack of this or any concurrent process uses.
fn fresh_wal_dir() -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    wal_root().0.join(format!("funcx-fabric-bench-{}-{n}", std::process::id()))
}

/// The shipped endpoint configuration, minus the modelled agent cost.
pub fn endpoint_config() -> EndpointConfig {
    EndpointConfig { dispatch_overhead: Duration::ZERO, ..EndpointConfig::default() }
}

/// The shipped service configuration with durability on.
pub fn service_config(wal_dir: &Path) -> ServiceConfig {
    ServiceConfig { wal_dir: Some(wal_dir.to_path_buf()), ..ServiceConfig::default() }
}

/// A running deployment. `stop` (or drop) shuts every thread down and
/// removes the WAL directory.
pub struct Stack {
    pub clock: SharedClock,
    pub service: Arc<FuncxService>,
    pub token: String,
    pub endpoint_id: EndpointId,
    pub rest_addr: SocketAddr,
    wal_dir: PathBuf,
    http: Option<HttpServer>,
    forwarder: Option<Forwarder>,
    agent: Option<Agent>,
    manager: Option<Manager>,
}

impl Stack {
    pub fn start() -> Result<Stack, String> {
        let wal_dir = fresh_wal_dir();
        let _ = std::fs::remove_dir_all(&wal_dir);
        let clock: SharedClock = Arc::new(RealClock::with_speedup(1.0));
        let (service, _report) =
            FuncxService::recover(Arc::clone(&clock), service_config(&wal_dir))
                .map_err(|e| format!("service recover: {e}"))?;
        let (_, token) = service.auth.login("bench", IdentityProvider::Institution, &[Scope::All]);
        let http = serve_rest(Arc::clone(&service), "127.0.0.1:0").map_err(|e| e.to_string())?;
        let rest_addr = http.local_addr();
        let endpoint_id = service
            .register_endpoint(&token, "bench-endpoint", "", false)
            .map_err(|e| e.to_string())?;
        let (forwarder, agent_addr) =
            service.connect_endpoint_tcp(endpoint_id, "127.0.0.1:0").map_err(|e| e.to_string())?;
        let agent_channel = funcx_proto::tcp::connect(agent_addr).map_err(|e| e.to_string())?;
        let agent = Agent::spawn(endpoint_id, endpoint_config(), Arc::clone(&clock), agent_channel);
        let (agent_side, manager_side) = inproc_pair();
        let manager = Manager::spawn(
            endpoint_config(),
            Arc::clone(&clock),
            Serializer::default(),
            manager_side,
            None,
        );
        agent.attach_manager(agent_side);
        Ok(Stack {
            clock,
            service,
            token,
            endpoint_id,
            rest_addr,
            wal_dir,
            http: Some(http),
            forwarder: Some(forwarder),
            agent: Some(agent),
            manager: Some(manager),
        })
    }

    /// Stop agent, manager, forwarder and HTTP server (each `stop` joins
    /// its thread), then remove the WAL directory. The agent goes first so
    /// it does not see its manager vanish and log a loss.
    pub fn stop(&mut self) {
        if let Some(mut a) = self.agent.take() {
            a.stop();
        }
        if let Some(mut m) = self.manager.take() {
            m.stop();
        }
        if let Some(mut f) = self.forwarder.take() {
            f.stop();
        }
        if let Some(mut h) = self.http.take() {
            h.stop();
        }
        let _ = std::fs::remove_dir_all(&self.wal_dir);
    }
}

impl Drop for Stack {
    fn drop(&mut self) {
        self.stop();
    }
}
