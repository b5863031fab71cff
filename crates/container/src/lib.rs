//! Container management for funcX-rs (§4.2, §4.5, §4.7, Table 2).
//!
//! funcX packages functions in Docker, Singularity, or Shifter containers,
//! instantiates them on demand, and keeps them *warm* for a few minutes
//! after use because cold starts on HPC systems are expensive — Table 2
//! measures 10.4 s mean for Singularity on Theta versus 1.79 s for Docker
//! on EC2, blamed on "slower clock speed on KNL nodes and shared file
//! system contention when fetching images".
//!
//! We cannot run Docker in this reproduction, so [`runtime`] models
//! instantiation cost with per-(system, technology) distributions
//! calibrated to Table 2's min/mean/max, charged against the virtual
//! clock — which preserves precisely the behaviour funcX's warming
//! optimization exists to avoid. [`engine`] is the warm-start engine: the
//! container instantiation of `funcx-telemetry`'s [`TieredPool`] (idle
//! instances with a 5–10-minute TTL, a snapshot per image, COW clones and a
//! predictive pre-warmer), supplying what each tier costs on the runtime.
//! The pool's types are re-exported here; driven with a [`TierModel`] that
//! leaves no snapshots it is the paper's plain TTL cache, which is how the
//! warming ablation and the `warmstart` bench's `ttl` baseline use it.
//! [`image`] is the image registry; [`tech`] the technology/system taxonomy.

pub mod engine;
pub mod image;
pub mod runtime;
pub mod tech;

pub use engine::{AcquireTier, Lease, WarmStartConfig, WarmStartEngine, WarmStartStats};
pub use funcx_telemetry::{PoolConfig, TierModel, TieredPool};
pub use image::{ContainerImage, ImageRegistry};
pub use runtime::{ColdStartModel, ContainerInstance, ContainerRuntime};
pub use tech::{ContainerTech, SystemProfile};
