//! # f2-hetero
//!
//! Reproduction of the heterogeneous CPU-GPU-FPGA platform thrust of §VI:
//! the benchmarking campaign on a medical-image-segmentation deep-learning
//! pipeline, and the I/O-path optimisation with computational storage that
//! bought "a training time reduction of up to 10% and inference throughput
//! improvement of up to 10%".
//!
//! * [`device`] — roofline-based compute-device models (server CPU,
//!   data-center GPU, FPGA accelerator card) with host-link bandwidths.
//! * [`storage`] — storage-device models (SATA/NVMe/low-latency SSD,
//!   persistent memory, computational storage with in-storage
//!   preprocessing).
//! * [`pipeline`] — the Fig. 5 end-to-end flow simulator: load → preprocess
//!   → train/infer → postprocess, with stage overlap, per-stage profiling
//!   and energy accounting.
//!
//! ```
//! use f2_hetero::device::ComputeDevice;
//! use f2_hetero::pipeline::{PipelineSpec, run_training};
//! use f2_hetero::storage::StorageDevice;
//!
//! let spec = PipelineSpec::segmentation_default();
//! let gpu = run_training(&spec, &ComputeDevice::datacenter_gpu(), &StorageDevice::nvme_ssd());
//! let cpu = run_training(&spec, &ComputeDevice::server_cpu(), &StorageDevice::nvme_ssd());
//! assert!(gpu.total_time < cpu.total_time);
//! ```

#![deny(unsafe_code)]

pub mod campaign;
pub mod device;
pub mod error;
pub mod experiments;
pub mod pipeline;
pub mod storage;

pub use error::HeteroError;

/// Convenience result alias used across `f2-hetero`.
pub type Result<T> = std::result::Result<T, HeteroError>;
