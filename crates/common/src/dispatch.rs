//! Workspace-wide kernel dispatch policy.
//!
//! Every runtime-dispatched kernel in the workspace (hardware CRC32C in
//! [`crate::crc`], the PDEP/SSE2/popcnt tiers in `memtree_succinct`)
//! consults one policy knob before consulting the CPU: the
//! `MEMTREE_KERNELS` environment variable. Setting it to `scalar` (or
//! `portable`) pins every dispatch to its portable software tier, so the
//! fallback paths that normally only run on feature-less hardware can be
//! exercised — and CI does exercise them — on any machine. Any other
//! value (or none) means "auto": use whatever the CPU offers.
//!
//! The variable is read once per process; flipping it after the first
//! dispatch has no effect (each kernel's [`cached!`](crate::cached!)
//! probe keeps its verdict for the same reason).

use std::sync::OnceLock;

/// How runtime kernel dispatch should behave for this process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelMode {
    /// Use hardware tiers when CPU feature detection finds them.
    Auto,
    /// Pin every kernel to its portable (scalar/SWAR) tier.
    Scalar,
}

/// The process-wide kernel mode, read once from `MEMTREE_KERNELS`.
pub fn kernel_mode() -> KernelMode {
    static MODE: OnceLock<KernelMode> = OnceLock::new();
    *MODE.get_or_init(|| match std::env::var("MEMTREE_KERNELS") {
        Ok(v) if v.eq_ignore_ascii_case("scalar") || v.eq_ignore_ascii_case("portable") => {
            KernelMode::Scalar
        }
        _ => KernelMode::Auto,
    })
}

/// True when hardware kernel tiers are allowed (mode is [`KernelMode::Auto`]).
#[inline]
pub fn hardware_allowed() -> bool {
    kernel_mode() == KernelMode::Auto
}

/// Cached runtime CPU-feature probe, shared by the CRC32C, succinct, and
/// separator-search kernels: `cached!("bmi2")` is true when the
/// CPU has the feature *and* [`hardware_allowed`] permits hardware tiers,
/// so `MEMTREE_KERNELS=scalar` pins every dispatched kernel to its
/// portable form. Each call site owns one static: the first call pays for
/// `cpuid`, every later call is one relaxed atomic load. `x86_64` only.
#[macro_export]
macro_rules! cached {
    ($feature:tt) => {{
        use ::std::sync::atomic::{AtomicU8, Ordering};
        const UNKNOWN: u8 = 0;
        const PRESENT: u8 = 2;
        static STATE: AtomicU8 = AtomicU8::new(UNKNOWN);
        match STATE.load(Ordering::Relaxed) {
            UNKNOWN => {
                let present = $crate::dispatch::hardware_allowed()
                    && ::std::arch::is_x86_feature_detected!($feature);
                STATE.store(1 + u8::from(present), Ordering::Relaxed);
                present
            }
            state => state == PRESENT,
        }
    }};
}
