//! Run-time AVX2 dispatch for the dense kernels: the one home of the
//! crate's `unsafe`.
//!
//! The workspace builds for the x86-64 baseline (SSE2), where the `4 × 8`
//! `f64` micro-kernel needs every `xmm` register for its accumulators.
//! `avx2_dispatch!` compiles a kernel's portable body a second time inside
//! a `#[target_feature(enable = "avx2")]` wrapper and picks that build at run
//! time when the CPU has AVX2. Both builds return the same bits: `avx2`
//! does not enable `fma`, Rust never fuses a `mul` and an `add` on its own,
//! and vector `add`, `mul`, `div` and `sqrt` round each lane exactly as the
//! scalar instructions do. So every output keeps its accumulation chain,
//! term for term (see `crates/mlcore/README.md`, "Runtime AVX2 dispatch").
//!
//! A body only lands in the AVX2 build if it is inlined into the wrapper,
//! so bodies (and every helper they call in a hot loop) are
//! `#[inline(always)]`. Other targets compile the portable body alone.

/// Defines the entry point `fn $name(args)` over the portable body `$body`
/// (a function of the same arguments, returning `()`). On x86-64 the entry
/// point calls an AVX2 build of `$body` when the CPU supports AVX2 and the
/// portable build otherwise; elsewhere it calls the portable build.
///
/// The wrapper must be an `unsafe fn`: a safe `#[target_feature]` function
/// needs Rust 1.86, and the CI toolchain is older. The crate denies
/// `unsafe_code`; the entry point this macro generates is the one item
/// that allows it, so hand-written `unsafe` anywhere else fails the build.
macro_rules! avx2_dispatch {
    (
        $(#[$meta:meta])*
        $vis:vis fn $name:ident($($arg:ident: $ty:ty),* $(,)?) => $body:path
    ) => {
        $(#[$meta])*
        #[allow(unsafe_code)]
        $vis fn $name($($arg: $ty),*) {
            #[cfg(target_arch = "x86_64")]
            {
                /// The AVX2 build of the portable body.
                ///
                /// # Safety
                ///
                /// The CPU must support AVX2.
                #[target_feature(enable = "avx2")]
                unsafe fn avx2($($arg: $ty),*) {
                    $body($($arg),*)
                }
                if std::arch::is_x86_feature_detected!("avx2") {
                    // SAFETY: `avx2` only requires the CPU to support AVX2,
                    // which was checked on the line above.
                    return unsafe { avx2($($arg),*) };
                }
            }
            $body($($arg),*)
        }
    };
}
