//! A fingerprint of the platform libm on the arguments the simulator feeds
//! it.
//!
//! IEEE 754 requires `sqrt` to be correctly rounded. It does not require
//! that of `ln`, `exp`, `cos` or `powf`, and libms differ in the last bit
//! on some arguments. Every pinned digest passes through those four
//! (`tick_bits`, the `repro`/`whatif` FNV literals, the golden files, the
//! benchmark pins), so on a libm that rounds differently they all fail as
//! if the code had regressed. This test folds each function over 10⁶
//! seeded points, drawn the way the simulator draws its arguments, into
//! one FNV-1a literal. When it fails, the failing pins name this libm, not
//! a change to the simulator.

use std::f64::consts::TAU;

use socc_sim::hash::{fnv1a, FNV_OFFSET};
use socc_sim::rng::SimRng;
use socc_workloads::gaming::GamingTraceConfig;

/// Seeded points per function.
const POINTS: usize = 1_000_000;

/// The digest of all four folds on x86_64 glibc 2.36.
const PINNED: u64 = 0x5284_9072_6f81_6985;

/// The `(μ, σ)` of the simulator's lognormal draws: gaming-trace noise,
/// the two job-length mixes, the video farm's 180-minute sessions and VM
/// storage sizes.
fn lognormals() -> [(f64, f64); 5] {
    [
        (0.0, 0.10),
        (2f64.ln(), 0.7),
        (25f64.ln(), 0.6),
        ((180.0f64 * 60.0).ln(), 0.5),
        (32f64.ln(), 1.2),
    ]
}

fn fold(h: &mut u64, x: f64) {
    *h = fnv1a(*h, &x.to_bits().to_le_bytes());
}

#[test]
fn libm_matches_the_pinned_fingerprint() {
    let mut rng = SimRng::seed(42);
    let mut h = FNV_OFFSET;
    // ln: the exponential and Box–Muller draws take ln(1 − u).
    for _ in 0..POINTS {
        fold(&mut h, (1.0 - rng.next_f64()).ln());
    }
    // cos: Box–Muller's angle, TAU·u.
    for _ in 0..POINTS {
        fold(&mut h, (TAU * rng.next_f64()).cos());
    }
    // exp: half the points exponentiate a normal draw, as a lognormal
    // does; half are the thermal decay exp(−dt/τ) of a Snapdragon package
    // (τ = R·18 J/°C, R from 8.0 °C/W still to 2.2 °C/W forced) over the
    // recovery tick, the farm's chunk, a fleet window or a drawn interval.
    let draws = lognormals();
    for i in 0..POINTS {
        let x = if i % 2 == 0 {
            let (mu, sigma) = draws[i / 2 % draws.len()];
            rng.lognormal(mu, sigma)
        } else {
            let dt = match i / 2 % 4 {
                0 => 1.0,
                1 => 60.0,
                2 => 120.0,
                _ => rng.uniform_usize(0, 120_001) as f64 / 1e3,
            };
            let duty = if i / 8 % 2 == 0 {
                0.25
            } else {
                rng.uniform(0.25, 1.0)
            };
            let tau = (8.0 + (2.2 - 8.0) * duty) * 18.0;
            (-dt / tau).exp()
        };
        fold(&mut h, x);
    }
    // powf: the gaming envelope raises its cosine bump (1 + cos)/2 to the
    // sharpness, at a trace hour of a site in one of eight regions.
    let base = GamingTraceConfig::default();
    for _ in 0..POINTS {
        let phase = rng.uniform_usize(0, 8) as f64 * 24.0 / 8.0;
        let secs = rng.uniform_usize(0, 7 * 86_400) as f64;
        let hour = (secs / 3600.0) % 24.0;
        fold(&mut h, base.with_phase(phase).envelope(hour));
    }
    assert!(
        h == PINNED,
        "libm fingerprint {h:#018x}, pinned {PINNED:#018x}: this host's libm \
         rounds ln, exp, cos or powf differently from the one the pins were \
         recorded on (x86_64 glibc 2.36). The digest pins (tick_bits, the \
         repro/whatif FNV literals, the golden files, the benchmark pins) \
         will fail here too, and that is not a regression."
    );
}
