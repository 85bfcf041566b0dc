//! Seeded input generators. Everything a run feeds the program is made
//! here from `--seed`: the same seed gives the same inputs, and the
//! program under test receives nothing else.

use sickle_cfd::datasets::synthetic_sst_snapshot;
use sickle_cfd::synth::{self, SpectrumKind, SynthConfig};
use sickle_field::{Axis, Grid3, Snapshot};

/// RMS of the seeded perturbation on the curate workload's Taylor–Green
/// initial condition: small next to the unit vortex, so every seed is a
/// member of the same SST-P1F4 ensemble and costs the same to curate.
const PERTURBATION_RMS: f64 = 0.05;

/// Anisotropy of the train workloads' synthetic stratified snapshot.
const TRAIN_ANISOTROPY: f64 = 3.0;

/// Runs an input generator on one thread. The parallel float reductions
/// the generators use (`par_iter().sum()`) add per-chunk partial sums in
/// the order the chunks finish, so two multi-threaded runs of the same
/// seed can differ in the last bits; on one thread they cannot.
fn one_thread<R>(generate: impl FnOnce() -> R) -> R {
    rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("a one-thread pool always builds")
        .install(generate)
}

/// Independent sub-seed number `stream` of the run seed (SplitMix64).
pub fn subseed(seed: u64, stream: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(stream.wrapping_add(1)));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Initial velocity `[u, v, w]` of the curate workload on an `n³` grid:
/// the unit Taylor–Green vortex of the SST-P1F4 ensemble plus a seeded
/// broadband perturbation.
pub fn curate_velocity(n: usize, seed: u64) -> [Vec<f64>; 3] {
    let perturbation = one_thread(|| {
        synth::generate(
            &SynthConfig {
                nx: n,
                ny: n,
                nz: n,
                spectrum: SpectrumKind::PeakedK4 { k_peak: 4.0 },
                urms: PERTURBATION_RMS,
                anisotropy: 0.0,
                gravity: Axis::Z,
            },
            subseed(seed, 0),
        )
    });
    let grid = Grid3::cube_2pi(n);
    let mut u = perturbation.expect_var("u").to_vec();
    let mut v = perturbation.expect_var("v").to_vec();
    let w = perturbation.expect_var("w").to_vec();
    for x in 0..n {
        for y in 0..n {
            for z in 0..n {
                let (px, py, pz) = grid.position(x, y, z);
                let i = grid.idx(x, y, z);
                u[i] += px.sin() * py.cos() * pz.cos();
                v[i] -= px.cos() * py.sin() * pz.cos();
            }
        }
    }
    [u, v, w]
}

/// The train workloads' input: a seeded synthetic stratified `n³`
/// snapshot with `u, v, w, r` and potential vorticity `pv`.
pub fn train_snapshot(n: usize, seed: u64) -> Snapshot {
    one_thread(|| synthetic_sst_snapshot(n, TRAIN_ANISOTROPY, subseed(seed, 1)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn same_seed_gives_the_same_inputs() {
        let (a, b, c) = (
            curate_velocity(16, 7),
            curate_velocity(16, 7),
            curate_velocity(16, 8),
        );
        for k in 0..3 {
            assert_eq!(bits(&a[k]), bits(&b[k]));
        }
        assert_ne!(bits(&a[0]), bits(&c[0]));

        let (s, t, o) = (
            train_snapshot(16, 7),
            train_snapshot(16, 7),
            train_snapshot(16, 8),
        );
        for var in ["u", "v", "w", "r", "pv"] {
            assert_eq!(bits(s.expect_var(var)), bits(t.expect_var(var)), "{var}");
        }
        assert_ne!(bits(s.expect_var("pv")), bits(o.expect_var("pv")));
    }

    #[test]
    fn subseeds_are_distinct_streams() {
        assert_ne!(subseed(1, 0), subseed(1, 1));
        assert_ne!(subseed(1, 0), subseed(2, 0));
        assert_eq!(subseed(5, 3), subseed(5, 3));
    }
}
