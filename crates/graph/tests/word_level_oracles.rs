//! Reference models for the word-level generated dynamics.
//!
//! `markov_stream`, `random_cot_stream` and `RecurrenceRepair` build each
//! frame a 64-edge word at a time. The per-edge loops they replaced live
//! on here as oracles: every frame must equal the oracle's bit for bit,
//! over ring sizes on both sides of every word boundary, edge
//! probabilities 0, 1, 0.3 and a random one, every recurrence bound from 1
//! to 40, with and without an exempt edge, and several seeds.

use dynring_graph::generators::{self, FrameStream, RandomCotConfig, RecurrenceRepair};
use dynring_graph::{EdgeId, EdgeSet, RingTopology, Time};
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};

/// Ring sizes: one, two and three words, each boundary from both sides.
/// A ring needs two nodes, so `1` only reaches the repair oracle.
const SIZES: &[usize] = &[1, 2, 3, 63, 64, 65, 127, 128, 129, 200];
const SEEDS: &[u64] = &[1, 0xb, 0xc0ffee];
const FRAMES: usize = 120;

/// The per-edge repair loop: an edge absent for `bound - 1` frames is
/// forced present in the next; the exempt edge is never touched.
struct RepairOracle {
    bound: Time,
    exempt: Option<EdgeId>,
    absent_run: Vec<Time>,
}

impl RepairOracle {
    fn new(edges: usize, bound: Time, exempt: Option<EdgeId>) -> Self {
        RepairOracle {
            bound,
            exempt,
            absent_run: vec![0; edges],
        }
    }

    fn apply(&mut self, frame: &mut EdgeSet) {
        for (index, run) in self.absent_run.iter_mut().enumerate() {
            let e = EdgeId::new(index);
            if Some(e) == self.exempt {
                continue;
            }
            if frame.contains(e) {
                *run = 0;
            } else if *run + 1 >= self.bound {
                frame.insert(e);
                *run = 0;
            } else {
                *run += 1;
            }
        }
    }
}

/// The per-edge Markov loop: the frame is the chain state, then each edge
/// draws once, in edge order, against `p_off` when present and `p_on`
/// when absent.
fn markov_oracle(n: usize, p_off: f64, p_on: f64, seed: u64) -> impl FnMut() -> EdgeSet {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut state = vec![true; n];
    move || {
        let mut out = EdgeSet::empty(n);
        for (i, on) in state.iter_mut().enumerate() {
            if *on {
                out.insert(EdgeId::new(i));
                if rng.random_bool(p_off) {
                    *on = false;
                }
            } else if rng.random_bool(p_on) {
                *on = true;
            }
        }
        out
    }
}

/// The per-edge random connected-over-time loop: one Bernoulli draw per
/// edge in edge order, the repair oracle, then the eventual missing edge.
fn cot_oracle(n: usize, config: &RandomCotConfig, seed: u64) -> impl FnMut() -> EdgeSet {
    let mut rng = SmallRng::seed_from_u64(seed);
    let p = config.presence_probability;
    let missing = config.eventual_missing;
    let mut repair = RepairOracle::new(n, config.recurrence_bound, missing.map(|(e, _)| e));
    let mut t: Time = 0;
    move || {
        let mut out = EdgeSet::empty(n);
        for i in 0..n {
            if rng.random_bool(p) {
                out.insert(EdgeId::new(i));
            }
        }
        repair.apply(&mut out);
        if let Some((edge, from)) = missing {
            if t >= from {
                out.remove(edge);
            }
        }
        t += 1;
        out
    }
}

fn next(stream: &mut impl FrameStream) -> EdgeSet {
    let mut frame = EdgeSet::empty_for(stream.ring());
    stream.next_frame(&mut frame);
    frame
}

/// Probabilities 0, 1, 0.3 and one drawn from `seed`.
fn probabilities(seed: u64) -> [f64; 4] {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x5eed);
    [0.0, 1.0, 0.3, rng.random_unit()]
}

/// No exempt edge, the first, and the last.
fn exempts(n: usize) -> [Option<EdgeId>; 3] {
    [None, Some(EdgeId::new(0)), Some(EdgeId::new(n - 1))]
}

#[test]
fn markov_frames_match_the_per_edge_loop() {
    for &n in SIZES.iter().filter(|&&n| n >= 2) {
        let ring = RingTopology::new(n).expect("valid ring");
        for &seed in SEEDS {
            let ps = probabilities(seed);
            for &p_off in &ps {
                for &p_on in &ps {
                    let mut oracle = markov_oracle(n, p_off, p_on, seed);
                    let mut stream = generators::markov_stream(&ring, p_off, p_on, seed)
                        .expect("valid probabilities");
                    for t in 0..FRAMES {
                        assert_eq!(
                            next(&mut stream),
                            oracle(),
                            "n={n} p_off={p_off} p_on={p_on} seed={seed} frame {t}"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn random_cot_frames_match_the_per_edge_loop() {
    for &n in SIZES.iter().filter(|&&n| n >= 2) {
        let ring = RingTopology::new(n).expect("valid ring");
        for &seed in SEEDS {
            for p in probabilities(seed) {
                for bound in [1, 2, 3, 7, 16, 40] {
                    for exempt in exempts(n) {
                        let config = RandomCotConfig {
                            presence_probability: p,
                            recurrence_bound: bound,
                            eventual_missing: exempt.map(|e| (e, FRAMES as Time / 2)),
                        };
                        let mut oracle = cot_oracle(n, &config, seed);
                        let mut stream = generators::random_cot_stream(&ring, &config, seed)
                            .expect("valid config");
                        for t in 0..FRAMES {
                            assert_eq!(
                                next(&mut stream),
                                oracle(),
                                "n={n} p={p} bound={bound} exempt={exempt:?} seed={seed} frame {t}"
                            );
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn repair_matches_the_per_edge_loop_for_every_bound() {
    for &n in SIZES {
        for &seed in SEEDS {
            for p in probabilities(seed) {
                for bound in 1..=40 {
                    // The exempt edge in the last (partial) word.
                    for exempt in [None, Some(EdgeId::new(n - 1))] {
                        let mut repair = RecurrenceRepair::new(n, bound, exempt);
                        let mut oracle = RepairOracle::new(n, bound, exempt);
                        let mut rng = SmallRng::seed_from_u64(seed ^ bound);
                        // Long enough for every run to reach the bound twice.
                        for t in 0..2 * bound as usize + 8 {
                            let raw =
                                EdgeSet::from_indices(n, (0..n).filter(|_| rng.random_bool(p)));
                            let (mut fast, mut slow) = (raw.clone(), raw);
                            repair.apply(&mut fast);
                            oracle.apply(&mut slow);
                            assert_eq!(
                                fast, slow,
                                "n={n} p={p} bound={bound} exempt={exempt:?} seed={seed} frame {t}"
                            );
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn repair_of_an_empty_ring_forces_every_edge_on_the_bound() {
    // All-absent input is the worst case for the bit-sliced counters:
    // every run climbs to the bound, carries through every plane, and is
    // forced at the same frame.
    for &n in SIZES {
        for bound in [1, 2, 3, 4, 5, 8, 9, 16, 17, 33, 40] {
            let mut repair = RecurrenceRepair::new(n, bound, Some(EdgeId::new(n / 2)));
            for t in 0..3 * bound {
                let mut frame = EdgeSet::empty(n);
                repair.apply(&mut frame);
                let forced = (t + 1) % bound == 0;
                let expected = if forced { n - 1 } else { 0 };
                assert_eq!(frame.len(), expected, "n={n} bound={bound} frame {t}");
                assert!(!frame.contains(EdgeId::new(n / 2)), "exempt edge forced");
            }
        }
    }
}
