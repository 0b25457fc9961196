//! Property-based tests for the evolving-graph substrate.

use proptest::prelude::*;

use dynring_graph::classes::{self, CotVerdict};
use dynring_graph::generators::{self, RandomCotConfig};
use dynring_graph::journey::ForemostArrivals;
use dynring_graph::{
    AbsenceIntervals, AlwaysPresent, EdgeId, EdgeSchedule, EdgeSet, GlobalDir, NodeId,
    RingTopology, ScriptedSchedule, TailBehavior, TimeInterval,
};

fn edge_set_strategy(universe: usize) -> impl Strategy<Value = EdgeSet> {
    proptest::collection::vec(any::<bool>(), universe).prop_map(move |bits| {
        let mut set = EdgeSet::empty(universe);
        for (i, bit) in bits.into_iter().enumerate() {
            if bit {
                set.insert(EdgeId::new(i));
            }
        }
        set
    })
}

proptest! {
    /// De Morgan's law and double complement on edge sets.
    #[test]
    fn edge_set_boolean_laws(
        universe in 1usize..130,
        seed_a in any::<u64>(),
        seed_b in any::<u64>(),
    ) {
        let a = {
            let mut s = EdgeSet::empty(universe);
            for i in 0..universe {
                if (seed_a >> (i % 64)) & 1 == 1 {
                    s.insert(EdgeId::new(i));
                }
            }
            s
        };
        let b = {
            let mut s = EdgeSet::empty(universe);
            for i in 0..universe {
                if (seed_b >> (i % 64)) & 1 == 1 {
                    s.insert(EdgeId::new(i));
                }
            }
            s
        };
        prop_assert_eq!(a.complement().complement(), a.clone());
        prop_assert_eq!(
            a.union(&b).complement(),
            a.complement().intersection(&b.complement())
        );
        prop_assert_eq!(
            a.intersection(&b).complement(),
            a.complement().union(&b.complement())
        );
        prop_assert_eq!(a.difference(&b), a.intersection(&b.complement()));
        prop_assert_eq!(a.union(&b).len() + a.intersection(&b).len(), a.len() + b.len());
    }

    /// Serde round-trips preserve edge sets exactly.
    #[test]
    fn edge_set_serde_round_trip(set in (1usize..80).prop_flat_map(edge_set_strategy)) {
        let json = serde_json::to_string(&set).expect("serialize");
        let back: EdgeSet = serde_json::from_str(&json).expect("deserialize");
        prop_assert_eq!(set, back);
    }

    /// Capturing any scripted schedule reproduces it frame by frame.
    #[test]
    fn capture_round_trips(
        n in 2usize..12,
        frames in 1usize..24,
        seed in any::<u64>(),
    ) {
        let ring = RingTopology::new(n).expect("valid ring");
        let frames: Vec<EdgeSet> = (0..frames)
            .map(|f| {
                let mut set = EdgeSet::empty(n);
                for e in 0..n {
                    if (seed >> ((f * 7 + e) % 64)) & 1 == 1 {
                        set.insert(EdgeId::new(e));
                    }
                }
                set
            })
            .collect();
        let original = ScriptedSchedule::new(ring, frames.clone(), TailBehavior::Cycle)
            .expect("valid script");
        let captured = ScriptedSchedule::capture(&original, frames.len() as u64, TailBehavior::Cycle);
        for t in 0..(frames.len() as u64 * 3) {
            prop_assert_eq!(original.edges_at(t), captured.edges_at(t), "t = {}", t);
        }
    }

    /// Removal-table queries agree with a naive interval scan.
    #[test]
    fn absence_intervals_match_naive_scan(
        n in 2usize..8,
        intervals in proptest::collection::vec(
            (0usize..8, 0u64..60, 1u64..20), 0..12),
        probe in 0u64..90,
    ) {
        let ring = RingTopology::new(n).expect("valid ring");
        let mut schedule = AbsenceIntervals::new(ring.clone());
        let mut naive: Vec<(usize, u64, u64)> = Vec::new();
        for (e, start, len) in intervals {
            let e = e % n;
            schedule.remove_during(EdgeId::new(e), start, start + len);
            naive.push((e, start, start + len));
        }
        for e in 0..n {
            let expected = !naive
                .iter()
                .any(|&(ne, s, end)| ne == e && probe >= s && probe < end);
            prop_assert_eq!(
                schedule.is_present(EdgeId::new(e), probe),
                expected,
                "edge {} at {}", e, probe
            );
        }
    }

    /// The random connected-over-time generator always certifies.
    #[test]
    fn random_cot_always_certifies(
        n in 2usize..10,
        seed in any::<u64>(),
        p in 0.05f64..0.95,
        missing in proptest::option::of(0usize..10),
    ) {
        let ring = RingTopology::new(n).expect("valid ring");
        let horizon = 160;
        let cfg = RandomCotConfig {
            presence_probability: p,
            recurrence_bound: 7,
            eventual_missing: missing.map(|e| (EdgeId::new(e % n), 40)),
        };
        let schedule = generators::random_connected_over_time(&ring, horizon, &cfg, seed)
            .expect("valid config");
        let verdict = classes::certify_connected_over_time(&schedule, horizon, 7);
        match (missing, verdict) {
            (Some(e), CotVerdict::Certified { missing_edge, .. }) => {
                prop_assert_eq!(missing_edge, Some(EdgeId::new(e % n)));
            }
            (None, CotVerdict::Certified { missing_edge, .. }) => {
                prop_assert_eq!(missing_edge, None);
            }
            (_, v) => return Err(TestCaseError::fail(format!("not certified: {v:?}"))),
        }
    }

    /// Foremost arrival times never exceed the static ring distance on an
    /// always-present ring, and equal it exactly.
    #[test]
    fn foremost_arrivals_on_static_ring(
        n in 2usize..24,
        src in 0usize..24,
    ) {
        let src = src % n;
        let ring = RingTopology::new(n).expect("valid ring");
        let g = AlwaysPresent::new(ring.clone());
        let fa = ForemostArrivals::compute(&g, NodeId::new(src), 0, 4 * n as u64);
        for v in ring.nodes() {
            let expected = ring.distance(NodeId::new(src), v) as u64;
            prop_assert_eq!(fa.arrival(v), Some(expected));
        }
    }

    /// Journeys are sound: hops use present edges at strictly increasing
    /// times and trace a path from source to destination.
    #[test]
    fn journeys_are_sound(
        n in 3usize..10,
        seed in any::<u64>(),
        src in 0usize..10,
        dst in 0usize..10,
    ) {
        let src = src % n;
        let dst = dst % n;
        let ring = RingTopology::new(n).expect("valid ring");
        let cfg = RandomCotConfig {
            presence_probability: 0.45,
            recurrence_bound: 6,
            eventual_missing: None,
        };
        let schedule = generators::random_connected_over_time(&ring, 200, &cfg, seed)
            .expect("valid config");
        let fa = ForemostArrivals::compute(&schedule, NodeId::new(src), 0, 200);
        let journey = fa.journey_to(NodeId::new(dst));
        // Connected-over-time with bound 6 over 200 rounds: reachable.
        let journey = journey.expect("destination reachable");
        let mut cursor = NodeId::new(src);
        let mut last: Option<u64> = None;
        for hop in journey.hops() {
            prop_assert!(schedule.is_present(hop.edge, hop.depart));
            if let Some(prev) = last {
                prop_assert!(hop.depart > prev);
            }
            last = Some(hop.depart);
            cursor = ring.traverse(cursor, hop.edge).expect("adjacent");
        }
        prop_assert_eq!(cursor, NodeId::new(dst));
    }

    /// Ring walk/neighbor arithmetic is consistent for arbitrary sizes.
    #[test]
    fn ring_walks_compose(
        n in 2usize..64,
        start in 0usize..64,
        steps_a in 0usize..200,
        steps_b in 0usize..200,
    ) {
        let start = start % n;
        let ring = RingTopology::new(n).expect("valid ring");
        let node = NodeId::new(start);
        for dir in GlobalDir::ALL {
            let two_step = ring.walk(ring.walk(node, dir, steps_a), dir, steps_b);
            let one_step = ring.walk(node, dir, steps_a + steps_b);
            prop_assert_eq!(two_step, one_step);
            // Walking forward then backward returns home.
            prop_assert_eq!(
                ring.walk(ring.walk(node, dir, steps_a), dir.opposite(), steps_a),
                node
            );
        }
    }

    /// `directed_distance` is the inverse of `walk`.
    #[test]
    fn directed_distance_inverts_walk(
        n in 2usize..32,
        start in 0usize..32,
        steps in 0usize..31,
    ) {
        let start = start % n;
        let steps = steps % n;
        let ring = RingTopology::new(n).expect("valid ring");
        let from = NodeId::new(start);
        for dir in GlobalDir::ALL {
            let to = ring.walk(from, dir, steps);
            prop_assert_eq!(ring.directed_distance(from, to, dir), steps);
        }
    }

    /// Interval merging in the removal table is canonical: merging the
    /// same intervals in any order yields the same table.
    #[test]
    fn removal_table_is_order_independent(
        mut intervals in proptest::collection::vec((0u64..40, 1u64..12), 1..8),
    ) {
        use dynring_graph::RemovalTable;
        let e = EdgeId::new(0);
        let mut forward = RemovalTable::new();
        for &(s, len) in &intervals {
            forward.insert(e, TimeInterval::bounded(s, s + len));
        }
        intervals.reverse();
        let mut backward = RemovalTable::new();
        for &(s, len) in &intervals {
            backward.insert(e, TimeInterval::bounded(s, s + len));
        }
        prop_assert_eq!(forward.intervals(e), backward.intervals(e));
    }
}

proptest! {
    /// `edges_at_into` agrees with `edges_at` for every schedule type, at
    /// scripted times and deep into every tail behaviour, regardless of
    /// the scratch buffer's previous universe.
    #[test]
    fn edges_at_into_matches_edges_at(
        n in 2usize..12,
        frames in 1usize..12,
        seed in any::<u64>(),
        p in 0.05f64..0.95,
        stale_universe in 0usize..40,
        probes in proptest::collection::vec(0u64..80, 8),
    ) {
        use dynring_graph::{BernoulliSchedule, Minus, PeriodicSchedule, WithEventualMissing};

        let ring = RingTopology::new(n).expect("valid ring");
        let frame_list: Vec<EdgeSet> = (0..frames)
            .map(|f| {
                let mut set = EdgeSet::empty(n);
                for e in 0..n {
                    if (seed >> ((f * 5 + e) % 64)) & 1 == 1 {
                        set.insert(EdgeId::new(e));
                    }
                }
                set
            })
            .collect();

        // One scratch set reused across all schedules and probes: `reset`
        // must re-target it correctly every time. The snapshot must also
        // agree with a per-edge `is_present` loop — the contract the
        // engine's sparse probe path relies on.
        let mut buf = EdgeSet::empty(stale_universe);
        let mut check = |schedule: &dyn EdgeSchedule| {
            for &t in &probes {
                schedule.edges_at_into(t, &mut buf);
                prop_assert_eq!(&buf, &schedule.edges_at(t), "t = {}", t);
                for e in schedule.ring().edges() {
                    prop_assert_eq!(
                        buf.contains(e),
                        schedule.is_present(e, t),
                        "edge {} at t = {}", e, t
                    );
                }
            }
            Ok(())
        };

        check(&AlwaysPresent::new(ring.clone()))?;
        for tail in [
            TailBehavior::HoldLast,
            TailBehavior::Cycle,
            TailBehavior::AllPresent,
            TailBehavior::AllAbsent,
        ] {
            let scripted = ScriptedSchedule::new(ring.clone(), frame_list.clone(), tail)
                .expect("valid script");
            check(&scripted)?;
        }
        check(&PeriodicSchedule::new(ring.clone(), frame_list.clone()).expect("valid period"))?;
        check(&BernoulliSchedule::new(ring.clone(), p, seed).expect("valid p"))?;

        let mut absences = AbsenceIntervals::new(ring.clone());
        absences.remove_during(EdgeId::new(seed as usize % n), 3, 9);
        absences.remove_from(EdgeId::new((seed >> 8) as usize % n), 30);
        check(&absences)?;

        let mut minus = Minus::new(AlwaysPresent::new(ring.clone()));
        minus.remove(EdgeId::new(seed as usize % n), TimeInterval::bounded(2, 11));
        check(&minus)?;

        check(&WithEventualMissing::new(
            AlwaysPresent::new(ring.clone()),
            EdgeId::new((seed >> 16) as usize % n),
            17,
        ))?;
    }

    /// Word-level `EdgeSet` fills agree with bit-level `insert` loops
    /// (and `as_words` round-trips through `from_words`), across word
    /// boundaries and partial tail words.
    #[test]
    fn word_fills_agree_with_bit_inserts(
        universe in 1usize..200,
        seed in any::<u64>(),
    ) {
        let words_needed = universe.div_ceil(64);
        // A deterministic word stream from the seed.
        let mut state = seed;
        let mut words = Vec::with_capacity(words_needed);
        for _ in 0..words_needed {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            words.push(state);
        }

        let mut bit_level = EdgeSet::empty(universe);
        for i in 0..universe {
            if (words[i / 64] >> (i % 64)) & 1 == 1 {
                bit_level.insert(EdgeId::new(i));
            }
        }

        let from_words = EdgeSet::from_words(universe, &words);
        prop_assert_eq!(&from_words, &bit_level);

        let mut via_set_word = EdgeSet::empty(universe);
        for (index, &w) in words.iter().enumerate() {
            via_set_word.set_word(index, w);
        }
        prop_assert_eq!(&via_set_word, &bit_level);

        // The masked-tail invariant: round-tripping through raw words is
        // lossless and tail bits are zero.
        prop_assert_eq!(EdgeSet::from_words(universe, via_set_word.as_words()), bit_level);
        let tail_bits = universe % 64;
        if tail_bits != 0 {
            let last = *via_set_word.as_words().last().expect("non-empty");
            prop_assert_eq!(last >> tail_bits, 0, "tail bits must be masked");
        }
    }

    /// The masked-tail invariant and the sampled-word surface at
    /// off-word-boundary universes (n % 64 != 0): `from_words`,
    /// `set_word` and `sampled_presence_word` must never leave a stray
    /// tail bit, and fallible presence queries must report — not panic
    /// on — out-of-range edges, for every schedule with word access.
    #[test]
    fn partial_tail_words_and_fallible_queries_are_hardened(
        n_index in 0usize..3,
        seed in any::<u64>(),
        p in 0.0f64..1.0,
        t in 0u64..5000,
        beyond in 0usize..100,
    ) {
        use dynring_graph::{BernoulliReplicas, BernoulliSchedule, GraphError};

        let n = [63usize, 65, 127][n_index];
        let ring = RingTopology::new(n).expect("valid ring");
        let tail_bits = n % 64;
        let last_word = n / 64;

        // set_word / from_words with all-ones input: the tail must be
        // masked, len must equal the universe, and the canonical forms
        // must agree.
        let words = vec![u64::MAX; n.div_ceil(64)];
        let filled = EdgeSet::from_words(n, &words);
        prop_assert!(filled.is_full());
        prop_assert_eq!(filled.as_words()[last_word] >> tail_bits, 0);
        let mut via_set_word = EdgeSet::empty(n);
        for w in 0..words.len() {
            via_set_word.set_word(w, u64::MAX);
        }
        prop_assert_eq!(&via_set_word, &filled);
        prop_assert_eq!(via_set_word.len(), n);

        // Sampled-word extraction: bit-for-bit the snapshot word, tail
        // masked, at every word index including the partial last one.
        let schedule = BernoulliSchedule::new(ring.clone(), p, seed).expect("valid p");
        let snapshot = schedule.edges_at(t);
        for w in 0..snapshot.word_count() {
            let sampled = schedule.sampled_presence_word(t, w);
            prop_assert_eq!(sampled, Some(snapshot.as_words()[w]), "word {}", w);
        }
        prop_assert_eq!(
            schedule.sampled_presence_word(t, last_word).expect("word access") >> tail_bits,
            0,
            "stray tail bit in the sampled word"
        );

        // try_is_present: in-range edges answer the stream, out-of-range
        // edges return the error (never panic) — through the direct
        // impls and the forwarding ones.
        let foreign = EdgeId::new(n + beyond);
        prop_assert_eq!(
            schedule.try_is_present(EdgeId::new(n - 1), t),
            Ok(schedule.is_present(EdgeId::new(n - 1), t))
        );
        let direct_err = matches!(
            schedule.try_is_present(foreign, t),
            Err(GraphError::EdgeOutOfRange { .. })
        );
        prop_assert!(direct_err, "foreign edge must report EdgeOutOfRange");
        fn via_forwarding<S: EdgeSchedule>(
            s: S,
            e: EdgeId,
            t: u64,
        ) -> Result<bool, GraphError> {
            s.try_is_present(e, t)
        }
        let forwarded_err = matches!(
            via_forwarding(&schedule, foreign, t),
            Err(GraphError::EdgeOutOfRange { .. })
        );
        prop_assert!(forwarded_err, "forwarding impl must report EdgeOutOfRange");

        let replicas = BernoulliReplicas::new(ring.clone(), p, seed).expect("valid p");
        let lane = replicas.lane((seed % 64) as u32);
        prop_assert_eq!(
            lane.try_is_present(EdgeId::new(n - 1), t),
            Ok((replicas.presence_word(EdgeId::new(n - 1), t) >> lane.lane()) & 1 == 1)
        );
        let lane_err = matches!(
            lane.try_is_present(foreign, t),
            Err(GraphError::EdgeOutOfRange { .. })
        );
        prop_assert!(lane_err, "lane schedule must report EdgeOutOfRange");

        let boxed: Box<dyn EdgeSchedule> = Box::new(schedule);
        let boxed_err = matches!(
            boxed.try_is_present(foreign, t),
            Err(GraphError::EdgeOutOfRange { .. })
        );
        prop_assert!(boxed_err, "boxed schedule must report EdgeOutOfRange");
    }

    /// Across seeds, the word-parallel bit-sliced stream hits rate p
    /// within a chi-square tolerance (one-cell χ² against the binomial,
    /// critical value 20.25 ≈ |z| < 4.5, tail mass ~7·10⁻⁶ per sample),
    /// for p ∈ {0.1, 0.5, 0.9}. The comparison with the per-edge reference
    /// stream lives beside that stream, in `schedule.rs`'s unit tests.
    #[test]
    fn bit_sliced_sampling_rate_passes_chi_square(
        seed in any::<u64>(),
        p_index in 0usize..3,
    ) {
        use dynring_graph::BernoulliSchedule;

        let p = [0.1f64, 0.5, 0.9][p_index];
        let ring = RingTopology::new(192).expect("valid ring");
        let schedule = BernoulliSchedule::new(ring.clone(), p, seed).expect("valid p");
        let horizon = 120u64;
        let samples = (ring.edge_count() as u64 * horizon) as f64;

        let mut hits = 0u64;
        let mut frame = EdgeSet::empty(0);
        for t in 0..horizon {
            schedule.edges_at_into(t, &mut frame);
            hits += frame.len() as u64;
        }

        // Quantization shifts the word sampler's true rate by ≤ 2^-17;
        // widen the expected count accordingly before the χ² statistic.
        let quantization = samples / (1u64 << 17) as f64;
        let expected = samples * p;
        let deviation = ((hits as f64 - expected).abs() - quantization).max(0.0);
        let chi_square = deviation * deviation / (samples * p * (1.0 - p));
        prop_assert!(
            chi_square < 20.25,
            "word stream: {} hits of {} (p = {}), chi^2 = {}",
            hits, samples, p, chi_square
        );
    }
}
