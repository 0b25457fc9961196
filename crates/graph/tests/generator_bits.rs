//! Generator bit pins: FNV-1a digests of the frame words each generator
//! produced before the generators became frame streams.
//!
//! Every stored campaign record over generated dynamics depends on these
//! bits, so the collected scripts (over the horizon and over their tail)
//! and the streams themselves (over the horizon) must reproduce them
//! exactly, not merely agree with each other.

use dynring_graph::generators::{self, FrameStream, RandomCotConfig, RecurrenceRepair};
use dynring_graph::{EdgeId, EdgeSchedule, EdgeSet, RingTopology, ScriptedSchedule, Time};

const HORIZON: Time = 500;

/// `(generator, n, seed, digest of frames 0..500, digest of frames 500..1000)`.
#[rustfmt::skip]
const PINS: &[(&str, usize, u64, u64, u64)] = &[
    ("cot",         16, 0xb,      0x4c8737f601a12053, 0x4c8737f601a12053),
    ("cot-missing", 16, 0xb,      0xd7441740e59cb993, 0xa96da0a5f5b220ed),
    ("markov",      16, 0xb,      0xf5968622d80c154c, 0x40be965a1a0b6add),
    ("t-interval",  16, 0xb,      0xe2829519a6123e6b, 0x40be965a1a0b6add),
    ("sweeping",    16, 0xb,      0x23746318b597bed6, 0xee4c420ef3a32d30),
    ("cot",         16, 0xc0ffee, 0x16f9221bc701bef3, 0x16f9221bc701bef3),
    ("cot-missing", 16, 0xc0ffee, 0xf1f16b4776805d13, 0xa96da0a5f5b220ed),
    ("markov",      16, 0xc0ffee, 0x081fdbc9f5a29e9d, 0x40be965a1a0b6add),
    ("t-interval",  16, 0xc0ffee, 0x9935056a57d3565a, 0x40be965a1a0b6add),
    ("sweeping",    16, 0xc0ffee, 0x23746318b597bed6, 0xee4c420ef3a32d30),
    ("cot",         65, 0xb,      0xa84142a28efbb4e6, 0xa84142a28efbb4e6),
    ("cot-missing", 65, 0xb,      0x6a5cd242dfc3f48e, 0xc81a3672b1178fa5),
    ("markov",      65, 0xb,      0x85bd8a26b439ff3e, 0x3af811f96f73fc05),
    ("t-interval",  65, 0xb,      0x7525cf364730b123, 0x3af811f96f73fc05),
    ("sweeping",    65, 0xb,      0x945adf417eaa3c46, 0x4c3b00efe3bf2527),
    ("cot",         65, 0xc0ffee, 0x4451a0d564155ce9, 0x4451a0d564155ce9),
    ("cot-missing", 65, 0xc0ffee, 0x2187df427a5a6819, 0xc81a3672b1178fa5),
    ("markov",      65, 0xc0ffee, 0xabcd61939de1f882, 0x3af811f96f73fc05),
    ("t-interval",  65, 0xc0ffee, 0x5958bcb6665ba04b, 0x3af811f96f73fc05),
    ("sweeping",    65, 0xc0ffee, 0x945adf417eaa3c46, 0x4c3b00efe3bf2527),
];

/// FNV-1a over the little-endian bytes of every frame's words.
fn digest(frames: impl IntoIterator<Item = EdgeSet>) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for frame in frames {
        for word in frame.as_words() {
            for byte in word.to_le_bytes() {
                hash ^= u64::from(byte);
                hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    hash
}

fn script_digest(script: &ScriptedSchedule, from: Time, to: Time) -> u64 {
    digest((from..to).map(|t| script.edges_at(t)))
}

fn stream_digest(mut stream: impl FrameStream, horizon: Time) -> u64 {
    digest((0..horizon).map(|_| {
        let mut frame = EdgeSet::empty_for(stream.ring());
        stream.next_frame(&mut frame);
        frame
    }))
}

fn cot_config(missing: bool) -> RandomCotConfig {
    RandomCotConfig {
        presence_probability: 0.4,
        recurrence_bound: 6,
        eventual_missing: missing.then_some((EdgeId::new(3), 100)),
    }
}

/// A stream repaired online: the form of Markov + repair the scenario
/// dynamics play.
struct Repaired<S>(S, RecurrenceRepair);

impl<S: FrameStream> FrameStream for Repaired<S> {
    fn ring(&self) -> &RingTopology {
        self.0.ring()
    }

    fn next_frame(&mut self, out: &mut EdgeSet) {
        self.0.next_frame(out);
        self.1.apply(out);
    }
}

#[test]
fn scripts_and_streams_reproduce_the_pinned_generator_bits() {
    for &(name, n, seed, head, tail) in PINS {
        let ring = RingTopology::new(n).expect("valid ring");
        let (script, streamed) = match name {
            "cot" | "cot-missing" => {
                let cfg = cot_config(name == "cot-missing");
                let script = generators::random_connected_over_time(&ring, HORIZON, &cfg, seed)
                    .expect("valid config");
                let stream =
                    generators::random_cot_stream(&ring, &cfg, seed).expect("valid config");
                (script, Some(stream_digest(stream, HORIZON)))
            }
            "markov" => {
                let raw = generators::markov_on_off(&ring, HORIZON, 0.3, 0.2, seed)
                    .expect("valid probabilities");
                let script = generators::enforce_recurrence(&raw, HORIZON, 16, None);
                let stream = Repaired(
                    generators::markov_stream(&ring, 0.3, 0.2, seed).expect("valid probabilities"),
                    RecurrenceRepair::new(ring.edge_count(), 16, None),
                );
                (script, Some(stream_digest(stream, HORIZON)))
            }
            "t-interval" => (
                generators::t_interval_connected(&ring, HORIZON, 3, seed),
                Some(stream_digest(
                    generators::t_interval_stream(&ring, 3, seed),
                    HORIZON,
                )),
            ),
            "sweeping" => (generators::sweeping_outage(&ring, 3), None),
            other => unreachable!("unknown generator {other}"),
        };
        let label = format!("{name} n={n} seed={seed:#x}");
        assert_eq!(
            script_digest(&script, 0, HORIZON),
            head,
            "{label}: script frames drifted"
        );
        assert_eq!(
            script_digest(&script, HORIZON, 2 * HORIZON),
            tail,
            "{label}: script tail drifted"
        );
        if let Some(streamed) = streamed {
            assert_eq!(
                streamed, head,
                "{label}: stream drifted from the pinned frames"
            );
        }
    }
}
