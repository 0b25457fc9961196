//! Unit hashes, store lines and ledger lines are written by the direct
//! JSON writer behind `serde_json::to_string` and read back by the direct
//! reader behind `serde_json::from_str`. On random campaign values —
//! every variant, any finite float, integers of every magnitude, names
//! that need escaping — the writer must write exactly the bytes the Value
//! path (`to_value`, then rendering the tree) writes, and both readers
//! must decode them to the same value. On those bytes damaged the way a
//! torn or forged store line is — truncated, a byte flipped, a key
//! repeated, whitespace inserted — the direct reader must accept exactly
//! when the tree path (parse to a `Value`, then `from_value`) does, and
//! decode the same value.

use std::fmt::Debug;

use proptest::prelude::*;
use serde::{DeserializeOwned, Serialize, Value};

use dynring_analysis::{AlgorithmChoice, PlacementSpec};
use dynring_campaign::spec::fnv1a64;
use dynring_campaign::{
    ChainedRecord, Event, EventRecord, StoreFooter, StoreHeader, StoreLine, UnitDynamics,
    UnitMeasurement, UnitRecord, UnitScheduler, WorkUnit,
};
use dynring_engine::{Chirality, LocalDir, RobotPlacement};
use dynring_graph::NodeId;

/// A splitmix64 stream: one proptest seed draws a whole value.
struct Draw(u64);

impl Draw {
    fn bits(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: u64) -> u64 {
        self.bits() % bound
    }

    /// An integer of a random magnitude: 0 and `u64::MAX` both occur.
    fn int(&mut self) -> u64 {
        let shift = self.below(65);
        self.bits().checked_shr(shift as u32).unwrap_or(0)
    }

    fn size(&mut self) -> usize {
        usize::try_from(self.int()).unwrap_or(usize::MAX)
    }

    fn flag(&mut self) -> bool {
        self.bits() & 1 == 1
    }

    /// Any finite float: subnormals, negatives and huge exponents too.
    fn float(&mut self) -> f64 {
        match self.below(3) {
            0 => self.below(1001) as f64 / 1000.0,
            _ => loop {
                let x = f64::from_bits(self.bits());
                if x.is_finite() {
                    break x;
                }
            },
        }
    }

    fn maybe<T>(&mut self, value: impl FnOnce(&mut Self) -> T) -> Option<T> {
        self.flag().then(|| value(self))
    }

    /// Text drawn from characters JSON must escape, and ones it must not.
    fn text(&mut self) -> String {
        const CHARS: &[char] = &[
            'a', 'Z', '0', ' ', '-', '|', ':', '{', '/', '"', '\\', '\n', '\r', '\t', '\u{8}',
            '\u{c}', '\u{0}', '\u{1}', '\u{1f}', '\u{7f}', 'é', '漢', '🦀',
        ];
        let len = self.below(12);
        (0..len).map(|_| CHARS[self.below(CHARS.len() as u64) as usize]).collect()
    }
}

fn placement(d: &mut Draw) -> PlacementSpec {
    match d.below(3) {
        0 => PlacementSpec::EvenlySpaced { count: d.size() },
        1 => PlacementSpec::Adjacent { count: d.size(), start: d.size() },
        _ => PlacementSpec::Explicit(
            (0..d.below(4))
                .map(|_| RobotPlacement {
                    node: NodeId::new(d.below(1 << 32) as usize),
                    chirality: if d.flag() { Chirality::Mirrored } else { Chirality::Standard },
                    initial_dir: if d.flag() { LocalDir::Right } else { LocalDir::Left },
                })
                .collect(),
        ),
    }
}

fn algorithm(d: &mut Draw) -> AlgorithmChoice {
    match d.below(8) {
        0 => AlgorithmChoice::Pef3Plus,
        1 => AlgorithmChoice::Pef2,
        2 => AlgorithmChoice::Pef1,
        3 => AlgorithmChoice::KeepDirection,
        4 => AlgorithmChoice::BounceOnMissingEdge,
        5 => AlgorithmChoice::AlwaysTurnOnTower,
        6 => AlgorithmChoice::AlternateDirection,
        _ => AlgorithmChoice::RandomDirection { seed: d.int() },
    }
}

fn dynamics(d: &mut Draw) -> UnitDynamics {
    match d.below(10) {
        0 => UnitDynamics::Bernoulli { p: d.float() },
        1 => UnitDynamics::Static,
        2 => UnitDynamics::BernoulliRecurrent { p: d.float(), bound: d.int() },
        3 => UnitDynamics::Markov { p_off: d.float(), p_on: d.float() },
        4 => UnitDynamics::SweepingOutage { dwell: d.int() },
        5 => UnitDynamics::TIntervalConnected { stability: d.int() },
        6 => UnitDynamics::PointedBlocker { budget: d.int() },
        7 => UnitDynamics::SingleConfiner,
        8 => UnitDynamics::TwoConfiner { patience: d.int() },
        _ => UnitDynamics::SsyncBlocker,
    }
}

fn unit(d: &mut Draw) -> WorkUnit {
    WorkUnit {
        ring_size: d.size(),
        robots: d.size(),
        placement: placement(d),
        algorithm: algorithm(d),
        dynamics: dynamics(d),
        scheduler: [UnitScheduler::Sync, UnitScheduler::Ssync, UnitScheduler::Async]
            [d.below(3) as usize],
        horizon: d.int(),
        seed: d.int(),
        replicas: d.size(),
    }
}

fn record(d: &mut Draw) -> UnitRecord {
    UnitRecord {
        hash: d.text(),
        index: d.size(),
        route: d.text(),
        unit: unit(d),
        result: UnitMeasurement {
            replicas: d.size(),
            covered: d.size(),
            total_cover_time: d.int(),
            min_cover_time: d.maybe(Draw::int),
            max_cover_time: d.maybe(Draw::int),
        },
    }
}

fn store_line(d: &mut Draw) -> StoreLine {
    match d.below(4) {
        0 => StoreLine::Header(StoreHeader {
            name: d.text(),
            spec_hash: d.text(),
            planned_units: d.size(),
        }),
        1 => StoreLine::Chained(ChainedRecord {
            record: record(d),
            digest: d.text(),
            chain: d.text(),
        }),
        2 => StoreLine::Chained(ChainedRecord::next(&d.text(), record(d))),
        _ => StoreLine::Seal(StoreFooter {
            schema: d.text(),
            engine: d.text(),
            spec_hash: d.text(),
            planned_units: d.size(),
            units: d.size(),
            chain_head: d.text(),
            seal: d.text(),
        }),
    }
}

fn event(d: &mut Draw) -> Event {
    match d.below(11) {
        0 => Event::RunStart {
            schema: d.text(),
            name: d.text(),
            spec_hash: d.text(),
            planned: d.size(),
            skipped: d.size(),
        },
        1 => Event::Unit {
            hash: d.text(),
            index: d.size(),
            algorithm: d.text(),
            dynamics: d.text(),
            scheduler: d.text(),
            route: d.text(),
            arity: d.int(),
            replicas: d.size(),
            covered: d.size(),
            replica_rounds: d.int(),
            wall_us: d.int(),
            fill: d.maybe(Draw::text),
        },
        2 => Event::Wave { units: d.size(), wall_us: d.int() },
        3 => Event::RunEnd { executed: d.size(), pending: d.size() },
        4 => Event::Spawn { shard: d.size(), attempt: d.size() },
        5 => Event::Stall { shard: d.size() },
        6 => Event::Retry {
            shard: d.size(),
            attempt: d.size(),
            reason: d.text(),
            backoff_ms: d.int(),
        },
        7 => Event::Steal {
            shard: d.size(),
            reason: d.text(),
            done: d.size(),
            remaining: d.size(),
            pieces: d.size(),
            attempts: d.maybe(Draw::size),
            first_child: d.maybe(Draw::size),
        },
        8 => Event::Quarantine {
            shard: d.size(),
            attempts: d.size(),
            reason: d.text(),
            start: d.size(),
            units: d.size(),
        },
        9 => Event::Merge { shards: d.size(), merged: d.size(), sealed: d.flag() },
        _ => Event::TornTail { bytes: d.int() },
    }
}

/// The tree path: parse the text into a `Value`, then decode the value.
fn via_value<T: DeserializeOwned>(text: &str) -> Result<T, serde_json::Error> {
    serde_json::from_value(serde_json::from_str::<Value>(text)?)
}

/// `value` is written as the Value path writes it and reads back as
/// itself on both paths.
fn same_bytes<T>(value: &T) -> TestCaseResult
where
    T: Serialize + DeserializeOwned + PartialEq + Debug,
{
    let direct = serde_json::to_string(value).expect("finite values serialize");
    let tree = serde_json::to_value(value).expect("values build");
    prop_assert_eq!(&direct, &serde_json::to_string(&tree).expect("trees render"));
    let back: T = serde_json::from_str(&direct).expect("written JSON parses");
    prop_assert_eq!(&back, value);
    let back: T = via_value(&direct).expect("written JSON parses on the tree path");
    prop_assert_eq!(&back, value);
    Ok(())
}

/// `text` damaged one way, chosen by `d`: cut short, one ASCII byte
/// flipped to another, an object's first key repeated, or whitespace
/// inserted.
fn mutate(d: &mut Draw, text: &str) -> String {
    let bytes = text.as_bytes();
    let at = d.below(bytes.len() as u64 + 1) as usize;
    match d.below(4) {
        0 => String::from_utf8_lossy(&bytes[..at]).into_owned(),
        1 => {
            let mut out = bytes.to_vec();
            if let Some(b) = out.get_mut(at).filter(|b| b.is_ascii()) {
                *b ^= 1 + d.below(0x7f) as u8;
            }
            String::from_utf8(out).expect("an ASCII flip keeps UTF-8")
        }
        2 => {
            // Repeat the first `"key":` of a random object, with a
            // value drawn from text that is valid JSON of some kind.
            let opens: Vec<usize> = text.match_indices("{\"").map(|(i, _)| i).collect();
            let Some(&open) = opens.get(d.below(opens.len().max(1) as u64) as usize) else {
                return text.to_string();
            };
            let key_end = text[open..].find("\":").map_or(text.len(), |i| open + i + 2);
            let value = ["0", "null", "\"x\"", "[]", "{}", "-1.5", "true"][d.below(7) as usize];
            format!("{}{}{value},{}", &text[..=open], &text[open + 1..key_end], &text[open + 1..])
        }
        _ => {
            let space = [" ", "\t", "\n", "\r", "  \n "][d.below(5) as usize];
            let at = (0..=at).rev().find(|&i| text.is_char_boundary(i)).unwrap_or(0);
            format!("{}{space}{}", &text[..at], &text[at..])
        }
    }
}

/// Both readers accept `text` or both refuse it, and agree on the value.
fn same_verdict<T: DeserializeOwned + PartialEq + Debug>(text: &str) -> TestCaseResult {
    let direct = serde_json::from_str::<T>(text);
    let tree = via_value::<T>(text);
    prop_assert_eq!(direct.is_ok(), tree.is_ok(), "{:?}: {:?} vs {:?}", text, direct, tree);
    if let (Ok(direct), Ok(tree)) = (direct, tree) {
        prop_assert_eq!(direct, tree);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn direct_json_is_the_value_paths_bytes(seed in any::<u64>()) {
        let mut d = Draw(seed);
        let unit = unit(&mut d);
        same_bytes(&unit)?;
        // The unit hash hashes exactly those bytes.
        let tree = serde_json::to_string(&serde_json::to_value(&unit).expect("builds")).expect("renders");
        prop_assert_eq!(unit.content_hash(), format!("{:016x}", fnv1a64(tree.as_bytes())));
        same_bytes(&record(&mut d))?;
        same_bytes(&store_line(&mut d))?;
        same_bytes(&event(&mut d))?;
        same_bytes(&EventRecord { t_ms: d.int(), event: event(&mut d) })?;
    }

    #[test]
    fn the_direct_reader_accepts_damaged_lines_exactly_when_the_tree_path_does(seed in any::<u64>()) {
        let mut d = Draw(seed);
        let line = serde_json::to_string(&store_line(&mut d)).expect("writes");
        for _ in 0..4 {
            same_verdict::<StoreLine>(&mutate(&mut d, &line))?;
        }
        let event = serde_json::to_string(&EventRecord { t_ms: d.int(), event: event(&mut d) })
            .expect("writes");
        same_verdict::<EventRecord>(&mutate(&mut d, &event))?;
        let unit = serde_json::to_string(&unit(&mut d)).expect("writes");
        same_verdict::<WorkUnit>(&mutate(&mut d, &unit))?;
    }
}
