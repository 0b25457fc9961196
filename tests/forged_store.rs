//! A store line forged with a number JSON cannot hold — `"p":5e400`,
//! which overflows an `f64` — is an unparseable line, refused by every
//! store reader the way any other damaged interior line is: `certify`
//! prints a `CERTIFY-FAIL unit=- field=parse` line, `campaign report` and
//! `campaign resume` print one `STORE-CORRUPT … reason=unparseable-json`
//! line, and each exits 1. Before the tokenizer refused non-finite
//! numbers, the line parsed with `p = inf` and every reader panicked
//! re-hashing its unit.

use std::path::PathBuf;
use std::process::{Command, Output};

use dynring_campaign::{CampaignError, ResultStore};

/// Four units; the first is a Bernoulli unit with `"p":0.5`.
const SPEC: &str = r#"{
  "name": "forged",
  "ring_sizes": [4],
  "robots": [1],
  "placements": ["EvenlySpaced"],
  "algorithms": ["Pef3Plus"],
  "dynamics": [{ "Bernoulli": { "p": 0.5 } }, "Static"],
  "schedulers": ["Sync"],
  "seeds": [1, 2],
  "horizon": 50,
  "replicas": 2
}"#;

fn dynring(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_dynring")).args(args).output().expect("binary spawns")
}

/// Exit code 1 and no panic; stdout and stderr together.
fn refused(args: &[&str]) -> String {
    let output = dynring(args);
    let text = format!(
        "{}{}",
        String::from_utf8_lossy(&output.stdout),
        String::from_utf8_lossy(&output.stderr)
    );
    assert_eq!(output.status.code(), Some(1), "dynring {args:?}:\n{text}");
    assert!(!text.contains("panicked"), "dynring {args:?}:\n{text}");
    text
}

#[test]
fn an_overflowing_float_fails_every_store_reader_instead_of_crashing_it() {
    let dir = std::env::temp_dir().join("dynring_forged_store");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    let spec: PathBuf = dir.join("spec.json");
    let store: PathBuf = dir.join("store.jsonl");
    std::fs::write(&spec, SPEC).expect("spec written");
    let (spec, store_str) = (spec.to_str().expect("utf-8"), store.to_str().expect("utf-8"));
    let run = dynring(&["campaign", "run", "--spec", spec, "--store", store_str]);
    assert!(run.status.success(), "{}", String::from_utf8_lossy(&run.stderr));

    let text = std::fs::read_to_string(&store).expect("store readable");
    let first = text.find(r#""p":0.5"#).expect("the first record names p");
    assert_eq!(text[..first].matches('\n').count(), 1, "the first p is on line 2");
    std::fs::write(&store, text.replacen(r#""p":0.5"#, r#""p":5e400"#, 1)).expect("forged");

    let loaded = ResultStore::new(&store).load().expect_err("the forged line is refused");
    let CampaignError::CorruptStore(msg) = &loaded else {
        panic!("unexpected {loaded:?}");
    };
    assert!(msg.starts_with("STORE-CORRUPT line=2 offset="), "{msg}");
    assert!(msg.contains("reason=unparseable-json"), "{msg}");

    let certify = refused(&["certify", store_str, "--spec", spec]);
    assert!(certify.contains("CERTIFY-FAIL unit=- field=parse"), "{certify}");
    for verb in ["report", "resume"] {
        let out = refused(&["campaign", verb, "--spec", spec, "--store", store_str]);
        assert!(out.contains("STORE-CORRUPT line=2 offset="), "{verb}: {out}");
        assert!(out.contains("reason=unparseable-json"), "{verb}: {out}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
