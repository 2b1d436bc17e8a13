//! Write a small measured atlas where `inano-serve --atlas` can load it:
//! `Scenario::test`'s day-0 atlas, codec-encoded, to the one path given.
//!
//! Run with: `cargo run --release --example write_atlas -- world.atlas`,
//! then serve it with `inano-serve --atlas world.atlas`.

use inano::atlas::codec;
use inano_bench::{Scenario, ScenarioConfig};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [path] = args.as_slice() else {
        eprintln!("usage: write_atlas FILE");
        std::process::exit(2);
    };
    let world = Scenario::build(ScenarioConfig::test(5));
    let (bytes, _) = codec::encode(&world.atlas);
    std::fs::write(path, &bytes).unwrap_or_else(|e| panic!("write {path}: {e}"));
    println!(
        "wrote {path}: day {}, {} bytes",
        world.atlas.day,
        bytes.len()
    );
}
