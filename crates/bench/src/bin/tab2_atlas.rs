//! Table 2: size of iNano's atlas — entries and encoded bytes per
//! dataset, plus the delta to the next day's atlas.
//!
//! Paper (absolute numbers at their 140K-prefix scale): 309K links /
//! 1.99MB, 47K loss / 0.21MB, 140K prefix→cluster / 0.76MB, 287K
//! prefix→AS / 1.67MB, 28K degrees / 0.09MB, 1.05M tuples / 1.23MB, 9K
//! prefs / 0.03MB, 33K providers / 0.63MB; total 6.61MB, delta 1.34MB.
//! Our topology is smaller, so the *ratios* are the comparison target.

use inano_atlas::{atlas_stats, delta_stats, stats::render_table, AtlasDelta};
use inano_bench::{refuse_args, Scenario, ScenarioConfig};
use inano_paths::PathAtlas;

fn main() {
    refuse_args();
    let sc = Scenario::build(ScenarioConfig::experiment(42));
    eprintln!("scenario: {}", sc.summary());

    // Next day's atlas for the delta column.
    let (_, atlas1) = sc.atlas_for_day(1);
    let delta = AtlasDelta::between(&sc.atlas, &atlas1);

    let mut stats = atlas_stats(&sc.atlas);
    delta_stats(&mut stats, &delta);

    let mut text = String::from("== Table 2: size of iNano's atlas ==\n");
    text.push_str(&render_table(&stats));

    let (full_bytes, _) = inano_atlas::codec::encode(&sc.atlas);
    let (delta_bytes, _) = delta.encode();
    text.push_str(&format!(
        "\nfull atlas: {:.2} KB; daily delta: {:.2} KB ({:.0}% of full; paper: ~20%)\n",
        full_bytes.len() as f64 / 1e3,
        delta_bytes.len() as f64 / 1e3,
        100.0 * delta_bytes.len() as f64 / full_bytes.len() as f64,
    ));

    // The headline comparison: link atlas vs iPlane-style path atlas.
    let pa = PathAtlas::build(&sc.net, &sc.clustering, &sc.day0);
    let (path_entries, path_bytes) = pa.storage_size();
    text.push_str(&format!(
        "iPlane-style path atlas from the same measurements: {} hop entries, {:.2} KB \
         ({:.1}x the link atlas; paper: ~2-3 orders of magnitude at full scale)\n",
        path_entries,
        path_bytes as f64 / 1e3,
        path_bytes as f64 / full_bytes.len() as f64,
    ));

    println!("{text}");
}
