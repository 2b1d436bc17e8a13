//! Table-2 accounting: entries and encoded bytes per dataset, for the
//! full atlas and for a daily delta.

use crate::codec::{encode, Section};
use crate::datasets::Atlas;
use crate::delta::AtlasDelta;

/// One row of Table 2.
#[derive(Clone, Debug)]
pub struct DatasetStat {
    pub name: &'static str,
    pub entries: usize,
    pub bytes: usize,
    pub delta_entries: usize,
    pub delta_bytes: usize,
}

/// Table 2's dataset names, in [`Section`] order.
const NAMES: [&str; 8] = [
    "Inter-cluster links with latencies",
    "Link loss rates",
    "Prefix to cluster",
    "Prefix to AS",
    "AS degrees",
    "AS three-tuples",
    "AS preferences",
    "Provider mappings",
];

/// Compute the full-atlas side of Table 2: one row per [`Section`], in
/// its order.
pub fn atlas_stats(atlas: &Atlas) -> Vec<DatasetStat> {
    let (_, sizes) = encode(atlas);
    let entries = [
        atlas.links.len(),
        atlas.loss.len(),
        atlas.prefix_cluster.len(),
        atlas.prefix_as.len(),
        atlas.as_degree.len(),
        atlas.tuples.len(),
        atlas.prefs.len(),
        atlas.providers.len() + atlas.prefix_providers.len(),
    ];
    NAMES
        .into_iter()
        .zip(entries)
        .zip(sizes.sizes)
        .map(|((name, entries), bytes)| DatasetStat {
            name,
            entries,
            bytes,
            delta_entries: 0,
            delta_bytes: 0,
        })
        .collect()
}

/// Fill in the delta columns of Table 2 (only links, loss and tuples are
/// shipped daily; other datasets show 0, as in the paper). `stats` is
/// what [`atlas_stats`] returned.
pub fn delta_stats(stats: &mut [DatasetStat], delta: &AtlasDelta) {
    let (_, sizes) = delta.encode();
    let (links, loss, tuples) = delta.entry_counts();
    let shipped = [
        (Section::Links, links),
        (Section::Loss, loss),
        (Section::Tuples, tuples),
    ];
    for ((section, entries), bytes) in shipped.into_iter().zip(sizes) {
        let st = &mut stats[section as usize];
        st.delta_entries = entries;
        st.delta_bytes = bytes;
    }
}

/// Render the stats as a Table-2-style text table.
pub fn render_table(stats: &[DatasetStat]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<38} {:>10} {:>12} {:>10} {:>12}\n",
        "Dataset", "Entries", "Bytes", "ΔEntries", "ΔBytes"
    ));
    let mut te = 0;
    let mut tb = 0;
    let mut tde = 0;
    let mut tdb = 0;
    for s in stats {
        out.push_str(&format!(
            "{:<38} {:>10} {:>12} {:>10} {:>12}\n",
            s.name, s.entries, s.bytes, s.delta_entries, s.delta_bytes
        ));
        te += s.entries;
        tb += s.bytes;
        tde += s.delta_entries;
        tdb += s.delta_bytes;
    }
    out.push_str(&format!(
        "{:<38} {:>10} {:>12} {:>10} {:>12}\n",
        "Total", te, tb, tde, tdb
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets::{LinkAnnotation, Plane};
    use inano_model::{Asn, ClusterId, LatencyMs};

    fn small_atlas(day: u32, n: u32) -> Atlas {
        let mut a = Atlas {
            day,
            ..Atlas::default()
        };
        for i in 0..n {
            a.links.insert(
                (ClusterId::new(i), ClusterId::new(i + 1)),
                LinkAnnotation {
                    latency: Some(LatencyMs::new(1.0)),
                    plane: Plane::TO_DST,
                },
            );
            a.cluster_as.insert(ClusterId::new(i), Asn::new(i / 2));
        }
        a
    }

    #[test]
    fn stats_count_entries_and_bytes() {
        let a = small_atlas(0, 50);
        let stats = atlas_stats(&a);
        assert_eq!(stats[0].entries, 50);
        assert!(stats[0].bytes > 50, "links need >1 byte each");
        // Empty datasets cost only their length header.
        assert!(stats[6].bytes <= 2);
    }

    #[test]
    fn delta_columns_filled() {
        let a = small_atlas(0, 20);
        let b = small_atlas(1, 25);
        let d = AtlasDelta::between(&a, &b);
        let mut stats = atlas_stats(&b);
        delta_stats(&mut stats, &d);
        assert!(stats[0].delta_entries > 0);
        assert!(stats[0].delta_bytes > 0);
        // Prefix datasets never appear in deltas.
        assert_eq!(stats[2].delta_bytes, 0);
    }

    #[test]
    fn render_contains_total() {
        let stats = atlas_stats(&small_atlas(0, 5));
        let table = render_table(&stats);
        assert!(table.contains("Total"));
        assert!(table.contains("AS three-tuples"));
    }

    #[test]
    fn delta_much_smaller_than_full_for_small_change() {
        let a = small_atlas(0, 500);
        let mut b = small_atlas(1, 500);
        // Change a handful of links only.
        b.links.insert(
            (ClusterId::new(1000), ClusterId::new(1001)),
            LinkAnnotation {
                latency: None,
                plane: Plane::FROM_SRC,
            },
        );
        let d = AtlasDelta::between(&a, &b);
        let (full, _) = crate::codec::encode(&b);
        let (dbytes, _) = d.encode();
        assert!(
            dbytes.len() * 5 < full.len(),
            "delta {} vs full {}",
            dbytes.len(),
            full.len()
        );
    }
}
