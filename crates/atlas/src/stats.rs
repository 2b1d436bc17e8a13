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

/// Compute the full-atlas side of Table 2.
pub fn atlas_stats(atlas: &Atlas) -> Vec<DatasetStat> {
    let (_, sizes) = encode(atlas);
    let s = |sec: Section| sizes.sizes[sec as usize];
    vec![
        DatasetStat {
            name: "Inter-cluster links with latencies",
            entries: atlas.links.len(),
            bytes: s(Section::Links),
            delta_entries: 0,
            delta_bytes: 0,
        },
        DatasetStat {
            name: "Link loss rates",
            entries: atlas.loss.len(),
            bytes: s(Section::Loss),
            delta_entries: 0,
            delta_bytes: 0,
        },
        DatasetStat {
            name: "Prefix to cluster",
            entries: atlas.prefix_cluster.len(),
            bytes: s(Section::PrefixCluster),
            delta_entries: 0,
            delta_bytes: 0,
        },
        DatasetStat {
            name: "Prefix to AS",
            entries: atlas.prefix_as.len(),
            bytes: s(Section::PrefixAs),
            delta_entries: 0,
            delta_bytes: 0,
        },
        DatasetStat {
            name: "AS degrees",
            entries: atlas.as_degree.len(),
            bytes: s(Section::AsDegrees),
            delta_entries: 0,
            delta_bytes: 0,
        },
        DatasetStat {
            name: "AS three-tuples",
            entries: atlas.tuples.len(),
            bytes: s(Section::Tuples),
            delta_entries: 0,
            delta_bytes: 0,
        },
        DatasetStat {
            name: "AS preferences",
            entries: atlas.prefs.len(),
            bytes: s(Section::Prefs),
            delta_entries: 0,
            delta_bytes: 0,
        },
        DatasetStat {
            name: "Provider mappings",
            entries: atlas.providers.len() + atlas.prefix_providers.len(),
            bytes: s(Section::Providers),
            delta_entries: 0,
            delta_bytes: 0,
        },
    ]
}

/// Fill in the delta columns of Table 2 (only links, loss and tuples are
/// shipped daily; other datasets show 0, as in the paper).
pub fn delta_stats(stats: &mut [DatasetStat], delta: &AtlasDelta) {
    let (_, sizes) = delta.encode();
    let (le, se, te) = delta.entry_counts();
    for st in stats.iter_mut() {
        match st.name {
            "Inter-cluster links with latencies" => {
                st.delta_entries = le;
                st.delta_bytes = sizes[0];
            }
            "Link loss rates" => {
                st.delta_entries = se;
                st.delta_bytes = sizes[1];
            }
            "AS three-tuples" => {
                st.delta_entries = te;
                st.delta_bytes = sizes[2];
            }
            _ => {}
        }
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
