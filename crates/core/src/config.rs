//! Predictor configuration: each of iNano's techniques can be switched
//! independently, giving the ablation ladder of Figure 5.

/// Latency assumed for a link whose latency was never inferred, in ms.
pub const DEFAULT_LINK_LATENCY_MS: f64 = 1.0;

/// Which model the predictor runs: the Figure-5 ladder's switches, the
/// 3-tuple check's degree threshold (swept by `abl_tuple_threshold`),
/// and whether reversed links are searched. A link with no inferred
/// latency costs [`DEFAULT_LINK_LATENCY_MS`] under every configuration.
#[derive(Clone, Debug, PartialEq)]
pub struct PredictorConfig {
    /// Use the `FROM_SRC` plane of end-host-observed links with one-way
    /// cross edges into `TO_DST` (§4.3.1, "Addressing asymmetry").
    pub use_from_src: bool,
    /// Use the valley-free up/down construction from inferred AS
    /// relationships, searched in three preference phases (§4.2 — the
    /// GRAPH baseline). Mutually exclusive with `use_tuples` in spirit:
    /// the 3-tuple check *replaces* the valley-free check (§4.3.2).
    pub use_rel_graph: bool,
    /// Enforce the observed AS 3-tuple check on every AS triple whose
    /// middle AS has degree above `tuple_min_degree` (§4.3.2).
    pub use_tuples: bool,
    /// Break equal-length ties with observed AS preferences (§4.3.3).
    pub use_prefs: bool,
    /// Require the final AS before the destination AS to be one of the
    /// destination's observed providers (§4.3.4).
    pub use_providers: bool,
    /// Degree threshold for the 3-tuple check (5 in the paper).
    pub tuple_min_degree: u32,
    /// Allow traversing links against their observed direction (needed to
    /// answer reverse queries out of unmeasured stubs; reversed hops are
    /// deprioritised and tuple-checked without the low-degree exemption).
    pub allow_reversed_links: bool,
}

impl Default for PredictorConfig {
    fn default() -> Self {
        PredictorConfig::full()
    }
}

impl PredictorConfig {
    /// The GRAPH baseline of §4.2: textbook routing over inferred
    /// relationships, no asymmetry planes.
    pub fn graph() -> Self {
        PredictorConfig {
            use_from_src: false,
            use_rel_graph: true,
            use_tuples: false,
            use_prefs: false,
            use_providers: false,
            tuple_min_degree: 5,
            allow_reversed_links: true,
        }
    }

    /// GRAPH + the FROM_SRC plane (first rung of the §4.3 ladder).
    pub fn graph_asym() -> Self {
        PredictorConfig {
            use_from_src: true,
            ..PredictorConfig::graph()
        }
    }

    /// Asymmetry + 3-tuple check replacing the valley-free construction.
    pub fn with_tuples() -> Self {
        PredictorConfig {
            use_from_src: true,
            use_rel_graph: false,
            use_tuples: true,
            use_prefs: false,
            use_providers: false,
            tuple_min_degree: 5,
            allow_reversed_links: true,
        }
    }

    /// ... + observed AS preferences.
    pub fn with_prefs() -> Self {
        PredictorConfig {
            use_prefs: true,
            ..PredictorConfig::with_tuples()
        }
    }

    /// The full iNano model: asymmetry + tuples + preferences + providers.
    pub fn full() -> Self {
        PredictorConfig {
            use_providers: true,
            ..PredictorConfig::with_prefs()
        }
    }

    /// The Figure-5 ablation ladder, in order, with display names.
    pub fn ladder() -> Vec<(&'static str, PredictorConfig)> {
        vec![
            ("GRAPH", PredictorConfig::graph()),
            ("+asymmetry", PredictorConfig::graph_asym()),
            ("+3-tuples", PredictorConfig::with_tuples()),
            ("+preferences", PredictorConfig::with_prefs()),
            ("+providers (iNano)", PredictorConfig::full()),
        ]
    }

    /// Number of plane layers (1 or 2).
    pub fn n_planes(&self) -> usize {
        if self.use_from_src {
            2
        } else {
            1
        }
    }

    /// Number of up/down side layers (1 or 2).
    pub fn n_sides(&self) -> usize {
        if self.use_rel_graph {
            2
        } else {
            1
        }
    }

    /// Number of search phases.
    pub fn n_phases(&self) -> u8 {
        if self.use_rel_graph {
            3
        } else {
            1
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_is_monotone_in_features() {
        let l = PredictorConfig::ladder();
        assert_eq!(l.len(), 5);
        assert!(l[0].1.use_rel_graph && !l[0].1.use_from_src);
        assert!(l[1].1.use_from_src && l[1].1.use_rel_graph);
        assert!(l[2].1.use_tuples && !l[2].1.use_rel_graph);
        assert!(l[3].1.use_prefs);
        assert!(l[4].1.use_providers);
    }

    #[test]
    fn layer_counts() {
        assert_eq!(PredictorConfig::graph().n_planes(), 1);
        assert_eq!(PredictorConfig::graph().n_sides(), 2);
        assert_eq!(PredictorConfig::graph().n_phases(), 3);
        assert_eq!(PredictorConfig::full().n_planes(), 2);
        assert_eq!(PredictorConfig::full().n_sides(), 1);
        assert_eq!(PredictorConfig::full().n_phases(), 1);
    }

    #[test]
    fn default_is_full() {
        assert_eq!(PredictorConfig::default(), PredictorConfig::full());
    }
}
