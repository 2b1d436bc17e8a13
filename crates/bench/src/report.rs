//! Report formatting: the paper-style text each figure bin prints to
//! stdout.

use inano_model::stats::Ecdf;

/// Format an ECDF as "value fraction" rows at the given percentile grid —
/// the text analogue of the paper's CDF figures.
pub fn cdf_rows(label: &str, e: &Ecdf) -> String {
    let mut out = format!("# CDF: {label} (n={})\n", e.len());
    if e.is_empty() {
        out.push_str("(no samples)\n");
        return out;
    }
    for q in [0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99] {
        out.push_str(&format!(
            "  p{:<4} {:>10.3}\n",
            (q * 100.0) as u32,
            e.quantile(q)
        ));
    }
    out
}

/// Percent formatting helper.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}
