//! Geography: a flat 2-D plane measured in kilometres, with continents as
//! widely separated cluster centres and cities scattered around them.
//!
//! Link propagation delay is derived from great-circle (here: Euclidean)
//! distance at the speed of light in fibre (~200 000 km/s), which is the
//! standard first-order model; the paper's link latencies likewise capture
//! propagation but not queueing ("our link latencies do not capture
//! transmission and queueing delays", §6.2).

use inano_model::rng::DeterministicRng;
use inano_model::LatencyMs;
use rand::Rng;

/// A point on the plane, in kilometres.
#[derive(Clone, Copy, Debug, PartialEq, Default)]
pub struct GeoPoint {
    pub x: f64,
    pub y: f64,
}

impl GeoPoint {
    pub fn new(x: f64, y: f64) -> Self {
        GeoPoint { x, y }
    }

    /// Euclidean distance in km.
    pub fn distance_km(self, other: GeoPoint) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        (dx * dx + dy * dy).sqrt()
    }
}

/// Propagation speed in fibre, km per millisecond.
pub const FIBRE_KM_PER_MS: f64 = 200.0;

/// Fixed per-hop forwarding cost added to every link (serialisation,
/// switching), in milliseconds.
pub const HOP_COST_MS: f64 = 0.3;

/// One-way link latency for a span of `km` kilometres. Real fibre paths
/// are never straight lines; `path_stretch` (~1.3) accounts for that.
pub fn link_latency(km: f64) -> LatencyMs {
    const PATH_STRETCH: f64 = 1.3;
    LatencyMs::new(km * PATH_STRETCH / FIBRE_KM_PER_MS + HOP_COST_MS)
}

/// A city: a geographic location where PoPs can be placed. Two PoPs in the
/// same city are *colocated* and can be cheaply interconnected.
#[derive(Clone, Copy, Debug)]
pub struct City {
    pub id: u32,
    pub continent: u8,
    pub loc: GeoPoint,
}

/// Generate the world: `continents` cluster centres placed on a large
/// circle, each with `cities_per_continent` cities scattered around it.
pub fn generate_world(
    continents: usize,
    cities_per_continent: usize,
    rng: &mut DeterministicRng,
) -> Vec<City> {
    assert!(continents > 0 && continents <= 32, "1..=32 continents");
    // Inter-continent scale: centres on a circle of radius 7000 km, so
    // neighbouring continents are ~5000-13000 km apart (trans-oceanic
    // RTTs in the 50-150 ms range, like the real Internet).
    let radius = 7000.0;
    let mut cities = Vec::with_capacity(continents * cities_per_continent);
    for c in 0..continents {
        let angle = (c as f64) / (continents as f64) * std::f64::consts::TAU;
        let centre = GeoPoint::new(radius * angle.cos(), radius * angle.sin());
        for _ in 0..cities_per_continent {
            // Scatter cities with ~1200 km std-dev: intra-continent
            // distances of a few hundred to ~4000 km.
            let dx: f64 = rng.gen_range(-1.0..1.0) + rng.gen_range(-1.0..1.0);
            let dy: f64 = rng.gen_range(-1.0..1.0) + rng.gen_range(-1.0..1.0);
            let loc = GeoPoint::new(centre.x + dx * 1200.0, centre.y + dy * 1200.0);
            cities.push(City {
                id: cities.len() as u32,
                continent: c as u8,
                loc,
            });
        }
    }
    cities
}

#[cfg(test)]
mod tests {
    use super::*;
    use inano_model::rng::rng_for;

    #[test]
    fn distance_is_symmetric_and_zero_on_self() {
        let a = GeoPoint::new(0.0, 0.0);
        let b = GeoPoint::new(3.0, 4.0);
        assert_eq!(a.distance_km(b), 5.0);
        assert_eq!(b.distance_km(a), 5.0);
        assert_eq!(a.distance_km(a), 0.0);
    }

    #[test]
    fn latency_scales_with_distance() {
        let near = link_latency(10.0);
        let far = link_latency(6000.0);
        assert!(near.ms() < 1.0, "metro link should be sub-ms-ish: {near}");
        assert!(
            far.ms() > 30.0 && far.ms() < 60.0,
            "transcontinental: {far}"
        );
    }

    #[test]
    fn world_has_expected_shape() {
        let mut rng = rng_for(1, "world");
        let cities = generate_world(5, 30, &mut rng);
        assert_eq!(cities.len(), 150);
        // Cities of the same continent are near each other, different
        // continents far apart (on average).
        let same: Vec<f64> = cities
            .iter()
            .filter(|c| c.continent == 0)
            .flat_map(|a| {
                cities
                    .iter()
                    .filter(|c| c.continent == 0 && c.id != a.id)
                    .map(move |b| a.loc.distance_km(b.loc))
            })
            .collect();
        let cross: Vec<f64> = cities
            .iter()
            .filter(|c| c.continent == 0)
            .flat_map(|a| {
                cities
                    .iter()
                    .filter(|c| c.continent == 2)
                    .map(move |b| a.loc.distance_km(b.loc))
            })
            .collect();
        let avg = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        assert!(avg(&same) * 2.0 < avg(&cross), "continents must separate");
    }

    #[test]
    fn world_is_deterministic() {
        let a = generate_world(3, 10, &mut rng_for(7, "w"));
        let b = generate_world(3, 10, &mut rng_for(7, "w"));
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.loc, y.loc);
        }
    }
}
