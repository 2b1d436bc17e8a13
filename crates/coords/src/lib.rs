//! # inano-coords
//!
//! The Vivaldi network-coordinate baseline (\[13\] in the paper): each node
//! holds a 2-D Euclidean coordinate plus a height (modelling the access
//! link), refined by adaptive spring relaxation against measured RTTs.
//! The RTT between two nodes is then estimated as the coordinate
//! distance.
//!
//! This is design alternative **A1** of Table 1: fully decentralised and
//! tiny, but latency-only, symmetric by construction, and blind to
//! structure — exactly the properties Figures 6, 7 and 9 contrast iNano
//! against.

pub mod vivaldi;

pub use vivaldi::{Coordinate, VivaldiConfig, VivaldiSystem};
