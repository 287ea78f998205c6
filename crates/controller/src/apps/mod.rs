//! Built-in controller applications.

pub mod l2_routing;

pub use l2_routing::L2RoutingApp;
