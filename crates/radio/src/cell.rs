//! Cell tiers and per-cell state.

use crate::channels::ChannelPool;
use mtnet_mobility::Point;
use mtnet_net::NodeId;
use std::fmt;

/// Identifier of a cell (and its base station) in a
/// [`CellMap`](crate::CellMap).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct CellId(pub u32);

impl fmt::Display for CellId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cell{}", self.0)
    }
}

/// The four tiers of the paper's Fig 2.1 multi-tier hierarchy.
///
/// Default radii, rates and channel counts follow the 3G-era multi-tier
/// literature the paper cites: pico cells cover a building floor at high
/// rate, satellite covers everything at low rate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CellKind {
    /// In-building coverage (~50 m).
    Pico,
    /// Urban street coverage (~300 m).
    Micro,
    /// Suburban umbrella coverage (~2 km).
    Macro,
    /// LEO/GEO satellite footprint (effectively global here).
    Satellite,
}

impl CellKind {
    /// All tiers, ordered smallest to largest footprint.
    pub const ALL: [CellKind; 4] = [
        CellKind::Pico,
        CellKind::Micro,
        CellKind::Macro,
        CellKind::Satellite,
    ];

    /// Nominal coverage radius in meters.
    pub fn radius_m(self) -> f64 {
        match self {
            CellKind::Pico => 50.0,
            CellKind::Micro => 300.0,
            CellKind::Macro => 2_000.0,
            CellKind::Satellite => 500_000.0,
        }
    }

    /// Base-station transmit power in dBm (EIRP for the satellite).
    pub fn tx_power_dbm(self) -> f64 {
        match self {
            CellKind::Pico => 20.0,
            CellKind::Micro => 30.0,
            CellKind::Macro => 43.0,
            CellKind::Satellite => 68.0,
        }
    }

    /// Transmitter altitude above the ground plane, in meters. Terrestrial
    /// BS heights are negligible against cell radii; the LEO satellite's
    /// 800 km altitude dominates its slant range everywhere inside the
    /// footprint (so received power is nearly uniform across it).
    pub fn altitude_m(self) -> f64 {
        match self {
            CellKind::Pico | CellKind::Micro | CellKind::Macro => 0.0,
            CellKind::Satellite => 800_000.0,
        }
    }

    /// Per-user downlink data rate in bits per second.
    pub fn data_rate_bps(self) -> u64 {
        match self {
            CellKind::Pico => 2_000_000,
            CellKind::Micro => 768_000,
            CellKind::Macro => 144_000,
            CellKind::Satellite => 32_000,
        }
    }

    /// Number of traffic channels at one base station.
    pub fn channels(self) -> u32 {
        match self {
            CellKind::Pico => 16,
            CellKind::Micro => 32,
            CellKind::Macro => 64,
            CellKind::Satellite => 240,
        }
    }

    /// Tier-specific path-loss exponent. Macro (and satellite)
    /// transmitters sit above clutter and see near-free-space propagation;
    /// micro cells are below rooftops, pico cells behind indoor walls —
    /// the COST-231-style distinction that makes the nominal footprints
    /// radio-consistent (a macro cell must actually be hearable across its
    /// 2 km radius).
    pub fn path_loss_exponent(self) -> f64 {
        match self {
            CellKind::Pico => 4.0,
            CellKind::Micro => 3.5,
            CellKind::Macro => 2.8,
            CellKind::Satellite => 2.0,
        }
    }

    /// Channels reserved for handoff calls (guard channels).
    pub fn guard_channels(self) -> u32 {
        match self {
            CellKind::Pico => 2,
            CellKind::Micro => 4,
            CellKind::Macro => 8,
            CellKind::Satellite => 16,
        }
    }

    /// Parses the stable textual label used by scenario-spec files and
    /// sweep axes (the same strings [`CellKind`]'s `Display` renders).
    pub fn parse_label(label: &str) -> Option<CellKind> {
        match label {
            "pico" => Some(CellKind::Pico),
            "micro" => Some(CellKind::Micro),
            "macro" => Some(CellKind::Macro),
            "satellite" => Some(CellKind::Satellite),
            _ => None,
        }
    }
}

impl fmt::Display for CellKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CellKind::Pico => "pico",
            CellKind::Micro => "micro",
            CellKind::Macro => "macro",
            CellKind::Satellite => "satellite",
        };
        f.write_str(s)
    }
}

/// One cell: a base station with a position, tier and channel pool.
#[derive(Debug, Clone)]
pub struct Cell {
    id: CellId,
    kind: CellKind,
    center: Point,
    /// Never read back (worlds keep their own dense cell → node table).
    /// It goes once the benchmark's `setup_s` no longer moves with the
    /// size of what a world allocates (ROADMAP item 8).
    #[allow(dead_code)]
    bs_node: NodeId,
    channels: ChannelPool,
}

impl Cell {
    /// Creates a cell with tier-default channel counts.
    pub fn new(id: CellId, kind: CellKind, center: Point, bs_node: NodeId) -> Self {
        Cell {
            id,
            kind,
            center,
            bs_node,
            channels: ChannelPool::new(kind.channels(), kind.guard_channels()),
        }
    }

    /// This cell's id.
    pub fn id(&self) -> CellId {
        self.id
    }

    /// This cell's tier.
    pub fn kind(&self) -> CellKind {
        self.kind
    }

    /// Base-station position.
    pub fn center(&self) -> Point {
        self.center
    }

    /// Nominal radius for this cell's tier.
    pub fn radius_m(&self) -> f64 {
        self.kind.radius_m()
    }

    /// Mutable channel pool.
    pub fn channels_mut(&mut self) -> &mut ChannelPool {
        &mut self.channels
    }

    /// Fraction of channels currently free, in `[0, 1]` — the "resources of
    /// BS" factor of the paper's handoff decision (§3.2).
    pub fn free_resource_ratio(&self) -> f64 {
        self.channels.free_ratio()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tier_parameters_monotone() {
        // Footprint grows with tier; per-user rate shrinks.
        let radii: Vec<f64> = CellKind::ALL.iter().map(|k| k.radius_m()).collect();
        assert!(radii.windows(2).all(|w| w[0] < w[1]));
        let rates: Vec<u64> = CellKind::ALL.iter().map(|k| k.data_rate_bps()).collect();
        assert!(rates.windows(2).all(|w| w[0] > w[1]));
        let powers: Vec<f64> = CellKind::ALL.iter().map(|k| k.tx_power_dbm()).collect();
        assert!(powers.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn guard_channels_below_total() {
        for k in CellKind::ALL {
            assert!(k.guard_channels() < k.channels());
        }
    }

    #[test]
    fn coverage_geometry() {
        let c = Cell::new(CellId(0), CellKind::Micro, Point::new(0.0, 0.0), NodeId(5));
        assert_eq!(c.radius_m(), 300.0);
        assert_eq!(c.bs_node, NodeId(5));
        assert_eq!(c.kind(), CellKind::Micro);
        assert_eq!(c.id(), CellId(0));
        assert_eq!(c.center(), Point::new(0.0, 0.0));
    }

    #[test]
    fn fresh_cell_fully_free() {
        let c = Cell::new(CellId(1), CellKind::Pico, Point::new(0.0, 0.0), NodeId(0));
        assert_eq!(c.free_resource_ratio(), 1.0);
    }

    #[test]
    fn display_names() {
        assert_eq!(CellKind::Micro.to_string(), "micro");
        assert_eq!(CellId(3).to_string(), "cell3");
    }
}
