//! Robot identity (for the observer), placement and snapshots.

use std::fmt;

use serde::{Deserialize, Serialize};

use dynring_graph::{GlobalDir, NodeId};

use crate::{Chirality, LocalDir};

/// An observer-side robot identifier.
///
/// Robots themselves are anonymous — identifiers never reach an
/// [`crate::Algorithm`]; they exist so traces, adversaries and checkers can
/// talk about "robot `r1`".
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[serde(transparent)]
pub struct RobotId(u32);

impl RobotId {
    /// Creates a robot identifier from its index.
    pub fn new(index: usize) -> Self {
        RobotId(u32::try_from(index).expect("robot index exceeds u32"))
    }

    /// Returns the index as `usize`.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for RobotId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// Initial conditions of one robot.
///
/// The paper's default initialization is `dir = left`; chirality is an
/// arbitrary per-robot constant (robots share no common sense of
/// direction), so experiments may assign it freely.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct RobotPlacement {
    /// Starting node.
    pub node: NodeId,
    /// The robot's fixed chirality.
    pub chirality: Chirality,
    /// Initial direction variable (the paper uses `left`).
    pub initial_dir: LocalDir,
}

impl RobotPlacement {
    /// Places a robot at `node` with standard chirality and the paper's
    /// initial direction (`left`).
    pub fn at(node: NodeId) -> Self {
        RobotPlacement {
            node,
            chirality: Chirality::Standard,
            initial_dir: LocalDir::Left,
        }
    }

    /// Returns the placement with the given chirality.
    pub fn with_chirality(mut self, chirality: Chirality) -> Self {
        self.chirality = chirality;
        self
    }

    /// Returns the placement with the given initial direction.
    pub fn with_dir(mut self, dir: LocalDir) -> Self {
        self.initial_dir = dir;
        self
    }

    /// The initial *global* direction this placement points to.
    pub fn initial_global_dir(&self) -> GlobalDir {
        self.chirality.to_global(self.initial_dir)
    }
}

/// Observer-side snapshot of one robot inside a configuration `γ_t`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct RobotSnapshot {
    /// Which robot.
    pub id: RobotId,
    /// Current node.
    pub node: NodeId,
    /// The robot's fixed chirality.
    pub chirality: Chirality,
    /// Current direction variable (local frame).
    pub dir: LocalDir,
    /// Whether the robot's last Move crossed an edge. Under FSYNC that is
    /// the previous round. Under SSYNC a robot that sat the previous round
    /// out keeps the flag of its last activation (as [`crate::Robot`]
    /// does); under ASYNC the flag is the result of its last Move phase.
    pub moved_last_round: bool,
}

impl RobotSnapshot {
    /// The global direction the robot currently points to.
    pub fn global_dir(&self) -> GlobalDir {
        self.chirality.to_global(self.dir)
    }
}

impl fmt::Display for RobotSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}@{}→{}",
            self.id,
            self.node,
            self.global_dir()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn placement_builder() {
        let p = RobotPlacement::at(NodeId::new(2))
            .with_chirality(Chirality::Mirrored)
            .with_dir(LocalDir::Right);
        assert_eq!(p.node, NodeId::new(2));
        assert_eq!(p.chirality, Chirality::Mirrored);
        assert_eq!(p.initial_dir, LocalDir::Right);
        assert_eq!(p.initial_global_dir(), GlobalDir::CounterClockwise);
    }

    #[test]
    fn default_placement_matches_paper() {
        let p = RobotPlacement::at(NodeId::new(0));
        assert_eq!(p.initial_dir, LocalDir::Left);
        // Standard chirality: left = counter-clockwise.
        assert_eq!(p.initial_global_dir(), GlobalDir::CounterClockwise);
    }

    #[test]
    fn snapshot_global_dir() {
        let snap = RobotSnapshot {
            id: RobotId::new(1),
            node: NodeId::new(3),
            chirality: Chirality::Mirrored,
            dir: LocalDir::Left,
            moved_last_round: false,
        };
        assert_eq!(snap.global_dir(), GlobalDir::Clockwise);
        assert_eq!(snap.to_string(), "r1@v3→cw");
    }

    #[test]
    fn robot_id_display() {
        assert_eq!(RobotId::new(4).to_string(), "r4");
        assert_eq!(RobotId::new(4).index(), 4);
    }
}
