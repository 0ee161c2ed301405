//! Core identifiers and descriptors shared by the file system (and reused
//! by the MapReduce layer).

use std::fmt;

/// A machine in the cluster. Node ids are dense (0..n) and stable for the
/// lifetime of a simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// MOON's hybrid architecture distinguishes two resource classes (§III).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NodeClass {
    /// Well-maintained, always-on machine (unavailability ≈ 0.001).
    Dedicated,
    /// Volunteer PC that leaves when its owner returns.
    Volatile,
}

/// A fixed-size chunk of a file (HDFS block equivalent).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlockId(pub u64);

impl fmt::Display for BlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b{}", self.0)
    }
}

/// A file in the MOON file system namespace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FileId(pub u64);

impl fmt::Display for FileId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "f{}", self.0)
    }
}

/// MOON's two file categories (§IV-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FileKind {
    /// "Data that cannot be lost under any circumstances"; always keeps at
    /// least one dedicated replica. Input and job system data.
    Reliable,
    /// Transient data tolerant of some unavailability; dedicated replicas
    /// are best-effort. Intermediate data, and output data until the job
    /// commits.
    Opportunistic,
}

/// MOON's two-dimensional replication factor `{d, v}` (§IV-A): the number
/// of replicas on dedicated and volatile DataNodes respectively.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ReplicationFactor {
    /// Replicas required on dedicated nodes.
    pub dedicated: u32,
    /// Replicas required on volatile nodes.
    pub volatile: u32,
}

impl ReplicationFactor {
    /// Shorthand constructor: `{d, v}` exactly as written in the paper.
    pub const fn new(dedicated: u32, volatile: u32) -> Self {
        ReplicationFactor {
            dedicated,
            volatile,
        }
    }

    /// A Hadoop-style uniform factor: no dedicated awareness, `n` copies
    /// anywhere (represented as volatile-only).
    pub const fn uniform(n: u32) -> Self {
        ReplicationFactor {
            dedicated: 0,
            volatile: n,
        }
    }

    /// Total copies requested.
    pub const fn total(self) -> u32 {
        self.dedicated + self.volatile
    }
}

impl fmt::Display for ReplicationFactor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{{},{}}}", self.dedicated, self.volatile)
    }
}

/// Liveness state of a DataNode as tracked by the NameNode (§IV-C).
///
/// MOON inserts *Hibernate* between alive and dead: a hibernated node
/// receives no I/O requests (avoiding client timeouts) but its data is not
/// yet re-replicated wholesale (avoiding replication thrashing).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NodeLiveness {
    /// Heartbeats arriving normally.
    Active,
    /// No heartbeat for `NodeHibernateInterval`; likely a transient outage.
    Hibernated,
    /// No heartbeat for `NodeExpiryInterval`; treated as lost.
    Dead,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replication_factor_display_matches_paper_notation() {
        assert_eq!(ReplicationFactor::new(1, 3).to_string(), "{1,3}");
        assert_eq!(ReplicationFactor::uniform(6).to_string(), "{0,6}");
    }

    #[test]
    fn totals() {
        assert_eq!(ReplicationFactor::new(1, 3).total(), 4);
        assert_eq!(ReplicationFactor::uniform(6).total(), 6);
    }

    #[test]
    fn ids_are_ordered_and_displayable() {
        assert!(BlockId(1) < BlockId(2));
        assert_eq!(NodeId(7).to_string(), "n7");
        assert_eq!(FileId(3).to_string(), "f3");
        assert_eq!(BlockId(9).to_string(), "b9");
    }
}
