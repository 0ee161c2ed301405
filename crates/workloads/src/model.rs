//! Workload cost models — the paper's Table I applications.
//!
//! | Application | Input | # Maps | # Reduces            |
//! |-------------|-------|--------|----------------------|
//! | sort        | 24 GB | 384    | 0.9 × AvailSlots     |
//! | word count  | 20 GB | 320    | 20                   |
//!
//! plus `sleep`, which replays the measured map/reduce durations of
//! another workload while moving (almost) no data — the paper uses it to
//! isolate scheduling effects from data management (§VI-A).
//!
//! Compute costs are calibrated so that, on an idle simulated cluster
//! with local I/O only, per-task times land near the paper's Table II
//! profile (sort map ≈ 21 s, word-count map ≈ 100–113 s).

use rand::Rng;
use rand_distr::{Distribution, Normal};
use simkit::SimDuration;

/// Mibibytes → bytes.
pub const MB: u64 = 1 << 20;
/// Gibibytes → bytes.
pub const GB: u64 = 1 << 30;

/// A distribution of task compute durations.
#[derive(Debug, Clone)]
pub enum DurationModel {
    /// Always exactly this long.
    Fixed(SimDuration),
    /// Normal with the given mean and coefficient of variation, truncated
    /// below at `min`.
    Normal {
        /// Mean duration.
        mean: SimDuration,
        /// σ/μ.
        cv: f64,
        /// Truncation floor.
        min: SimDuration,
    },
}

impl DurationModel {
    /// A Normal model with 15 % variation and a floor of a tenth of the
    /// mean (typical task-time spread on a homogeneous cluster).
    pub fn around(mean: SimDuration) -> Self {
        DurationModel::Normal {
            mean,
            cv: 0.15,
            min: mean / 10,
        }
    }

    /// Sample one duration.
    pub fn sample<R: Rng>(&self, rng: &mut R) -> SimDuration {
        match *self {
            DurationModel::Fixed(d) => d,
            DurationModel::Normal { mean, cv, min } => {
                let mu = mean.as_secs_f64();
                let sigma = (cv * mu).max(f64::EPSILON);
                let normal = Normal::new(mu, sigma).expect("valid Normal");
                let d = normal.sample(rng).max(min.as_secs_f64());
                SimDuration::from_secs_f64(d)
            }
        }
    }

    /// The model's mean.
    pub fn mean(&self) -> SimDuration {
        match *self {
            DurationModel::Fixed(d) => d,
            DurationModel::Normal { mean, .. } => mean,
        }
    }
}

/// How a workload sizes its reduce wave.
#[derive(Debug, Clone, Copy)]
pub enum ReduceCount {
    /// A fixed number of reduce tasks.
    Fixed(u32),
    /// A fraction of the cluster's available reduce slots at submit time
    /// (the paper's `0.9 × AvailSlots` for sort).
    SlotsFraction(f64),
}

impl ReduceCount {
    /// Resolve against the submit-time available reduce slots.
    pub fn resolve(self, available_slots: u32) -> u32 {
        match self {
            ReduceCount::Fixed(n) => n,
            ReduceCount::SlotsFraction(f) => ((available_slots as f64) * f).floor().max(1.0) as u32,
        }
    }
}

/// Complete description of a modeled MapReduce workload.
#[derive(Debug, Clone)]
pub struct WorkloadSpec {
    /// Human-readable name ("sort", "word count", "sleep").
    pub name: String,
    /// Total input size in bytes.
    pub input_bytes: u64,
    /// Number of map tasks (= input splits).
    pub n_maps: u32,
    /// Reduce sizing rule.
    pub reduces: ReduceCount,
    /// Per-map compute time (excludes simulated I/O).
    pub map_cpu: DurationModel,
    /// Bytes of intermediate output per map task.
    pub map_output_bytes: u64,
    /// Per-reduce compute time (excludes shuffle and output write).
    pub reduce_cpu: DurationModel,
    /// Total job output bytes (split evenly across reduces).
    pub output_bytes: u64,
}

impl WorkloadSpec {
    /// Input split (block) size.
    pub fn split_bytes(&self) -> u64 {
        self.input_bytes / self.n_maps as u64
    }

    /// Bytes one reduce fetches from one map's output.
    pub fn shuffle_bytes_per_pair(&self, n_reduces: u32) -> u64 {
        self.map_output_bytes / n_reduces.max(1) as u64
    }

    /// Output bytes per reduce task.
    pub fn output_bytes_per_reduce(&self, n_reduces: u32) -> u64 {
        self.output_bytes / n_reduces.max(1) as u64
    }
}

/// The paper's Table I workloads.
pub mod paper {
    use super::*;

    /// `sort`: 24 GB input, 384 maps, 0.9 × available reduce slots.
    /// Intermediate and output volumes equal the input (a sort shuffles
    /// everything). Map compute calibrated so VO-V1 map time ≈ 21 s.
    pub fn sort() -> WorkloadSpec {
        WorkloadSpec {
            name: "sort".into(),
            input_bytes: 24 * GB,
            n_maps: 384,
            reduces: ReduceCount::SlotsFraction(0.9),
            map_cpu: DurationModel::around(SimDuration::from_secs(18)),
            map_output_bytes: 64 * MB,
            reduce_cpu: DurationModel::around(SimDuration::from_secs(20)),
            output_bytes: 24 * GB,
        }
    }

    /// `word count`: 20 GB input, 320 maps, 20 reduces. Compute-bound
    /// maps (≈ 100 s), tiny intermediate data (aggressive combiner).
    pub fn word_count() -> WorkloadSpec {
        WorkloadSpec {
            name: "word count".into(),
            input_bytes: 20 * GB,
            n_maps: 320,
            reduces: ReduceCount::Fixed(20),
            map_cpu: DurationModel::around(SimDuration::from_secs(98)),
            map_output_bytes: 3 * MB,
            reduce_cpu: DurationModel::around(SimDuration::from_secs(22)),
            output_bytes: 512 * MB,
        }
    }

    /// `sleep`: replays the given map/reduce means with negligible data —
    /// two integers per intermediate record and zero output (§VI-A).
    pub fn sleep(
        base: &WorkloadSpec,
        map_mean: SimDuration,
        reduce_mean: SimDuration,
    ) -> WorkloadSpec {
        WorkloadSpec {
            name: format!("sleep({})", base.name),
            input_bytes: base.n_maps as u64 * 1024, // negligible input
            n_maps: base.n_maps,
            reduces: base.reduces,
            map_cpu: DurationModel::around(map_mean),
            map_output_bytes: 16 * 1024,
            reduce_cpu: DurationModel::around(reduce_mean),
            output_bytes: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn table_i_constants() {
        let s = paper::sort();
        assert_eq!(s.input_bytes, 24 * GB);
        assert_eq!(s.n_maps, 384);
        assert_eq!(s.split_bytes(), 64 * MB);
        assert!(matches!(s.reduces, ReduceCount::SlotsFraction(f) if (f - 0.9).abs() < 1e-12));
        let w = paper::word_count();
        assert_eq!(w.input_bytes, 20 * GB);
        assert_eq!(w.n_maps, 320);
        assert!(matches!(w.reduces, ReduceCount::Fixed(20)));
        assert_eq!(w.split_bytes(), 64 * MB);
    }

    #[test]
    fn reduce_count_resolution() {
        // Paper note: Hadoop default 2 reduce slots/node → 60 nodes = 120
        // slots → sort gets 108 reduces.
        assert_eq!(ReduceCount::SlotsFraction(0.9).resolve(120), 108);
        assert_eq!(ReduceCount::Fixed(20).resolve(120), 20);
        assert_eq!(ReduceCount::SlotsFraction(0.9).resolve(0), 1, "floor of 1");
    }

    #[test]
    fn duration_sampling_respects_floor_and_mean() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let m = DurationModel::around(SimDuration::from_secs(100));
        let mut total = 0.0;
        for _ in 0..2000 {
            let d = m.sample(&mut rng);
            assert!(d >= SimDuration::from_secs(10));
            total += d.as_secs_f64();
        }
        let mean = total / 2000.0;
        assert!((mean - 100.0).abs() < 2.0, "sampled mean {mean}");
    }

    #[test]
    fn fixed_model_is_exact() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let m = DurationModel::Fixed(SimDuration::from_secs(7));
        assert_eq!(m.sample(&mut rng), SimDuration::from_secs(7));
        assert_eq!(m.mean(), SimDuration::from_secs(7));
    }

    #[test]
    fn shuffle_and_output_partitioning() {
        let s = paper::sort();
        assert_eq!(s.shuffle_bytes_per_pair(108), 64 * MB / 108);
        assert_eq!(s.output_bytes_per_reduce(108), 24 * GB / 108);
    }

    #[test]
    fn sleep_inherits_shape() {
        let base = paper::sort();
        let sl = paper::sleep(
            &base,
            SimDuration::from_secs(40),
            SimDuration::from_secs(80),
        );
        assert_eq!(sl.n_maps, 384);
        assert_eq!(sl.map_cpu.mean(), SimDuration::from_secs(40));
        assert_eq!(sl.output_bytes, 0);
        assert!(sl.map_output_bytes < MB, "sleep moves negligible data");
    }
}
