//! Workload inputs: drive frames ray-cast from a seeded urban world.
//!
//! Input generation is neither timed nor counted as set-up: it stands
//! for the sensor, not for the program under test.

use kd_bonsai::geom::{Point3, Pose};
use kd_bonsai::lidar::{DrivingSequence, SequenceConfig};

/// The drive is sampled as `SEGMENTS` stretches of `SEGMENT_FRAMES`
/// consecutive 10 Hz frames, spread along the road so that one run
/// averages over several neighbourhoods of the seeded world.
pub const SEGMENTS: usize = 25;
pub const SEGMENT_FRAMES: usize = 5;
/// Frames between segment starts (19 s of driving).
pub const SEGMENT_SPACING: usize = 190;

/// The paper's 10 Hz drive through the world of `seed`.
pub fn drive_config(seed: u64) -> SequenceConfig {
    let mut cfg = SequenceConfig::paper_drive();
    cfg.world.seed = seed;
    cfg
}

/// Ray-casts `indices` of `seq` (in the vehicle frame), split over the
/// available cores.
pub fn ray_cast(seq: &DrivingSequence, indices: &[usize]) -> Vec<Vec<Point3>> {
    let threads = std::thread::available_parallelism().map_or(1, |t| t.get());
    let chunk = indices.len().div_ceil(threads).max(1);
    std::thread::scope(|s| {
        let handles: Vec<_> = indices
            .chunks(chunk)
            .map(|part| s.spawn(move || part.iter().map(|&i| seq.frame(i)).collect()))
            .collect();
        handles
            .into_iter()
            .flat_map(|h| -> Vec<Vec<Point3>> { h.join().expect("ray-cast thread panicked") })
            .collect()
    })
}

/// A seeded drive: the sequence and its segment frames, stored by
/// slot (`segment * SEGMENT_FRAMES + offset`).
pub struct Drive {
    seq: DrivingSequence,
    /// Sequence index of each slot.
    index: Vec<usize>,
    pub frames: Vec<Vec<Point3>>,
}

impl Drive {
    pub fn new(seed: u64) -> Drive {
        let seq = DrivingSequence::new(drive_config(seed));
        let index: Vec<usize> = (0..SEGMENTS)
            .flat_map(|s| (0..SEGMENT_FRAMES).map(move |f| s * SEGMENT_SPACING + f))
            .collect();
        let frames = ray_cast(&seq, &index);
        Drive { seq, index, frames }
    }

    /// Ground-truth pose of slot `slot`.
    pub fn pose(&self, slot: usize) -> Pose {
        self.seq.pose(self.index[slot])
    }
}

/// One step of the replay order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Step {
    /// The frame slot played.
    pub slot: usize,
    /// The step jumps to another segment (or starts the drive): it is
    /// not a 10 Hz successor of the previous step, so its time is not
    /// sampled.
    pub jump: bool,
}

/// The frame played at step `k`: the segments in turn, each played
/// forward on even passes and backward on odd ones, so that every step
/// inside a segment goes to a neighbouring frame. Step 0 is the set-up
/// frame.
pub fn play(k: usize) -> Step {
    let per_pass = SEGMENTS * SEGMENT_FRAMES;
    let (pass, r) = (k / per_pass, k % per_pass);
    let (segment, f) = (r / SEGMENT_FRAMES, r % SEGMENT_FRAMES);
    let f = if pass % 2 == 0 {
        f
    } else {
        SEGMENT_FRAMES - 1 - f
    };
    Step {
        slot: segment * SEGMENT_FRAMES + f,
        jump: r % SEGMENT_FRAMES == 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn play_steps_between_neighbours_inside_segments() {
        assert_eq!(
            play(0),
            Step {
                slot: 0,
                jump: true
            }
        );
        assert_eq!(
            play(1),
            Step {
                slot: 1,
                jump: false
            }
        );
        let last = SEGMENTS * SEGMENT_FRAMES - 1;
        assert_eq!(play(last).slot, last);
        // The second pass plays each segment backward.
        let back = play(SEGMENTS * SEGMENT_FRAMES);
        assert_eq!(
            back,
            Step {
                slot: SEGMENT_FRAMES - 1,
                jump: true
            }
        );
        assert_eq!(play(SEGMENTS * SEGMENT_FRAMES + 1).slot, SEGMENT_FRAMES - 2);
        let sampled = (1..SEGMENTS * SEGMENT_FRAMES)
            .filter(|&k| !play(k).jump)
            .count();
        assert_eq!(sampled, SEGMENTS * (SEGMENT_FRAMES - 1));
    }
}
