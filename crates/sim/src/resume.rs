//! The non-volatile resume-point controller (Section 4).
//!
//! A small FIFO of parked, partially-computed frames. Each entry records
//! the frame's data-register values and which memory version plane holds
//! the frame's data. Every parked frame is recomputed from its resume
//! marker (pc 0, Section 4's recompute path), so the controller's PC
//! comparators reduce to one marker check: at pc 0 the oldest parked
//! frames merge into free SIMD lanes in FIFO order. The paper implements
//! this as a 2 B × 4 circular buffer of non-volatile flip-flops plus the
//! multi-version register file; capacity here is 3 parked frames (the
//! fourth slot is the live computation).

use nvp_trace::Event;
use std::collections::VecDeque;

/// Number of parking slots (memory versions 1–3).
pub const PARK_SLOTS: usize = 3;

/// A parked, incomplete frame, waiting at the resume marker.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PendingFrame {
    /// Which input frame this is.
    pub input_index: u64,
    /// The frame's data-register values (its register-file version plane).
    pub regs: [i32; 16],
    /// Memory version plane (1–3) holding the frame's data.
    pub version: usize,
}

impl PendingFrame {
    /// Trace event describing this frame being parked at `tick`.
    pub fn park_event(&self, tick: u64) -> Event {
        Event::FrameParked {
            tick,
            input_index: self.input_index,
            version: self.version as u8,
            // Every frame is parked for recomputation; the wire field stays
            // so JSONL traces keep their shape.
            recompute: true,
        }
    }

    /// Trace event describing this frame being abandoned (FIFO-evicted)
    /// at `tick`.
    pub fn abandon_event(&self, tick: u64) -> Event {
        Event::FrameAbandoned {
            tick,
            input_index: self.input_index,
        }
    }
}

/// The resume-point FIFO.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResumeController {
    pending: VecDeque<PendingFrame>,
    capacity: usize,
}

impl Default for ResumeController {
    fn default() -> Self {
        ResumeController::new()
    }
}

impl ResumeController {
    /// Creates an empty controller with the full 3-slot parking capacity.
    pub fn new() -> Self {
        Self::with_capacity(PARK_SLOTS)
    }

    /// Creates a controller with a reduced parking capacity (the
    /// resume-buffer depth ablation).
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= capacity <= 3`.
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(
            (1..=PARK_SLOTS).contains(&capacity),
            "capacity must be 1..=3"
        );
        ResumeController {
            pending: VecDeque::new(),
            capacity,
        }
    }

    /// The parking capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of parked frames.
    pub fn len(&self) -> usize {
        self.pending.len()
    }

    /// True when nothing is parked.
    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }

    /// Parked frames, oldest first.
    pub fn pending(&self) -> impl Iterator<Item = &PendingFrame> {
        self.pending.iter()
    }

    /// A memory version in 1..=3 not used by any parked frame, if any.
    pub fn free_version(&self) -> Option<usize> {
        (1..=PARK_SLOTS).find(|v| self.pending.iter().all(|p| p.version != *v))
    }

    /// Parks a frame. If the FIFO is full, the oldest entry is evicted
    /// (abandoned, FIFO order per Section 4) and returned; its version
    /// plane is then free for reuse.
    pub fn park(&mut self, entry: PendingFrame) -> Option<PendingFrame> {
        debug_assert!((1..=PARK_SLOTS).contains(&entry.version));
        let evicted = if self.pending.len() >= self.capacity {
            self.pending.pop_front()
        } else {
            None
        };
        self.pending.push_back(entry);
        evicted
    }

    /// Evicts the oldest parked frame to reclaim its version plane.
    pub fn evict_oldest(&mut self) -> Option<PendingFrame> {
        self.pending.pop_front()
    }

    /// Removes and returns up to `max` parked frames, oldest first. Every
    /// parked frame waits at the resume marker, so all of them match when
    /// the live lane reaches it; FIFO order picks which merge.
    pub fn take_matches(&mut self, max: usize) -> Vec<PendingFrame> {
        let n = max.min(self.pending.len());
        self.pending.drain(..n).collect()
    }

    /// Rewrites the version plane of the parked frame currently at
    /// `from` to `to` (after the system swapped the underlying planes).
    pub fn reassign_version(&mut self, from: usize, to: usize) {
        for p in self.pending.iter_mut() {
            if p.version == from {
                p.version = to;
            }
        }
    }

    /// Drops all parked frames, returning how many were abandoned.
    pub fn clear(&mut self) -> usize {
        let n = self.pending.len();
        self.pending.clear();
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(idx: u64, version: usize) -> PendingFrame {
        PendingFrame {
            input_index: idx,
            regs: [7; 16],
            version,
        }
    }

    #[test]
    fn fifo_evicts_oldest_when_full() {
        let mut c = ResumeController::new();
        assert!(c.park(entry(0, 1)).is_none());
        assert!(c.park(entry(1, 2)).is_none());
        assert!(c.park(entry(2, 3)).is_none());
        let ev = c.park(entry(3, 1)).expect("must evict");
        assert_eq!(ev.input_index, 0);
        assert_eq!(c.len(), 3);
    }

    #[test]
    fn free_version_tracks_parked() {
        let mut c = ResumeController::new();
        assert_eq!(c.free_version(), Some(1));
        c.park(entry(0, 1));
        assert_eq!(c.free_version(), Some(2));
        c.park(entry(1, 3));
        assert_eq!(c.free_version(), Some(2));
        c.park(entry(2, 2));
        assert_eq!(c.free_version(), None);
    }

    #[test]
    fn take_matches_respects_max() {
        let mut c = ResumeController::new();
        c.park(entry(0, 1));
        c.park(entry(1, 2));
        c.park(entry(2, 3));
        let m = c.take_matches(2);
        assert_eq!(m.len(), 2);
        assert_eq!(m[0].input_index, 0); // oldest first
        assert_eq!(m[1].input_index, 1);
        assert_eq!(c.len(), 1);
        assert_eq!(c.take_matches(4).len(), 1);
        assert!(c.is_empty());
    }

    #[test]
    fn reassign_version_moves_plane_pointer() {
        let mut c = ResumeController::new();
        c.park(entry(0, 2));
        c.reassign_version(2, 3);
        assert_eq!(c.pending().next().unwrap().version, 3);
    }

    #[test]
    fn event_constructors_carry_frame_identity() {
        let e = entry(9, 2);
        assert_eq!(
            e.park_event(100),
            Event::FrameParked {
                tick: 100,
                input_index: 9,
                version: 2,
                recompute: true,
            }
        );
        assert_eq!(
            e.abandon_event(101),
            Event::FrameAbandoned {
                tick: 101,
                input_index: 9,
            }
        );
    }
}
