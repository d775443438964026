//! Interval (value-range) abstract domain over the VM's `i32` values.
//!
//! Bounds are held as `i64` so transfer functions can compute exact
//! result ranges before deciding whether they still fit the concrete
//! `i32` domain; every stored interval satisfies
//! `i32::MIN <= lo <= hi <= i32::MAX`.
//!
//! Two kinds of imprecision are distinguished:
//!
//! * a **wide** interval (up to ⊤ = `[i32::MIN, i32::MAX]`) simply means
//!   the analysis does not know the value;
//! * the [`Interval::wrapped`] flag means the *concrete machine itself*
//!   may have wrapped: the exact mathematical result of some operation on
//!   the path to this value exceeded `i32` and the VM's wrapping
//!   arithmetic silently folded it. A wrapped loop counter or address is
//!   unsafe at *any* bitwidth — that is the `NVP-E005` condition — so the
//!   flag is sticky through further arithmetic and through memory.
//!
//! The domain has infinite ascending chains (`[0,1] ⊂ [0,2] ⊂ …`), so
//! fixpoints use a threshold-ladder widening ([`Interval::widen`]): grown
//! bounds jump to the nearest "interesting" program constant scale
//! (`0`, `±1`, byte, 16-bit, full range) rather than creeping one step
//! per loop iteration. Post-fixpoint narrowing sweeps
//! ([`crate::dataflow::narrow`]) then recover precision bounded by branch
//! conditions.

/// The bounds that ladder widening jumps to. Chosen to match the scales
/// kernels actually use: flags (`0/±1`), 8-bit pixels, 16-bit frame
/// offsets, full range.
const WIDEN_LADDER: [i64; 9] = [
    i32::MIN as i64,
    -(1 << 16),
    -256,
    -1,
    0,
    1,
    255,
    1 << 16,
    i32::MAX as i64,
];

/// A value range `[lo, hi]` (inclusive) with a sticky concrete-wraparound
/// flag. See the module docs for the meaning of [`Interval::wrapped`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interval {
    /// Lower bound (always within `i32`).
    pub lo: i64,
    /// Upper bound (always within `i32`).
    pub hi: i64,
    /// The concrete machine may have wrapped producing this value.
    pub wrapped: bool,
}

impl Interval {
    /// The single value `v`.
    pub fn exact(v: i32) -> Interval {
        Interval {
            lo: v as i64,
            hi: v as i64,
            wrapped: false,
        }
    }

    /// The range `[lo, hi]`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn range(lo: i32, hi: i32) -> Interval {
        assert!(lo <= hi, "invalid interval [{lo}, {hi}]");
        Interval {
            lo: lo as i64,
            hi: hi as i64,
            wrapped: false,
        }
    }

    /// The full `i32` range (unknown value, no wraparound claim).
    pub fn top() -> Interval {
        Interval {
            lo: i32::MIN as i64,
            hi: i32::MAX as i64,
            wrapped: false,
        }
    }

    /// Builds the interval for an exact mathematical result range
    /// `[lo, hi]`: if it exceeds `i32` the machine may wrap, so the
    /// result is ⊤ with [`Interval::wrapped`] set.
    pub fn of_i64(lo: i64, hi: i64) -> Interval {
        debug_assert!(lo <= hi);
        if lo < i32::MIN as i64 || hi > i32::MAX as i64 {
            Interval {
                wrapped: true,
                ..Interval::top()
            }
        } else {
            Interval {
                lo,
                hi,
                wrapped: false,
            }
        }
    }

    /// Does the range contain `v`?
    pub fn contains(&self, v: i32) -> bool {
        self.lo <= v as i64 && v as i64 <= self.hi
    }

    /// Range diameter `hi - lo` (0 for an exact value).
    pub fn diam(&self) -> u64 {
        (self.hi - self.lo) as u64
    }

    /// Largest absolute value in the range (as `u64`, so `i32::MIN` is
    /// representable).
    pub fn max_abs(&self) -> u64 {
        self.lo.unsigned_abs().max(self.hi.unsigned_abs())
    }

    /// Least upper bound: the convex hull, wraparound sticky.
    pub fn join(&self, other: &Interval) -> Interval {
        Interval {
            lo: self.lo.min(other.lo),
            hi: self.hi.max(other.hi),
            wrapped: self.wrapped || other.wrapped,
        }
    }

    /// Intersection, or `None` if the ranges are disjoint (an infeasible
    /// path). Wraparound stays sticky: refinement narrows the range but
    /// cannot retract that the machine may already have wrapped.
    pub fn intersect(&self, other: &Interval) -> Option<Interval> {
        let lo = self.lo.max(other.lo);
        let hi = self.hi.min(other.hi);
        (lo <= hi).then_some(Interval {
            lo,
            hi,
            wrapped: self.wrapped,
        })
    }

    /// Threshold-ladder widening: an upper bound of both arguments where
    /// a bound that grew past `prev` jumps to the nearest enclosing
    /// ladder rung. Guarantees termination — each bound can only move
    /// monotonically along the finite ladder.
    pub fn widen(prev: &Interval, next: &Interval) -> Interval {
        let j = prev.join(next);
        let lo = if j.lo < prev.lo {
            *WIDEN_LADDER
                .iter()
                .rev()
                .find(|&&t| t <= j.lo)
                .expect("ladder bottoms at i32::MIN")
        } else {
            j.lo
        };
        let hi = if j.hi > prev.hi {
            *WIDEN_LADDER
                .iter()
                .find(|&&t| t >= j.hi)
                .expect("ladder tops at i32::MAX")
        } else {
            j.hi
        };
        Interval {
            lo,
            hi,
            wrapped: j.wrapped,
        }
    }

    fn binary(a: &Interval, b: &Interval, lo: i64, hi: i64) -> Interval {
        let mut r = Interval::of_i64(lo, hi);
        r.wrapped |= a.wrapped || b.wrapped;
        r
    }

    /// `a + b` under the VM's wrapping add.
    pub fn add(&self, other: &Interval) -> Interval {
        Interval::binary(self, other, self.lo + other.lo, self.hi + other.hi)
    }

    /// `a - b` under the VM's wrapping subtract.
    pub fn sub(&self, other: &Interval) -> Interval {
        Interval::binary(self, other, self.lo - other.hi, self.hi - other.lo)
    }

    /// `a * b` under the VM's wrapping multiply.
    pub fn mul(&self, other: &Interval) -> Interval {
        let ps = [
            self.lo * other.lo,
            self.lo * other.hi,
            self.hi * other.lo,
            self.hi * other.hi,
        ];
        Interval::binary(
            self,
            other,
            *ps.iter().min().expect("non-empty"),
            *ps.iter().max().expect("non-empty"),
        )
    }

    /// `a << s` for a known shift amount (the VM masks shifts mod 32).
    pub fn shl_const(&self, s: u32) -> Interval {
        let s = s & 31;
        Interval::binary(self, self, self.lo << s, self.hi << s)
    }

    /// `a >> s`, arithmetic, for a known shift amount (the VM clamps the
    /// shift to 31). Monotone in `a`, never overflows.
    pub fn shr_const(&self, s: u32) -> Interval {
        let s = s.min(31);
        Interval {
            lo: self.lo >> s,
            hi: self.hi >> s,
            wrapped: self.wrapped,
        }
    }

    fn bitop_hull(a: &Interval, b: &Interval, and: bool) -> (i64, i64) {
        if a.lo >= 0 && b.lo >= 0 {
            if and {
                // `x & y <= min(x, y)` for non-negative operands.
                (0, a.hi.min(b.hi))
            } else {
                // or/xor cannot set a bit above both operands' leading
                // bits: bounded by the next power of two.
                let top = (a.hi.max(b.hi) as u64).next_power_of_two() as i64;
                (0, (2 * top - 1).min(i32::MAX as i64))
            }
        } else {
            (i32::MIN as i64, i32::MAX as i64)
        }
    }

    /// `a & b`. Bitops never wrap; precise bounds for non-negative
    /// operands, ⊤-range otherwise.
    pub fn and(&self, other: &Interval) -> Interval {
        let (lo, hi) = Interval::bitop_hull(self, other, true);
        Interval {
            lo,
            hi,
            wrapped: self.wrapped || other.wrapped,
        }
    }

    /// `a | b` / `a ^ b` (same hull).
    pub fn or_xor(&self, other: &Interval) -> Interval {
        let (lo, hi) = Interval::bitop_hull(self, other, false);
        Interval {
            lo,
            hi,
            wrapped: self.wrapped || other.wrapped,
        }
    }

    /// `min(a, b)`.
    pub fn min(&self, other: &Interval) -> Interval {
        Interval {
            lo: self.lo.min(other.lo),
            hi: self.hi.min(other.hi),
            wrapped: self.wrapped || other.wrapped,
        }
    }

    /// `max(a, b)`.
    pub fn max(&self, other: &Interval) -> Interval {
        Interval {
            lo: self.lo.max(other.lo),
            hi: self.hi.max(other.hi),
            wrapped: self.wrapped || other.wrapped,
        }
    }

    /// `|a|` under the VM's `wrapping_abs` (`|i32::MIN|` wraps to
    /// itself).
    pub fn abs(&self) -> Interval {
        if self.contains(i32::MIN) {
            return Interval {
                wrapped: true,
                ..Interval::top()
            };
        }
        let (lo, hi) = if self.lo >= 0 {
            (self.lo, self.hi)
        } else if self.hi <= 0 {
            (-self.hi, -self.lo)
        } else {
            (0, (-self.lo).max(self.hi))
        };
        Interval {
            lo,
            hi,
            wrapped: self.wrapped,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_hulls_are_exact_for_small_ranges() {
        let a = Interval::range(-2, 3);
        let b = Interval::range(1, 4);
        assert_eq!(a.add(&b), Interval::range(-1, 7));
        assert_eq!(a.sub(&b), Interval::range(-6, 2));
        assert_eq!(a.mul(&b), Interval::range(-8, 12));
        assert_eq!(a.abs(), Interval::range(0, 3));
        assert_eq!(a.min(&b), Interval::range(-2, 3));
        assert_eq!(a.max(&b), Interval::range(1, 4));
    }

    #[test]
    fn overflowing_result_becomes_wrapped_top() {
        let big = Interval::range(i32::MAX - 1, i32::MAX);
        let r = big.add(&Interval::exact(5));
        assert!(r.wrapped);
        assert_eq!((r.lo, r.hi), (i32::MIN as i64, i32::MAX as i64));
        // The flag then sticks through precise follow-up arithmetic.
        let clamped = r.min(&Interval::exact(10));
        assert!(clamped.wrapped);
    }

    #[test]
    fn shifts_follow_vm_semantics() {
        let a = Interval::range(-8, 8);
        assert_eq!(a.shl_const(2), Interval::range(-32, 32));
        assert_eq!(a.shr_const(2), Interval::range(-2, 2));
        assert!(Interval::exact(1 << 30).shl_const(2).wrapped);
        // Shift amounts are masked mod 32 like `wrapping_shl`.
        assert_eq!(a.shl_const(32), a);
    }

    #[test]
    fn bitops_bound_nonnegative_operands() {
        let a = Interval::range(0, 100);
        let b = Interval::range(0, 9);
        assert_eq!(a.and(&b), Interval::range(0, 9));
        let o = a.or_xor(&b);
        assert!(o.lo == 0 && o.hi >= 127 && !o.wrapped);
    }

    #[test]
    fn abs_of_i32_min_wraps() {
        let r = Interval::range(i32::MIN, 0).abs();
        assert!(r.wrapped);
    }

    #[test]
    fn intersect_detects_infeasible_paths() {
        let a = Interval::range(5, 9);
        assert_eq!(
            a.intersect(&Interval::range(0, 6)),
            Some(Interval::range(5, 6))
        );
        assert_eq!(a.intersect(&Interval::range(10, 20)), None);
    }

    #[test]
    fn widening_jumps_to_ladder_rungs_and_terminates() {
        let mut cur = Interval::exact(0);
        let mut steps = 0;
        let mut rungs = Vec::new();
        loop {
            // A loop counter growing by one per iteration.
            let next = cur.join(&cur.add(&Interval::exact(1)));
            let widened = Interval::widen(&cur, &next);
            if widened == cur {
                break;
            }
            cur = widened;
            rungs.push(cur.hi);
            steps += 1;
            assert!(steps < 10, "widening must terminate quickly");
        }
        // The upper bound climbs the ladder instead of creeping by one;
        // once it reaches i32::MAX the increment wraps and the chain
        // closes at ⊤ with the wrap recorded.
        assert!(
            rungs.contains(&255) && rungs.contains(&(i32::MAX as i64)),
            "{rungs:?}"
        );
        assert_eq!(cur.hi, i32::MAX as i64);
        assert!(cur.wrapped);
        // Widening never shrinks: it upper-bounds both arguments
        // (narrowing sweeps recover precision afterwards).
        let kept = Interval::widen(&Interval::range(0, 8), &Interval::range(2, 8));
        assert_eq!(kept, Interval::range(0, 8));
    }

    // Loop-counter patterns the trip-count bounder leans on: each test
    // plays the fixpoint a loop head would see, by hand, and checks the
    // invariant the WCEC analysis reads off at the end.

    #[test]
    fn strided_increment_widens_then_narrows_to_the_guard() {
        // for (i = 0; i < 100; i += 5): head = join(init, backedge).
        let init = Interval::exact(0);
        let stride = Interval::exact(5);
        let guard = Interval::range(i32::MIN, 99); // i < 100 (taken edge)
        let mut head = init;
        loop {
            let body = head.intersect(&guard).expect("loop entered").add(&stride);
            let next = Interval::widen(&head, &head.join(&body));
            if next == head {
                break;
            }
            head = next;
        }
        // Widening overshot to a ladder rung, not the tight bound.
        assert_eq!(head.hi, 255);
        // One narrowing sweep recovers the guard-limited invariant.
        let narrowed = init.join(&head.intersect(&guard).unwrap().add(&stride));
        assert_eq!(narrowed, Interval::range(0, 104));
        assert!(!narrowed.wrapped);
        // Every concrete counter value the loop produces is inside.
        for v in (0..=100).step_by(5) {
            assert!(narrowed.contains(v));
        }
    }

    #[test]
    fn decrement_to_zero_counter_never_goes_negative() {
        // i = 50; do { i -= 1 } while (i != 0): the brnz-taken edge
        // refines away the zero endpoint before the decrement.
        let init = Interval::exact(50);
        let one = Interval::exact(1);
        let mut head = init;
        loop {
            let nonzero = if head.lo == 0 {
                Interval {
                    lo: 1,
                    hi: head.hi.max(1),
                    wrapped: head.wrapped,
                }
            } else {
                head
            };
            let next = head.join(&nonzero.sub(&one));
            if next == head {
                break;
            }
            head = next;
        }
        assert_eq!(head, Interval::range(0, 50));
        assert!(head.contains(0) && head.contains(50) && !head.contains(-1));
    }

    #[test]
    fn widened_then_narrowed_interval_is_sound_not_exact() {
        // Narrowing recovers precision but must stay an over-approximation:
        // the recovered range may keep slack past the last guard test.
        let guard = Interval::range(i32::MIN, 9); // i < 10
        let widened = Interval::range(0, 255); // post-widening head
        let narrowed =
            Interval::exact(0).join(&widened.intersect(&guard).unwrap().add(&Interval::exact(3)));
        assert_eq!(narrowed, Interval::range(0, 12));
        // Sound: contains every reachable value (0,3,6,9,12)…
        for v in (0..=12).step_by(3) {
            assert!(narrowed.contains(v));
        }
        // …and strictly tighter than the widened state it refines.
        assert!(narrowed.hi < widened.hi);
    }

    #[test]
    fn wraparound_taint_is_sticky_through_counter_algebra() {
        // A counter that may have wrapped stays wrapped through every
        // operation a loop body applies to it — join with a clean init,
        // guard intersection, increments, clamps.
        let mut i = Interval::range(i32::MAX - 2, i32::MAX).add(&Interval::exact(4));
        assert!(i.wrapped);
        i = i.intersect(&Interval::range(0, 1000)).expect("nonempty");
        assert!(i.wrapped, "guard intersection must not launder the wrap");
        i = Interval::exact(0).join(&i);
        assert!(i.wrapped, "join with a clean init must not launder");
        i = i.add(&Interval::exact(1)).min(&Interval::exact(255));
        assert!(i.wrapped, "arithmetic must not launder");
        // A clean counter over the same ranges stays clean.
        let clean = Interval::exact(0).join(&Interval::range(0, 255));
        assert!(!clean.wrapped);
    }
}
