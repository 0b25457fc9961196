//! Lane-word arithmetic: the machine-word abstraction under every
//! bit-sliced layer of the workspace.
//!
//! A [`LaneWord`] is a fixed-width register of 64, 128 or 256 **lanes**
//! — one bit per replica — with the boolean algebra the batch engine's
//! circuits need (AND/OR/XOR/NOT, whole-register shifts, per-lane bit
//! access, tail masking). `u64` implements it directly (the original
//! 64-lane engine, zero cost); [`LaneWords<N>`] widens it to `N`
//! consecutive `u64` *planes* (`Lanes128`, `Lanes256`).
//!
//! The plane decomposition is load-bearing for determinism: lane `l` of
//! a wide word is lane `l % 64` of plane `l / 64`, and every consumer
//! (presence streams, view and move words, coverage) derives its per-plane
//! state so that plane `w` of an `N`-plane run is bit-for-bit the
//! 64-lane run of the `w`-th seed block. Widening the arity therefore
//! never changes what any single replica computes.

/// Lanes carried by one `u64` plane. Every [`LaneWord`] arity is a whole
/// number of planes.
pub const LANES_PER_WORD: usize = 64;

/// A fixed-arity word of replica lanes: the register type the batch
/// engine is generic over.
///
/// Implementations must keep `LANES == 64 * WORDS`, represent lane `l`
/// as bit `l % 64` of plane `l / 64`, and make the bit operators act
/// lane-wise. `u64` (64 lanes) and [`LaneWords<N>`] (`64·N` lanes) are
/// the in-tree arities; [`Lanes128`] and [`Lanes256`] are the widened
/// aliases the routing layer selects between.
pub trait LaneWord:
    Copy
    + std::fmt::Debug
    + PartialEq
    + Eq
    + Send
    + Sync
    + 'static
    + std::ops::BitAnd<Output = Self>
    + std::ops::BitOr<Output = Self>
    + std::ops::BitXor<Output = Self>
    + std::ops::Not<Output = Self>
{
    /// Number of 64-bit planes.
    const WORDS: usize;
    /// Number of lanes (`64 * WORDS`).
    const LANES: usize;
    /// All lanes clear.
    const ZERO: Self;
    /// All lanes set.
    const ONES: Self;

    /// Broadcasts one bit to every lane.
    fn splat(bit: bool) -> Self {
        if bit {
            Self::ONES
        } else {
            Self::ZERO
        }
    }

    /// Plane `i` (lanes `[64·i, 64·i + 64)`).
    fn word(&self, i: usize) -> u64;

    /// Replaces plane `i`.
    fn set_word(&mut self, i: usize, word: u64);

    /// Lane `l`'s bit.
    fn get(&self, lane: usize) -> bool;

    /// Sets or clears lane `l`'s bit.
    fn set(&mut self, lane: usize, bit: bool);

    /// Ones in lanes `[0, lanes)`, zeros above — the ghost-lane mask for
    /// a ragged final batch (`lanes ≤ LANES`).
    fn tail_mask(lanes: usize) -> Self;

    /// Whole-register shift towards higher lanes; `bits ≥ LANES` yields
    /// [`LaneWord::ZERO`].
    fn shl(self, bits: u32) -> Self;

    /// Whole-register shift towards lower lanes; `bits ≥ LANES` yields
    /// [`LaneWord::ZERO`].
    fn shr(self, bits: u32) -> Self;

    /// Number of set lanes.
    fn count_ones(&self) -> u32;
}

impl LaneWord for u64 {
    const WORDS: usize = 1;
    const LANES: usize = LANES_PER_WORD;
    const ZERO: Self = 0;
    const ONES: Self = u64::MAX;

    #[inline]
    fn word(&self, i: usize) -> u64 {
        debug_assert_eq!(i, 0);
        *self
    }

    #[inline]
    fn set_word(&mut self, i: usize, word: u64) {
        debug_assert_eq!(i, 0);
        *self = word;
    }

    #[inline]
    fn get(&self, lane: usize) -> bool {
        debug_assert!(lane < 64);
        (*self >> lane) & 1 == 1
    }

    #[inline]
    fn set(&mut self, lane: usize, bit: bool) {
        debug_assert!(lane < 64);
        let mask = 1u64 << lane;
        if bit {
            *self |= mask;
        } else {
            *self &= !mask;
        }
    }

    #[inline]
    fn tail_mask(lanes: usize) -> Self {
        debug_assert!(lanes <= 64);
        if lanes >= 64 {
            u64::MAX
        } else {
            (1u64 << lanes) - 1
        }
    }

    #[inline]
    fn shl(self, bits: u32) -> Self {
        if bits >= 64 {
            0
        } else {
            self << bits
        }
    }

    #[inline]
    fn shr(self, bits: u32) -> Self {
        if bits >= 64 {
            0
        } else {
            self >> bits
        }
    }

    #[inline]
    fn count_ones(&self) -> u32 {
        u64::count_ones(*self)
    }
}

/// `N` consecutive `u64` planes: a `64·N`-lane [`LaneWord`].
///
/// Lane `l` is bit `l % 64` of plane `l / 64`. A bare `[u64; N]` cannot
/// carry the operator impls, hence the newtype; the inner array is
/// public so circuits can reach planes without the accessor calls.
#[derive(Copy, Clone, PartialEq, Eq, Hash)]
pub struct LaneWords<const N: usize>(pub [u64; N]);

/// Two-plane, 128-lane arity.
pub type Lanes128 = LaneWords<2>;

/// Four-plane, 256-lane arity.
pub type Lanes256 = LaneWords<4>;

impl<const N: usize> std::fmt::Debug for LaneWords<N> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "LaneWords[")?;
        for (i, w) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{w:#018x}")?;
        }
        write!(f, "]")
    }
}

impl<const N: usize> std::ops::BitAnd for LaneWords<N> {
    type Output = Self;
    #[inline]
    fn bitand(mut self, rhs: Self) -> Self {
        for (a, b) in self.0.iter_mut().zip(rhs.0) {
            *a &= b;
        }
        self
    }
}

impl<const N: usize> std::ops::BitOr for LaneWords<N> {
    type Output = Self;
    #[inline]
    fn bitor(mut self, rhs: Self) -> Self {
        for (a, b) in self.0.iter_mut().zip(rhs.0) {
            *a |= b;
        }
        self
    }
}

impl<const N: usize> std::ops::BitXor for LaneWords<N> {
    type Output = Self;
    #[inline]
    fn bitxor(mut self, rhs: Self) -> Self {
        for (a, b) in self.0.iter_mut().zip(rhs.0) {
            *a ^= b;
        }
        self
    }
}

impl<const N: usize> std::ops::Not for LaneWords<N> {
    type Output = Self;
    #[inline]
    fn not(mut self) -> Self {
        for a in self.0.iter_mut() {
            *a = !*a;
        }
        self
    }
}

impl<const N: usize> LaneWord for LaneWords<N> {
    const WORDS: usize = N;
    const LANES: usize = LANES_PER_WORD * N;
    const ZERO: Self = LaneWords([0; N]);
    const ONES: Self = LaneWords([u64::MAX; N]);

    #[inline]
    fn word(&self, i: usize) -> u64 {
        self.0[i]
    }

    #[inline]
    fn set_word(&mut self, i: usize, word: u64) {
        self.0[i] = word;
    }

    #[inline]
    fn get(&self, lane: usize) -> bool {
        debug_assert!(lane < Self::LANES);
        (self.0[lane / 64] >> (lane % 64)) & 1 == 1
    }

    #[inline]
    fn set(&mut self, lane: usize, bit: bool) {
        debug_assert!(lane < Self::LANES);
        let mask = 1u64 << (lane % 64);
        if bit {
            self.0[lane / 64] |= mask;
        } else {
            self.0[lane / 64] &= !mask;
        }
    }

    fn tail_mask(lanes: usize) -> Self {
        debug_assert!(lanes <= Self::LANES);
        let mut out = Self::ZERO;
        for (i, w) in out.0.iter_mut().enumerate() {
            let lo = i * 64;
            *w = if lanes >= lo + 64 {
                u64::MAX
            } else if lanes <= lo {
                0
            } else {
                (1u64 << (lanes - lo)) - 1
            };
        }
        out
    }

    fn shl(self, bits: u32) -> Self {
        let mut out = Self::ZERO;
        if (bits as usize) >= Self::LANES {
            return out;
        }
        let skip = (bits / 64) as usize;
        let s = bits % 64;
        for i in skip..N {
            let mut w = self.0[i - skip] << s;
            if s > 0 && i > skip {
                w |= self.0[i - skip - 1] >> (64 - s);
            }
            out.0[i] = w;
        }
        out
    }

    fn shr(self, bits: u32) -> Self {
        let mut out = Self::ZERO;
        if (bits as usize) >= Self::LANES {
            return out;
        }
        let skip = (bits / 64) as usize;
        let s = bits % 64;
        for i in 0..N - skip {
            let mut w = self.0[i + skip] >> s;
            if s > 0 && i + skip + 1 < N {
                w |= self.0[i + skip + 1] << (64 - s);
            }
            out.0[i] = w;
        }
        out
    }

    #[inline]
    fn count_ones(&self) -> u32 {
        self.0.iter().map(|w| w.count_ones()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[allow(clippy::eq_op)] // `x ^ x == 0` is the identity under test
    fn exercise_arity<W: LaneWord>() {
        assert_eq!(W::LANES, 64 * W::WORDS);
        assert_eq!(W::splat(false), W::ZERO);
        assert_eq!(W::splat(true), W::ONES);
        assert_eq!(W::ZERO.count_ones(), 0);
        assert_eq!(W::ONES.count_ones() as usize, W::LANES);
        assert_eq!(!W::ZERO, W::ONES);
        assert_eq!(W::ONES & W::ZERO, W::ZERO);
        assert_eq!(W::ONES | W::ZERO, W::ONES);
        assert_eq!(W::ONES ^ W::ONES, W::ZERO);

        // Per-lane get/set round-trips and lands in the right plane.
        for lane in [0, 1, 63 % W::LANES, W::LANES / 2, W::LANES - 1] {
            let mut w = W::ZERO;
            w.set(lane, true);
            assert!(w.get(lane), "lane {lane}");
            assert_eq!(w.count_ones(), 1);
            assert_eq!(w.word(lane / 64), 1u64 << (lane % 64));
            w.set(lane, false);
            assert_eq!(w, W::ZERO);
        }

        // Tail masks: exactly the first `lanes` bits.
        for lanes in [0, 1, 63, 64, W::LANES - 1, W::LANES] {
            let mask = W::tail_mask(lanes);
            assert_eq!(mask.count_ones() as usize, lanes, "tail_mask({lanes})");
            for lane in 0..W::LANES {
                assert_eq!(mask.get(lane), lane < lanes, "lane {lane} of tail_mask({lanes})");
            }
        }

        // Shifts move lanes, including across plane boundaries.
        let shifts = [0u32, 1, 63, 64, 65, (W::LANES - 1) as u32];
        for shift in shifts.into_iter().filter(|&s| (s as usize) < W::LANES) {
            let mut one = W::ZERO;
            one.set(0, true);
            let shifted = one.shl(shift);
            assert_eq!(shifted.count_ones(), 1, "shl {shift}");
            assert!(shifted.get(shift as usize));
            assert_eq!(shifted.shr(shift), one, "shr undoes shl {shift}");
        }
        assert_eq!(W::ONES.shl(W::LANES as u32), W::ZERO);
        assert_eq!(W::ONES.shr(W::LANES as u32), W::ZERO);
    }

    #[test]
    fn u64_is_the_64_lane_word() {
        assert_eq!(<u64 as LaneWord>::WORDS, 1);
        exercise_arity::<u64>();
    }

    #[test]
    fn wide_words_carry_128_and_256_lanes() {
        assert_eq!(Lanes128::WORDS, 2);
        assert_eq!(Lanes256::LANES, 256);
        exercise_arity::<Lanes128>();
        exercise_arity::<Lanes256>();
    }

    #[test]
    fn wide_ops_act_per_plane() {
        let a = LaneWords([0xF0F0, 0x1234]);
        let b = LaneWords([0x0FF0, 0xFF00]);
        assert_eq!(a & b, LaneWords([0x00F0, 0x1200]));
        assert_eq!(a | b, LaneWords([0xFFF0, 0xFF34]));
        assert_eq!(a ^ b, LaneWords([0xFF00, 0xED34]));
        assert_eq!((!a).0[0], !0xF0F0u64);
    }

    #[test]
    fn cross_plane_shifts_carry_bits() {
        let a: Lanes128 = LaneWords([1u64 << 63, 0]);
        assert_eq!(a.shl(1), LaneWords([0, 1]));
        assert_eq!(LaneWords([0u64, 1]).shr(1), LaneWords([1u64 << 63, 0]));
        let spread: Lanes256 = LaneWords([u64::MAX, 0, 0, 0]);
        assert_eq!(spread.shl(128), LaneWords([0, 0, u64::MAX, 0]));
    }
}
