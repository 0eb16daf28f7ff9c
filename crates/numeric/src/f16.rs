//! Software IEEE-754 binary16 ("half precision") arithmetic.
//!
//! The SWAT hardware datapath operates on FP16 values produced by Vitis HLS
//! floating-point cores. Each arithmetic operation rounds its result to
//! binary16 (round-to-nearest-even). We model that behaviour by computing in
//! `f32` and rounding the result back to binary16 after every operation.
//!
//! For addition, subtraction, multiplication, division and square root this
//! is *exactly* a correctly-rounded binary16 operation. The reason is not
//! that the exact result fits in binary32: a product of two binary16 values
//! does (22 significand bits), but a sum need not (2¹⁵ + 2⁻²⁴ needs 40
//! bits), and a quotient or root rarely terminates at all. The reason is
//! that binary32's 24-bit significand is wide enough: when `p′ ≥ 2p + 2`
//! (here `24 ≥ 2·11 + 2`), rounding the correctly-rounded `p′`-bit result of
//! +, −, ×, ÷ or √ to `p` bits gives the correctly-rounded `p`-bit result
//! (S. A. Figueroa, "When is double rounding innocuous?", SIGNUM Newsletter,
//! 1995). The exponential is computed by `f32::exp` and rounded once, so it
//! inherits that function's error before the final rounding.
//!
//! The two conversions, [`f32_to_f16_bits`] and [`f16_bits_to_f32`], sit
//! inside every binary16 operation, so they are inlined and branch only on
//! range checks (subnormal, overflow, infinity and NaN); the rounding
//! itself is integer and `f32` arithmetic.

use core::cmp::Ordering;
use core::fmt;
use core::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};
use core::str::FromStr;

/// An IEEE-754 binary16 floating-point number.
///
/// The bit layout is 1 sign bit, 5 exponent bits (bias 15) and 10 mantissa
/// bits. All conversions round to nearest, ties to even.
///
/// # Examples
///
/// ```
/// use swat_numeric::F16;
///
/// assert_eq!(F16::from_f32(65504.0), F16::MAX);
/// assert_eq!(F16::from_f32(1e9), F16::INFINITY); // overflow
/// assert!(F16::NAN.is_nan());
/// ```
#[derive(Clone, Copy, Default)]
pub struct F16(u16);

impl F16 {
    /// Positive zero.
    pub const ZERO: F16 = F16(0x0000);
    /// Negative zero.
    pub const NEG_ZERO: F16 = F16(0x8000);
    /// One.
    pub const ONE: F16 = F16(0x3C00);
    /// Negative one.
    pub const NEG_ONE: F16 = F16(0xBC00);
    /// Largest finite value, 65504.
    pub const MAX: F16 = F16(0x7BFF);
    /// Smallest finite value, −65504.
    pub const MIN: F16 = F16(0xFBFF);
    /// Smallest positive normal value, 2⁻¹⁴.
    pub const MIN_POSITIVE: F16 = F16(0x0400);
    /// Smallest positive subnormal value, 2⁻²⁴.
    pub const MIN_POSITIVE_SUBNORMAL: F16 = F16(0x0001);
    /// The difference between 1.0 and the next larger representable value,
    /// 2⁻¹⁰.
    pub const EPSILON: F16 = F16(0x1400);
    /// Positive infinity.
    pub const INFINITY: F16 = F16(0x7C00);
    /// Negative infinity.
    pub const NEG_INFINITY: F16 = F16(0xFC00);
    /// A quiet NaN.
    pub const NAN: F16 = F16(0x7E00);

    /// Creates an `F16` from its raw bit representation.
    #[inline]
    pub const fn from_bits(bits: u16) -> F16 {
        F16(bits)
    }

    /// Returns the raw bit representation.
    #[inline]
    pub const fn to_bits(self) -> u16 {
        self.0
    }

    /// Converts an `f32` to binary16, rounding to nearest (ties to even).
    ///
    /// Values with magnitude above 65504 (+half an ULP) become infinity;
    /// values below the subnormal range become (signed) zero.
    #[inline]
    pub fn from_f32(value: f32) -> F16 {
        F16(f32_to_f16_bits(value))
    }

    /// Converts an `f64` to binary16 by way of `f32`.
    ///
    /// Double rounding through `f32` can in principle perturb results that
    /// are within a quarter ULP of a binary16 tie; this is irrelevant for the
    /// simulator, which only ever converts `f32` values.
    pub fn from_f64(value: f64) -> F16 {
        F16::from_f32(value as f32)
    }

    /// Widens to `f32`. This conversion is exact.
    #[inline]
    pub fn to_f32(self) -> f32 {
        f16_bits_to_f32(self.0)
    }

    /// Widens to `f64`. This conversion is exact.
    pub fn to_f64(self) -> f64 {
        f64::from(self.to_f32())
    }

    /// Returns `true` if this value is NaN.
    #[inline]
    pub const fn is_nan(self) -> bool {
        self.0 & 0x7FFF > 0x7C00
    }

    /// Returns `true` if this value is positive or negative infinity.
    #[inline]
    pub const fn is_infinite(self) -> bool {
        self.0 & 0x7FFF == 0x7C00
    }

    /// Returns `true` if this value is neither infinite nor NaN.
    #[inline]
    pub const fn is_finite(self) -> bool {
        self.0 & 0x7C00 != 0x7C00
    }

    /// Returns `true` for subnormal (denormalised) values.
    #[inline]
    pub const fn is_subnormal(self) -> bool {
        self.0 & 0x7C00 == 0 && self.0 & 0x03FF != 0
    }

    /// Returns `true` if the sign bit is set (including −0 and NaN with the
    /// sign bit set).
    #[inline]
    pub const fn is_sign_negative(self) -> bool {
        self.0 & 0x8000 != 0
    }

    /// Returns `true` if the sign bit is clear.
    #[inline]
    pub const fn is_sign_positive(self) -> bool {
        !self.is_sign_negative()
    }

    /// Absolute value.
    #[inline]
    pub const fn abs(self) -> F16 {
        F16(self.0 & 0x7FFF)
    }

    /// Fused multiply-add rounded once: `self * a + b` computed exactly and
    /// rounded to binary16 a single time.
    ///
    /// The exact value of `x*a + b` for binary16 inputs is representable in
    /// `f64`, so evaluating there and rounding once is a true FMA.
    pub fn mul_add(self, a: F16, b: F16) -> F16 {
        F16::from_f32((self.to_f64() * a.to_f64() + b.to_f64()) as f32)
    }

    /// Multiply-accumulate with *per-operation* rounding, as performed by the
    /// non-fused FP16 MAC pipelined at II=3 in SWAT's QK stage: the product
    /// is rounded to binary16, then the sum is rounded to binary16.
    pub fn mac_round_each(self, a: F16, acc: F16) -> F16 {
        (self * a) + acc
    }

    /// `e^self` rounded to binary16, computed in `f32`. Models the EXP unit
    /// in the SV stage.
    #[inline]
    pub fn exp(self) -> F16 {
        F16::from_f32(self.to_f32().exp())
    }

    /// Square root rounded to binary16.
    pub fn sqrt(self) -> F16 {
        F16::from_f32(self.to_f32().sqrt())
    }

    /// The larger of two values; NaN loses against any number (like
    /// `f32::max`).
    pub fn max(self, other: F16) -> F16 {
        if self.is_nan() {
            other
        } else if other.is_nan() || self >= other {
            self
        } else {
            other
        }
    }

    /// The smaller of two values; NaN loses against any number.
    pub fn min(self, other: F16) -> F16 {
        if self.is_nan() {
            other
        } else if other.is_nan() || self <= other {
            self
        } else {
            other
        }
    }

    /// Total ordering of the bit patterns as defined by IEEE-754
    /// `totalOrder`, mapping the sign-magnitude encoding to two's complement.
    pub fn total_cmp(self, other: F16) -> Ordering {
        let a = to_comparable(self.0);
        let b = to_comparable(other.0);
        a.cmp(&b)
    }
}

/// Maps the sign-magnitude encoding onto an unsigned key whose natural
/// ordering matches IEEE-754 `totalOrder`: negative values (sign bit set)
/// are bit-flipped so bigger magnitude sorts lower, positive values get the
/// high bit set so they sort above all negatives.
#[inline]
fn to_comparable(bits: u16) -> u16 {
    if bits & 0x8000 != 0 {
        !bits
    } else {
        bits | 0x8000
    }
}

impl PartialEq for F16 {
    fn eq(&self, other: &F16) -> bool {
        if self.is_nan() || other.is_nan() {
            false
        } else if (self.0 | other.0) & 0x7FFF == 0 {
            true // +0 == -0
        } else {
            self.0 == other.0
        }
    }
}

impl PartialOrd for F16 {
    fn partial_cmp(&self, other: &F16) -> Option<Ordering> {
        self.to_f32().partial_cmp(&other.to_f32())
    }
}

impl fmt::Debug for F16 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "F16({})", self.to_f32())
    }
}

impl fmt::Display for F16 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(&self.to_f32(), f)
    }
}

/// Error returned when parsing an [`F16`] from a string fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseF16Error;

impl fmt::Display for ParseF16Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("invalid half-precision float literal")
    }
}

impl std::error::Error for ParseF16Error {}

impl FromStr for F16 {
    type Err = ParseF16Error;

    fn from_str(s: &str) -> Result<F16, ParseF16Error> {
        s.parse::<f32>()
            .map(F16::from_f32)
            .map_err(|_| ParseF16Error)
    }
}

impl From<F16> for f32 {
    fn from(x: F16) -> f32 {
        x.to_f32()
    }
}

impl From<F16> for f64 {
    fn from(x: F16) -> f64 {
        x.to_f64()
    }
}

macro_rules! impl_binop {
    ($trait:ident, $method:ident, $assign_trait:ident, $assign_method:ident, $op:tt) => {
        impl $trait for F16 {
            type Output = F16;
            #[inline]
            fn $method(self, rhs: F16) -> F16 {
                F16::from_f32(self.to_f32() $op rhs.to_f32())
            }
        }

        impl $assign_trait for F16 {
            #[inline]
            fn $assign_method(&mut self, rhs: F16) {
                *self = *self $op rhs;
            }
        }
    };
}

impl_binop!(Add, add, AddAssign, add_assign, +);
impl_binop!(Sub, sub, SubAssign, sub_assign, -);
impl_binop!(Mul, mul, MulAssign, mul_assign, *);
impl_binop!(Div, div, DivAssign, div_assign, /);

impl Neg for F16 {
    type Output = F16;
    #[inline]
    fn neg(self) -> F16 {
        F16(self.0 ^ 0x8000)
    }
}

impl core::iter::Sum for F16 {
    fn sum<I: Iterator<Item = F16>>(iter: I) -> F16 {
        iter.fold(F16::ZERO, |acc, x| acc + x)
    }
}

/// `f32` bits of 2⁻¹⁴, the smallest binary16 normal.
const F16_MIN_NORMAL_AS_F32: u32 = 0x3880_0000;
/// `f32` bits of 2¹⁶: magnitudes from here up round to binary16 infinity.
const F16_OVERFLOW_AS_F32: u32 = 0x4780_0000;
/// `f32` bits of +∞; any magnitude above it is a NaN.
const F32_INFINITY: u32 = 0x7F80_0000;
/// The exponent rebias from binary32 (127) to binary16 (15), in place.
const REBIAS: u32 = (127 - 15) << 23;
/// 2¹¹², the scale between binary16 bits read in binary32's layout and
/// their value.
const TWO_POW_112: f32 = f32::from_bits(REBIAS + (127 << 23));

/// Converts an `f32` to binary16 bits with round-to-nearest-even.
///
/// NaNs stay NaN with the quiet bit set and the top ten bits of their
/// payload kept.
#[inline]
pub fn f32_to_f16_bits(value: f32) -> u16 {
    let x = value.to_bits();
    let sign = (x >> 16) as u16 & 0x8000;
    let a = x & 0x7FFF_FFFF;
    let magnitude = if a < F16_MIN_NORMAL_AS_F32 {
        // Subnormal or zero in binary16. The ULP of 0.5 in `f32` is 2⁻²⁴,
        // binary16's subnormal step, so the `f32` addition itself rounds
        // the magnitude to a whole number of steps, ties to even; that
        // number sits in the low bits of the sum.
        ((f32::from_bits(a) + 0.5).to_bits() - 0.5f32.to_bits()) as u16
    } else if a < F16_OVERFLOW_AS_F32 {
        // Normal: rebias the exponent, then round the 13 dropped bits to
        // nearest, ties to the even kept bit. A carry out of the mantissa
        // moves into the exponent, which is right, up to infinity for
        // magnitudes in [65520, 65536).
        let odd = (a >> 13) & 1;
        ((a - REBIAS + 0xFFF + odd) >> 13) as u16
    } else if a <= F32_INFINITY {
        // Overflow or infinity.
        0x7C00
    } else {
        // NaN: the quiet bit set, the payload's top ten bits kept.
        0x7E00 | ((a >> 13) & 0x03FF) as u16
    };
    sign | magnitude
}

/// Converts binary16 bits to an `f32`. This widening conversion is exact.
///
/// NaNs stay NaN with the quiet bit set and their payload kept.
#[inline]
pub fn f16_bits_to_f32(i: u16) -> f32 {
    let sign = u32::from(i & 0x8000) << 16;
    let em = u32::from(i & 0x7FFF);
    if em >= 0x7C00 {
        // Infinity, or NaN with the quiet bit set.
        let quiet = if em > 0x7C00 { 0x0040_0000 } else { 0 };
        return f32::from_bits(sign | F32_INFINITY | quiet | ((em & 0x03FF) << 13));
    }
    // Read as `f32` bits, `em << 13` has binary16's exponent field in
    // binary32's place: a normal comes out 2¹¹² too small, and a subnormal
    // or zero lands on the `f32` subnormal (or zero) that is 2¹¹² too small
    // too. One exact multiplication rescales all three. With a subnormal
    // operand that multiplication is slow on some CPUs (~16× on an x86-64
    // Xeon), but binary16 subnormals are rare in the datapath, and a
    // separate integer path for normals made the FP16 heads ~7% slower.
    f32::from_bits(sign | (em << 13)) * TWO_POW_112
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants_roundtrip() {
        assert_eq!(F16::ZERO.to_f32(), 0.0);
        assert_eq!(F16::ONE.to_f32(), 1.0);
        assert_eq!(F16::NEG_ONE.to_f32(), -1.0);
        assert_eq!(F16::MAX.to_f32(), 65504.0);
        assert_eq!(F16::MIN.to_f32(), -65504.0);
        assert_eq!(F16::MIN_POSITIVE.to_f32(), 2.0f32.powi(-14));
        assert_eq!(F16::MIN_POSITIVE_SUBNORMAL.to_f32(), 2.0f32.powi(-24));
        assert_eq!(F16::EPSILON.to_f32(), 2.0f32.powi(-10));
        assert!(F16::INFINITY.is_infinite());
        assert!(F16::NAN.is_nan());
    }

    #[test]
    fn exact_small_integers_roundtrip() {
        for i in -2048..=2048 {
            let x = i as f32;
            assert_eq!(F16::from_f32(x).to_f32(), x, "integer {i} must be exact");
        }
    }

    #[test]
    fn rounding_to_nearest_even() {
        // 1 + 2^-11 is exactly halfway between 1.0 and 1 + 2^-10: ties to even -> 1.0.
        let tie = 1.0 + 2.0f32.powi(-11);
        assert_eq!(F16::from_f32(tie).to_f32(), 1.0);
        // 1 + 3*2^-11 is halfway between 1+2^-10 and 1+2^-9: ties to even -> 1+2^-9.
        let tie2 = 1.0 + 3.0 * 2.0f32.powi(-11);
        assert_eq!(F16::from_f32(tie2).to_f32(), 1.0 + 2.0f32.powi(-9));
        // Slightly above a tie rounds up.
        let above = 1.0 + 2.0f32.powi(-11) + 2.0f32.powi(-20);
        assert_eq!(F16::from_f32(above).to_f32(), 1.0 + 2.0f32.powi(-10));
    }

    #[test]
    fn overflow_saturates_to_infinity() {
        assert_eq!(F16::from_f32(65504.0), F16::MAX);
        // Midpoint between MAX and the next (unrepresentable) step: 65520 -> inf.
        assert_eq!(F16::from_f32(65520.0), F16::INFINITY);
        assert_eq!(F16::from_f32(65519.99), F16::MAX);
        assert_eq!(F16::from_f32(-65520.0), F16::NEG_INFINITY);
        assert_eq!(F16::from_f32(1e30), F16::INFINITY);
    }

    #[test]
    fn underflow_and_subnormals() {
        let min_sub = 2.0f32.powi(-24);
        assert_eq!(F16::from_f32(min_sub).to_f32(), min_sub);
        // Half of the smallest subnormal ties to even -> 0.
        assert_eq!(F16::from_f32(min_sub / 2.0).to_f32(), 0.0);
        // Just above half rounds up to the smallest subnormal.
        assert_eq!(F16::from_f32(min_sub * 0.6).to_f32(), min_sub);
        // Subnormal arithmetic is preserved.
        let x = F16::from_f32(3.0 * min_sub);
        assert_eq!(x.to_f32(), 3.0 * min_sub);
    }

    #[test]
    fn signed_zero_semantics() {
        assert_eq!(F16::from_f32(-0.0).to_bits(), 0x8000);
        assert_eq!(F16::NEG_ZERO, F16::ZERO);
        assert!(F16::NEG_ZERO.is_sign_negative());
    }

    #[test]
    #[allow(clippy::neg_cmp_op_on_partial_ord)] // NaN comparing false IS the property under test
    fn nan_propagates_and_compares_false() {
        let nan = F16::NAN;
        assert!(nan.is_nan());
        assert!((nan + F16::ONE).is_nan());
        assert_ne!(nan, nan);
        assert!(!(nan < F16::ONE) && !(nan >= F16::ONE));
        assert!(F16::from_f32(f32::NAN).is_nan());
    }

    #[test]
    fn arithmetic_rounds_per_operation() {
        // Absorption: adding half an ULP of 1.0 leaves 1.0 unchanged, which
        // only happens if the addition itself rounds to binary16.
        let one = F16::ONE;
        let half_ulp = F16::from_f32(2.0f32.powi(-12));
        assert_eq!((one + half_ulp).to_f32(), 1.0);
        // In f32 the same addition would be exact (and not equal to 1).
        assert_ne!(1.0f32 + 2.0f32.powi(-12), 1.0f32);
        // But 0.25 * 4 == 1 exactly.
        let q = F16::from_f32(0.25);
        assert_eq!((q + q + q + q).to_f32(), 1.0);
    }

    #[test]
    fn mul_add_rounds_once() {
        // Choose values where the product needs more than 10 mantissa bits:
        // 1.001 * 1.001 etc. mac_round_each loses the low bits before the
        // add; mul_add keeps them.
        let a = F16::from_f32(1.0 + 2.0f32.powi(-10));
        let b = F16::from_f32(1.0 + 2.0f32.powi(-10));
        let c = F16::from_f32(-1.0);
        let fused = a.mul_add(b, c);
        let split = a.mac_round_each(b, c);
        // fused: a*b-1 = 2^-9 + 2^-20 -> representable region near 2^-9
        // split: a*b rounds to 1+2^-9 (tie up at 2^-20? no: exact product is
        // 1 + 2^-9 + 2^-20, rounds to 1+2^-9), minus 1 -> 2^-9 exactly.
        assert!(fused.to_f32() >= split.to_f32());
    }

    #[test]
    fn exp_matches_f32_rounded() {
        for &x in &[-8.0f32, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0, 5.0] {
            let got = F16::from_f32(x).exp().to_f32();
            let want = F16::from_f32(x.exp()).to_f32();
            assert_eq!(got, want, "exp({x})");
        }
        // exp of a large value overflows to infinity in half precision.
        assert!(F16::from_f32(12.0).exp().is_infinite());
    }

    #[test]
    fn ordering_matches_f32() {
        let vals = [-65504.0f32, -1.5, -0.0, 0.0, 1e-5, 0.5, 1.0, 65504.0];
        for &a in &vals {
            for &b in &vals {
                let fa = F16::from_f32(a);
                let fb = F16::from_f32(b);
                assert_eq!(
                    fa.partial_cmp(&fb),
                    fa.to_f32().partial_cmp(&fb.to_f32()),
                    "cmp {a} {b}"
                );
            }
        }
    }

    #[test]
    fn min_max_ignore_nan() {
        assert_eq!(F16::NAN.max(F16::ONE), F16::ONE);
        assert_eq!(F16::ONE.max(F16::NAN), F16::ONE);
        assert_eq!(F16::NAN.min(F16::ONE), F16::ONE);
        assert_eq!(F16::from_f32(2.0).max(F16::ONE).to_f32(), 2.0);
    }

    #[test]
    fn parse_from_str() {
        assert_eq!("1.5".parse::<F16>().unwrap().to_f32(), 1.5);
        assert!("bogus".parse::<F16>().is_err());
    }

    #[test]
    fn sum_iterator() {
        let xs = [F16::ONE; 10];
        let s: F16 = xs.iter().copied().sum();
        assert_eq!(s.to_f32(), 10.0);
    }

    /// The narrowing conversion as first written, one branch per case:
    /// the reference the branch-light [`f32_to_f16_bits`] is held to.
    fn reference_f32_to_f16_bits(value: f32) -> u16 {
        let x: u32 = value.to_bits();

        let sign = x & 0x8000_0000;
        let exp = x & 0x7F80_0000;
        let man = x & 0x007F_FFFF;

        // Infinity or NaN: all exponent bits set.
        if exp == 0x7F80_0000 {
            let nan_bit = if man == 0 { 0 } else { 0x0200 };
            return ((sign >> 16) | 0x7C00 | nan_bit | (man >> 13)) as u16;
        }

        let half_sign = sign >> 16;
        let unbiased_exp = ((exp >> 23) as i32) - 127;
        let half_exp = unbiased_exp + 15;

        // Overflow to infinity. Values at or above 2^16 - 2^4 (the midpoint
        // between F16::MAX and the next binary16 step) also overflow; they
        // land here because rounding the mantissa below carries into the
        // exponent.
        if half_exp >= 0x1F {
            return (half_sign | 0x7C00) as u16;
        }

        if half_exp <= 0 {
            // Result is subnormal or zero in binary16.
            if 14 - half_exp > 24 {
                // Magnitude below half the smallest subnormal: rounds to zero.
                return half_sign as u16;
            }
            let man = man | 0x0080_0000; // restore the implicit leading bit
            let shift = (14 - half_exp) as u32;
            let mut half_man = man >> shift;
            // Round to nearest even on the bits shifted out.
            let round_bit = 1u32 << (shift - 1);
            if (man & round_bit) != 0 && (man & (3 * round_bit - 1)) != 0 {
                half_man += 1;
            }
            return (half_sign | half_man) as u16;
        }

        let half_exp = (half_exp as u32) << 10;
        let half_man = man >> 13;
        let round_bit = 0x0000_1000u32;
        if (x & round_bit) != 0 && (x & (3 * round_bit - 1)) != 0 {
            // Rounding up may carry the mantissa into the exponent; that is
            // the correct behaviour (e.g. it turns the largest-mantissa
            // exponent-30 value into infinity).
            ((half_sign | half_exp | half_man) + 1) as u16
        } else {
            (half_sign | half_exp | half_man) as u16
        }
    }

    /// The widening conversion as first written: the reference for
    /// [`f16_bits_to_f32`].
    fn reference_f16_bits_to_f32(i: u16) -> f32 {
        // Signed zero shortcut.
        if i & 0x7FFF == 0 {
            return f32::from_bits((i as u32) << 16);
        }

        let half_sign = (i & 0x8000) as u32;
        let half_exp = (i & 0x7C00) as u32;
        let half_man = (i & 0x03FF) as u32;

        if half_exp == 0x7C00 {
            if half_man == 0 {
                return f32::from_bits((half_sign << 16) | 0x7F80_0000);
            }
            // NaN: force the quiet bit, preserve payload.
            return f32::from_bits((half_sign << 16) | 0x7FC0_0000 | (half_man << 13));
        }

        let sign = half_sign << 16;
        let unbiased_exp = ((half_exp as i32) >> 10) - 15;

        if half_exp == 0 {
            // Subnormal: normalise by shifting the mantissa up.
            let e = (half_man as u16).leading_zeros() - 6;
            let exp = (127 - 15 - e) << 23;
            let man = (half_man << (14 + e)) & 0x007F_FFFF;
            return f32::from_bits(sign | exp | man);
        }

        let exp = ((unbiased_exp + 127) as u32) << 23;
        let man = half_man << 13;
        f32::from_bits(sign | exp | man)
    }

    /// Asserts that both narrowings give the same bits for the `f32` with
    /// bit pattern `x`.
    fn assert_narrows_like_the_reference(x: u32) {
        let value = f32::from_bits(x);
        assert_eq!(
            f32_to_f16_bits(value),
            reference_f32_to_f16_bits(value),
            "f32 bits {x:#010x} ({value:e})"
        );
    }

    #[test]
    fn widening_matches_the_reference_on_every_binary16() {
        for bits in 0..=u16::MAX {
            assert_eq!(
                f16_bits_to_f32(bits).to_bits(),
                reference_f16_bits_to_f32(bits).to_bits(),
                "binary16 bits {bits:#06x}"
            );
        }
    }

    #[test]
    fn narrowing_matches_the_reference_on_ties_and_edges() {
        // Every sign and exponent: its power of two, the largest mantissa
        // below the next one (where rounding carries into the exponent),
        // and mantissas on a tie of each rounding position (binary16's
        // normal position and every subnormal shift) with one `f32` ULP
        // either side, under odd and even kept bits.
        const KEPT: [u32; 8] = [0, 1, 2, 3, 0x155, 0x2AA, 0x3FE, 0x3FF];
        for sign in [0, 0x8000_0000u32] {
            for exp in 0..=0xFFu32 {
                let base = sign | (exp << 23);
                assert_narrows_like_the_reference(base);
                assert_narrows_like_the_reference(base | 0x007F_FFFF);
                for shift in 1..=23u32 {
                    let tie = 1u32 << (shift - 1);
                    for kept in KEPT {
                        let on_tie = ((kept << shift) | tie) & 0x007F_FFFF;
                        for man in [on_tie - 1, on_tie, on_tie + 1] {
                            assert_narrows_like_the_reference(base | man);
                        }
                    }
                }
            }
        }
        // Around the overflow threshold, the edges of the subnormal range
        // (2⁻²⁵ rounds to zero, just above it to 2⁻²⁴) and the normal
        // range, one `f32` ULP either side of each.
        for edge in [
            65504.0f32,
            65519.99,
            65520.0,
            65536.0,
            2.0f32.powi(-25),
            2.0f32.powi(-24),
            2.0f32.powi(-14),
            f32::MIN_POSITIVE,
            f32::MAX,
        ] {
            let x = edge.to_bits();
            for bits in [x - 1, x, x + 1] {
                assert_narrows_like_the_reference(bits);
                assert_narrows_like_the_reference(bits | 0x8000_0000);
            }
        }
        // Signed zeros, infinities, and NaNs across their payloads, quiet
        // and signalling, with payload bits above and below the kept ten.
        for special in [0x0000_0000u32, 0x7F80_0000] {
            assert_narrows_like_the_reference(special);
            assert_narrows_like_the_reference(special | 0x8000_0000);
        }
        for payload in [
            0x0000_0001u32,
            0x0000_1FFF,
            0x0000_2000,
            0x0020_0000,
            0x003F_FFFF,
            0x0040_0000,
            0x0040_0001,
            0x0055_5555,
            0x007F_E000,
            0x007F_FFFF,
        ] {
            assert_narrows_like_the_reference(0x7F80_0000 | payload);
            assert_narrows_like_the_reference(0xFF80_0000 | payload);
        }
    }

    /// Every `f32` bit pattern: about 12 s on one core in release. Run with
    /// `cargo test --release -p swat-numeric -- --ignored`.
    #[test]
    #[ignore = "sweeps all 2^32 f32 bit patterns; run in release"]
    fn narrowing_matches_the_reference_on_every_f32() {
        for x in 0..=u32::MAX {
            let value = f32::from_bits(x);
            if f32_to_f16_bits(value) != reference_f32_to_f16_bits(value) {
                assert_narrows_like_the_reference(x);
            }
        }
    }

    /// Rounds `x` straight to binary16, nearest-even, without passing
    /// through `f32`: `x` is scaled by binary16's quantum at its
    /// magnitude (powers of two, so exactly), rounded to an integer, and
    /// scaled back, which leaves a binary16 value or a magnitude of at
    /// least 2¹⁶, which `from_f32` takes to infinity.
    fn round_f64_to_f16(x: f64) -> F16 {
        let a = x.abs();
        let quantum_exp = if a < 2f64.powi(-14) {
            -24
        } else {
            ((a.to_bits() >> 52) as i32 - 1023) - 10
        };
        let quantum = 2f64.powi(quantum_exp);
        let r = (a / quantum).round_ties_even() * quantum;
        F16::from_f32(if x.is_sign_negative() { -r } else { r } as f32)
    }

    #[test]
    fn arithmetic_through_f32_is_correctly_rounded() {
        // The module doc's claim: rounding the `f32` result of +, −, ×, ÷
        // or √ to binary16 equals one rounding of the exact result. `f64`
        // holds every binary16 sum, difference and product exactly, and a
        // quotient or root rounded to 53 bits rounds to 11 like the
        // exact value. Operands: every exponent and sign, with mantissas
        // at and next to the ends and the middle.
        let mut operands = Vec::new();
        for sign in [0u16, 0x8000] {
            for exp in 0..=30u16 {
                for man in [0u16, 1, 0x155, 0x200, 0x3FF] {
                    operands.push(F16::from_bits(sign | (exp << 10) | man));
                }
            }
        }
        let check = |op: char, a: F16, b: F16, got: F16, exact: f64| {
            let want = round_f64_to_f16(exact);
            if want.is_nan() {
                assert!(got.is_nan(), "{a:?} {op} {b:?} = {got:?}, want NaN");
            } else {
                assert_eq!(got.to_bits(), want.to_bits(), "{a:?} {op} {b:?}");
            }
        };
        for &a in &operands {
            let x = a.to_f64();
            check('√', a, a, a.sqrt(), x.sqrt());
            for &b in &operands {
                let y = b.to_f64();
                check('+', a, b, a + b, x + y);
                check('-', a, b, a - b, x - y);
                check('*', a, b, a * b, x * y);
                check('/', a, b, a / b, x / y);
            }
        }
    }

    #[test]
    fn exhaustive_f16_to_f32_to_f16_roundtrip() {
        // Every one of the 65536 bit patterns must survive the round trip
        // (NaNs keep NaN-ness; everything else is bit-exact).
        for bits in 0..=u16::MAX {
            let x = F16::from_bits(bits);
            let rt = F16::from_f32(x.to_f32());
            if x.is_nan() {
                assert!(rt.is_nan(), "bits {bits:#06x}");
            } else {
                assert_eq!(rt.to_bits(), bits, "bits {bits:#06x}");
            }
        }
    }
}
