//! Arbitrary-precision unsigned integer arithmetic.
//!
//! This is the numeric substrate for the RSA signatures used by the
//! tamper-evident log.  The representation is a little-endian vector of
//! 32-bit limbs with no leading zero limbs (the canonical form of zero is an
//! empty limb vector).  All operations are implemented from scratch; the
//! division routine uses simple shift-and-subtract long division, which is
//! more than fast enough for the 768–2048-bit moduli the AVM experiments use.

use std::cmp::Ordering;

use rand::Rng;

/// Arbitrary-precision unsigned integer.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct BigUint {
    /// Little-endian 32-bit limbs with no trailing (most-significant) zeros.
    limbs: Vec<u32>,
}

impl BigUint {
    /// The value zero.
    pub fn zero() -> Self {
        BigUint { limbs: Vec::new() }
    }

    /// The value one.
    pub fn one() -> Self {
        BigUint { limbs: vec![1] }
    }

    /// Constructs a value from a `u64`.
    pub fn from_u64(v: u64) -> Self {
        let mut n = BigUint {
            limbs: vec![v as u32, (v >> 32) as u32],
        };
        n.normalize();
        n
    }

    /// Constructs a value from big-endian bytes.
    pub fn from_be_bytes(bytes: &[u8]) -> Self {
        let mut limbs = Vec::with_capacity(bytes.len().div_ceil(4));
        let mut chunk_iter = bytes.rchunks(4);
        for chunk in &mut chunk_iter {
            let mut limb = 0u32;
            for &b in chunk {
                limb = (limb << 8) | b as u32;
            }
            limbs.push(limb);
        }
        let mut n = BigUint { limbs };
        n.normalize();
        n
    }

    /// Serializes to big-endian bytes with no leading zero bytes.
    pub fn to_be_bytes(&self) -> Vec<u8> {
        if self.is_zero() {
            return vec![0];
        }
        let mut out = Vec::with_capacity(self.limbs.len() * 4);
        for (i, limb) in self.limbs.iter().enumerate().rev() {
            let bytes = limb.to_be_bytes();
            if i == self.limbs.len() - 1 {
                // Skip leading zero bytes of the most significant limb.
                let mut started = false;
                for b in bytes {
                    if b != 0 || started {
                        out.push(b);
                        started = true;
                    }
                }
                if !started {
                    // Normalised values never have a zero top limb, but be safe.
                    out.push(0);
                }
            } else {
                out.extend_from_slice(&bytes);
            }
        }
        out
    }

    /// Serializes to exactly `len` big-endian bytes, left-padded with zeros.
    ///
    /// Returns `None` if the value does not fit.
    pub fn to_be_bytes_padded(&self, len: usize) -> Option<Vec<u8>> {
        let raw = self.to_be_bytes();
        let raw = if raw == [0] { Vec::new() } else { raw };
        if raw.len() > len {
            return None;
        }
        let mut out = vec![0u8; len - raw.len()];
        out.extend_from_slice(&raw);
        Some(out)
    }

    /// True if the value is zero.
    pub fn is_zero(&self) -> bool {
        self.limbs.is_empty()
    }

    /// True if the value is one.
    pub fn is_one(&self) -> bool {
        self.limbs == [1]
    }

    /// True if the value is even.
    pub fn is_even(&self) -> bool {
        self.limbs.first().is_none_or(|l| l & 1 == 0)
    }

    /// Number of significant bits.
    pub fn bit_len(&self) -> usize {
        match self.limbs.last() {
            None => 0,
            Some(top) => (self.limbs.len() - 1) * 32 + (32 - top.leading_zeros() as usize),
        }
    }

    /// Returns bit `i` (little-endian bit order).
    pub fn bit(&self, i: usize) -> bool {
        let limb = i / 32;
        let off = i % 32;
        self.limbs.get(limb).is_some_and(|l| (l >> off) & 1 == 1)
    }

    fn normalize(&mut self) {
        while self.limbs.last() == Some(&0) {
            self.limbs.pop();
        }
    }

    /// Comparison.
    pub fn cmp_big(&self, other: &BigUint) -> Ordering {
        if self.limbs.len() != other.limbs.len() {
            return self.limbs.len().cmp(&other.limbs.len());
        }
        for (a, b) in self.limbs.iter().rev().zip(other.limbs.iter().rev()) {
            match a.cmp(b) {
                Ordering::Equal => continue,
                ord => return ord,
            }
        }
        Ordering::Equal
    }

    /// Addition.
    pub fn add(&self, other: &BigUint) -> BigUint {
        let mut limbs = Vec::with_capacity(self.limbs.len().max(other.limbs.len()) + 1);
        let mut carry = 0u64;
        for i in 0..self.limbs.len().max(other.limbs.len()) {
            let a = *self.limbs.get(i).unwrap_or(&0) as u64;
            let b = *other.limbs.get(i).unwrap_or(&0) as u64;
            let sum = a + b + carry;
            limbs.push(sum as u32);
            carry = sum >> 32;
        }
        if carry != 0 {
            limbs.push(carry as u32);
        }
        let mut n = BigUint { limbs };
        n.normalize();
        n
    }

    /// Subtraction; panics if `other > self`.
    ///
    /// # Panics
    ///
    /// Panics when the result would be negative.  Callers in this workspace
    /// always check magnitudes first; use [`BigUint::checked_sub`] otherwise.
    pub fn sub(&self, other: &BigUint) -> BigUint {
        self.checked_sub(other)
            .expect("BigUint::sub would underflow")
    }

    /// Subtraction returning `None` on underflow.
    pub fn checked_sub(&self, other: &BigUint) -> Option<BigUint> {
        if self.cmp_big(other) == Ordering::Less {
            return None;
        }
        let mut limbs = Vec::with_capacity(self.limbs.len());
        let mut borrow = 0i64;
        for i in 0..self.limbs.len() {
            let a = self.limbs[i] as i64;
            let b = *other.limbs.get(i).unwrap_or(&0) as i64;
            let mut diff = a - b - borrow;
            if diff < 0 {
                diff += 1 << 32;
                borrow = 1;
            } else {
                borrow = 0;
            }
            limbs.push(diff as u32);
        }
        let mut n = BigUint { limbs };
        n.normalize();
        Some(n)
    }

    /// Multiplication (schoolbook).
    pub fn mul(&self, other: &BigUint) -> BigUint {
        if self.is_zero() || other.is_zero() {
            return BigUint::zero();
        }
        let mut limbs = vec![0u32; self.limbs.len() + other.limbs.len()];
        for (i, &a) in self.limbs.iter().enumerate() {
            let mut carry = 0u64;
            for (j, &b) in other.limbs.iter().enumerate() {
                let idx = i + j;
                let cur = limbs[idx] as u64 + (a as u64) * (b as u64) + carry;
                limbs[idx] = cur as u32;
                carry = cur >> 32;
            }
            let mut idx = i + other.limbs.len();
            while carry != 0 {
                let cur = limbs[idx] as u64 + carry;
                limbs[idx] = cur as u32;
                carry = cur >> 32;
                idx += 1;
            }
        }
        let mut n = BigUint { limbs };
        n.normalize();
        n
    }

    /// Left shift by `bits`.
    pub fn shl(&self, bits: usize) -> BigUint {
        if self.is_zero() {
            return BigUint::zero();
        }
        let limb_shift = bits / 32;
        let bit_shift = bits % 32;
        let mut limbs = vec![0u32; limb_shift];
        if bit_shift == 0 {
            limbs.extend_from_slice(&self.limbs);
        } else {
            let mut carry = 0u32;
            for &l in &self.limbs {
                limbs.push((l << bit_shift) | carry);
                carry = l >> (32 - bit_shift);
            }
            if carry != 0 {
                limbs.push(carry);
            }
        }
        let mut n = BigUint { limbs };
        n.normalize();
        n
    }

    /// Right shift by `bits`.
    pub fn shr(&self, bits: usize) -> BigUint {
        let limb_shift = bits / 32;
        if limb_shift >= self.limbs.len() {
            return BigUint::zero();
        }
        let bit_shift = bits % 32;
        let mut limbs = Vec::with_capacity(self.limbs.len() - limb_shift);
        if bit_shift == 0 {
            limbs.extend_from_slice(&self.limbs[limb_shift..]);
        } else {
            let src = &self.limbs[limb_shift..];
            for i in 0..src.len() {
                let lo = src[i] >> bit_shift;
                let hi = if i + 1 < src.len() {
                    src[i + 1] << (32 - bit_shift)
                } else {
                    0
                };
                limbs.push(lo | hi);
            }
        }
        let mut n = BigUint { limbs };
        n.normalize();
        n
    }

    /// Division with remainder: returns `(self / divisor, self % divisor)`.
    ///
    /// # Panics
    ///
    /// Panics if `divisor` is zero.
    pub fn div_rem(&self, divisor: &BigUint) -> (BigUint, BigUint) {
        assert!(!divisor.is_zero(), "division by zero");
        match self.cmp_big(divisor) {
            Ordering::Less => return (BigUint::zero(), self.clone()),
            Ordering::Equal => return (BigUint::one(), BigUint::zero()),
            Ordering::Greater => {}
        }
        // Fast path: single-limb divisor.
        if divisor.limbs.len() == 1 {
            let d = divisor.limbs[0] as u64;
            let mut rem = 0u64;
            let mut q = vec![0u32; self.limbs.len()];
            for i in (0..self.limbs.len()).rev() {
                let cur = (rem << 32) | self.limbs[i] as u64;
                q[i] = (cur / d) as u32;
                rem = cur % d;
            }
            let mut quo = BigUint { limbs: q };
            quo.normalize();
            return (quo, BigUint::from_u64(rem));
        }
        // General case: bitwise long division.
        let shift = self.bit_len() - divisor.bit_len();
        let mut remainder = self.clone();
        let mut quotient = BigUint::zero();
        let mut shifted = divisor.shl(shift);
        for i in (0..=shift).rev() {
            if remainder.cmp_big(&shifted) != Ordering::Less {
                remainder = remainder.sub(&shifted);
                quotient = quotient.set_bit(i);
            }
            shifted = shifted.shr(1);
        }
        (quotient, remainder)
    }

    /// Returns a copy with bit `i` set.
    fn set_bit(mut self, i: usize) -> BigUint {
        let limb = i / 32;
        let off = i % 32;
        if self.limbs.len() <= limb {
            self.limbs.resize(limb + 1, 0);
        }
        self.limbs[limb] |= 1 << off;
        self
    }

    /// Modular reduction.
    pub fn rem(&self, modulus: &BigUint) -> BigUint {
        self.div_rem(modulus).1
    }

    /// Modular multiplication.
    pub fn mulmod(&self, other: &BigUint, modulus: &BigUint) -> BigUint {
        self.mul(other).rem(modulus)
    }

    /// Modular exponentiation.
    ///
    /// For odd moduli (every RSA modulus and prime factor) this dispatches to
    /// Montgomery-form fixed-window exponentiation over 64-bit limbs
    /// ([`MontgomeryCtx64`]), which replaces the per-multiply `div_rem`
    /// reduction with word-level Montgomery reduction and halves the limb
    /// count relative to the storage representation.  Even moduli fall back
    /// to the classic square-and-multiply path ([`BigUint::modpow_slow`]).
    /// All paths return bit-identical results.
    pub fn modpow(&self, exponent: &BigUint, modulus: &BigUint) -> BigUint {
        assert!(!modulus.is_zero(), "modpow with zero modulus");
        if modulus.is_one() {
            return BigUint::zero();
        }
        match MontgomeryCtx64::new(modulus) {
            Some(ctx) => ctx.modpow(self, exponent),
            None => self.modpow_slow(exponent, modulus),
        }
    }

    /// Modular exponentiation by square-and-multiply with full `div_rem`
    /// reduction after every multiply.
    ///
    /// The production path for even moduli, and — being an independent
    /// algorithm — the reference the Montgomery path is pinned against:
    /// benches compare [`BigUint::modpow`] with it and the differential
    /// battery asserts the two produce identical results.
    pub fn modpow_slow(&self, exponent: &BigUint, modulus: &BigUint) -> BigUint {
        assert!(!modulus.is_zero(), "modpow with zero modulus");
        if modulus.is_one() {
            return BigUint::zero();
        }
        let mut result = BigUint::one();
        let mut base = self.rem(modulus);
        for i in 0..exponent.bit_len() {
            if exponent.bit(i) {
                result = result.mulmod(&base, modulus);
            }
            base = base.mulmod(&base, modulus);
        }
        result
    }

    /// Greatest common divisor (Euclid).
    pub fn gcd(&self, other: &BigUint) -> BigUint {
        let mut a = self.clone();
        let mut b = other.clone();
        while !b.is_zero() {
            let r = a.rem(&b);
            a = b;
            b = r;
        }
        a
    }

    /// Modular multiplicative inverse, if it exists.
    ///
    /// Uses the extended Euclidean algorithm with a signed bookkeeping pair.
    pub fn modinv(&self, modulus: &BigUint) -> Option<BigUint> {
        if modulus.is_zero() || modulus.is_one() {
            return None;
        }
        // Extended Euclid over signed values represented as (sign, magnitude).
        let mut r0 = modulus.clone();
        let mut r1 = self.rem(modulus);
        let mut t0 = SignedBig::zero();
        let mut t1 = SignedBig::positive(BigUint::one());
        while !r1.is_zero() {
            let (q, r2) = r0.div_rem(&r1);
            let t2 = t0.sub(&t1.mul_uint(&q));
            r0 = r1;
            r1 = r2;
            t0 = t1;
            t1 = t2;
        }
        if !r0.is_one() {
            return None;
        }
        Some(t0.to_mod(modulus))
    }

    /// Generates a uniformly random value less than `bound` (which must be nonzero).
    pub fn random_below<R: Rng + ?Sized>(rng: &mut R, bound: &BigUint) -> BigUint {
        assert!(!bound.is_zero(), "random_below with zero bound");
        let bits = bound.bit_len();
        loop {
            let candidate = BigUint::random_bits(rng, bits);
            if candidate.cmp_big(bound) == Ordering::Less {
                return candidate;
            }
        }
    }

    /// Generates a random value with at most `bits` bits.
    pub fn random_bits<R: Rng + ?Sized>(rng: &mut R, bits: usize) -> BigUint {
        let n_limbs = bits.div_ceil(32);
        let mut limbs: Vec<u32> = (0..n_limbs).map(|_| rng.gen()).collect();
        let extra = n_limbs * 32 - bits;
        if extra > 0 && !limbs.is_empty() {
            let last = limbs.len() - 1;
            limbs[last] >>= extra;
        }
        let mut n = BigUint { limbs };
        n.normalize();
        n
    }

    /// Generates a random value with exactly `bits` bits (top bit set) and odd.
    pub fn random_odd_with_bits<R: Rng + ?Sized>(rng: &mut R, bits: usize) -> BigUint {
        assert!(bits >= 2, "need at least two bits");
        let mut n = BigUint::random_bits(rng, bits);
        n = n.set_bit(bits - 1);
        n = n.set_bit(0);
        n
    }

    /// Miller–Rabin probabilistic primality test with `rounds` random bases.
    pub fn is_probable_prime<R: Rng + ?Sized>(&self, rng: &mut R, rounds: usize) -> bool {
        if self.is_zero() || self.is_one() {
            return false;
        }
        let two = BigUint::from_u64(2);
        if self.cmp_big(&two) == Ordering::Equal {
            return true;
        }
        if self.is_even() {
            return false;
        }
        // Trial division by small primes quickly rejects most composites.
        for &p in SMALL_PRIMES {
            let pb = BigUint::from_u64(p);
            if self.cmp_big(&pb) == Ordering::Equal {
                return true;
            }
            if self.rem(&pb).is_zero() {
                return false;
            }
        }
        // Write self - 1 = d * 2^s with d odd.
        let one = BigUint::one();
        let n_minus_1 = self.sub(&one);
        let mut d = n_minus_1.clone();
        let mut s = 0usize;
        while d.is_even() {
            d = d.shr(1);
            s += 1;
        }
        'witness: for _ in 0..rounds {
            let a = {
                // Pick a in [2, n-2].
                let upper = self.sub(&BigUint::from_u64(3));
                BigUint::random_below(rng, &upper).add(&two)
            };
            let mut x = a.modpow(&d, self);
            if x.is_one() || x.cmp_big(&n_minus_1) == Ordering::Equal {
                continue 'witness;
            }
            for _ in 0..s - 1 {
                x = x.mulmod(&x, self);
                if x.cmp_big(&n_minus_1) == Ordering::Equal {
                    continue 'witness;
                }
            }
            return false;
        }
        true
    }

    /// Generates a random probable prime with exactly `bits` bits.
    pub fn generate_prime<R: Rng + ?Sized>(rng: &mut R, bits: usize, mr_rounds: usize) -> BigUint {
        loop {
            let candidate = BigUint::random_odd_with_bits(rng, bits);
            if candidate.is_probable_prime(rng, mr_rounds) {
                return candidate;
            }
        }
    }
}

impl From<u64> for BigUint {
    fn from(v: u64) -> Self {
        BigUint::from_u64(v)
    }
}

impl PartialOrd for BigUint {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for BigUint {
    fn cmp(&self, other: &Self) -> Ordering {
        self.cmp_big(other)
    }
}

impl core::fmt::Display for BigUint {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        // Hexadecimal display keeps the implementation dependency-free.
        if self.is_zero() {
            return write!(f, "0x0");
        }
        write!(f, "0x")?;
        for (i, limb) in self.limbs.iter().enumerate().rev() {
            if i == self.limbs.len() - 1 {
                write!(f, "{limb:x}")?;
            } else {
                write!(f, "{limb:08x}")?;
            }
        }
        Ok(())
    }
}

/// Montgomery-form modular arithmetic for an odd modulus, over **64-bit
/// limbs**.
///
/// The per-packet RSA cost in the AVMM is dominated by modular
/// exponentiation; reducing with [`BigUint::div_rem`] after every multiply is
/// O(bits) shift-and-subtract steps per reduction.  A Montgomery context
/// replaces that with word-level CIOS reduction (Koç et al.): one pass of
/// multiply-accumulate per limb, no trial subtraction loop.  Building the
/// context costs one `div_rem` (for `R² mod n`), amortised over the hundreds
/// of multiplies inside an exponentiation.
///
/// [`BigUint`] stores 32-bit limbs; packing pairs of them into `u64` words
/// halves the limb count on x86-64, so the CIOS inner loops (general
/// multiply, SOS-reduced specialised squaring) run half as many iterations
/// with `u128` double-word intermediates — the 64×64→128 multiply is a
/// single `mul` instruction.  A conditional final subtraction keeps every
/// intermediate value `< n`, so results are bit-identical to the schoolbook
/// [`BigUint::modpow_slow`], which `tests/crypto_differential.rs` pins this
/// context against.
///
/// The fixed-window exponentiation here additionally selects table entries
/// with a constant-time masked scan ([`ct_select64`]) and multiplies on
/// every window — including zero windows, by the identity — so neither the
/// memory addresses touched nor the multiply count depend on exponent bits
/// (side-channel hygiene for the RSA signing path, which feeds secret CRT
/// exponents through here).
#[derive(Debug, Clone)]
pub struct MontgomeryCtx64 {
    /// Modulus limbs, exactly `k` of them.
    n: Vec<u64>,
    /// The modulus as a `BigUint` (for reductions at the boundary).
    n_big: BigUint,
    /// `-n⁻¹ mod 2⁶⁴`.
    n0_inv: u64,
    /// `R² mod n` where `R = 2^(64k)`, in padded limb form.
    r2: Vec<u64>,
    /// Limb count of the modulus.
    k: usize,
}

impl MontgomeryCtx64 {
    /// Builds a context for `modulus`; `None` when the modulus is even, zero
    /// or one (callers fall back to [`BigUint::modpow_slow`]).
    pub fn new(modulus: &BigUint) -> Option<MontgomeryCtx64> {
        if modulus.is_zero() || modulus.is_one() || modulus.is_even() {
            return None;
        }
        let k = modulus.limbs.len().div_ceil(2);
        let n = Self::pack(modulus, k);
        // Newton iteration for n0⁻¹ mod 2⁶⁴: correct bits double each step,
        // so six steps reach 64 from the seed's 1 (n0 odd ⇒ n0·1 ≡ 1 mod 2).
        let n0 = n[0];
        let mut inv = 1u64;
        for _ in 0..6 {
            inv = inv.wrapping_mul(2u64.wrapping_sub(n0.wrapping_mul(inv)));
        }
        let n0_inv = inv.wrapping_neg();
        // R² mod n, R = 2^(64k): the only full division in the context.
        let r2_big = BigUint::one().shl(128 * k).rem(modulus);
        let r2 = Self::pack(&r2_big, k);
        Some(MontgomeryCtx64 {
            n,
            n_big: modulus.clone(),
            n0_inv,
            r2,
            k,
        })
    }

    /// The modulus this context reduces by.
    pub fn modulus(&self) -> &BigUint {
        &self.n_big
    }

    /// Packs the 32-bit storage limbs into `k` 64-bit words (little-endian).
    fn pack(x: &BigUint, k: usize) -> Vec<u64> {
        let mut v = vec![0u64; k];
        for (i, &limb) in x.limbs.iter().enumerate() {
            v[i / 2] |= (limb as u64) << (32 * (i % 2));
        }
        v
    }

    /// Unpacks 64-bit limbs back into the 32-bit storage representation.
    fn unpack(limbs: &[u64]) -> BigUint {
        let mut out = Vec::with_capacity(limbs.len() * 2);
        for &limb in limbs {
            out.push(limb as u32);
            out.push((limb >> 32) as u32);
        }
        let mut big = BigUint { limbs: out };
        big.normalize();
        big
    }

    /// CIOS Montgomery multiplication: returns `a·b·R⁻¹ mod n`.
    ///
    /// Inputs must be `k` limbs and `< n`; the output is `k` limbs and `< n`.
    fn montmul(&self, a: &[u64], b: &[u64]) -> Vec<u64> {
        let k = self.k;
        let mut t = vec![0u64; k + 2];
        for &ai in a {
            let ai = ai as u128;
            // t += a[i] * b
            let mut carry = 0u128;
            for j in 0..k {
                let cur = t[j] as u128 + ai * b[j] as u128 + carry;
                t[j] = cur as u64;
                carry = cur >> 64;
            }
            let cur = t[k] as u128 + carry;
            t[k] = cur as u64;
            t[k + 1] = (cur >> 64) as u64;
            // t += m * n; t >>= 64  (m chosen so the low limb cancels)
            let m = (t[0].wrapping_mul(self.n0_inv)) as u128;
            let cur = t[0] as u128 + m * self.n[0] as u128;
            let mut carry = cur >> 64;
            for j in 1..k {
                let cur = t[j] as u128 + m * self.n[j] as u128 + carry;
                t[j - 1] = cur as u64;
                carry = cur >> 64;
            }
            let cur = t[k] as u128 + carry;
            t[k - 1] = cur as u64;
            t[k] = t[k + 1].wrapping_add((cur >> 64) as u64);
        }
        // Conditional subtraction: t < 2n, so at most one subtract of n.
        if t[k] != 0 || !limbs64_less(&t[..k], &self.n) {
            let borrow = limbs64_sub_assign(&mut t[..k], &self.n);
            debug_assert_eq!(t[k], borrow, "CIOS result was not < 2n");
            t[k] = 0;
        }
        t.truncate(k);
        t
    }

    /// Squaring-specialised Montgomery multiplication: returns
    /// `a·a·R⁻¹ mod n`, bit-identical to `montmul(a, a)`.
    ///
    /// Squaring needs only the upper triangle of the partial-product matrix:
    /// each off-diagonal product `a[i]·a[j]` (i ≠ j) appears twice in `a²`,
    /// so it is computed once and doubled, with the `k` diagonal squares
    /// added afterwards — ~half the single-precision multiplies of the
    /// general CIOS loop.  The reduction is a separate SOS pass (reduction
    /// cannot interleave with the doubling trick).  Fixed-window
    /// exponentiation spends most of its multiplies on squarings, which is
    /// where the gain comes from.
    fn montsqr(&self, a: &[u64]) -> Vec<u64> {
        let k = self.k;
        // --- multiplication phase: t = a², 2k limbs (+1 headroom) --------
        let mut t = vec![0u64; 2 * k + 1];
        for i in 0..k {
            let ai = a[i] as u128;
            let mut carry = 0u128;
            for j in i + 1..k {
                let cur = t[i + j] as u128 + ai * a[j] as u128 + carry;
                t[i + j] = cur as u64;
                carry = cur >> 64;
            }
            let mut idx = i + k;
            while carry != 0 {
                let cur = t[idx] as u128 + carry;
                t[idx] = cur as u64;
                carry = cur >> 64;
                idx += 1;
            }
        }
        // Double the off-diagonal sum (2·Σ a[i]a[j] ≤ a² < 2^(128k), so the
        // shifted-out carry lands inside the 2k limbs).
        let mut carry = 0u64;
        for limb in t.iter_mut().take(2 * k) {
            let cur = ((*limb as u128) << 1) | carry as u128;
            *limb = cur as u64;
            carry = (cur >> 64) as u64;
        }
        debug_assert_eq!(carry, 0, "doubled off-diagonal sum overflowed a²");
        // Diagonal squares.
        let mut carry = 0u128;
        for i in 0..k {
            let sq = (a[i] as u128) * (a[i] as u128);
            let lo = t[2 * i] as u128 + (sq & u64::MAX as u128) + carry;
            t[2 * i] = lo as u64;
            let hi = t[2 * i + 1] as u128 + (sq >> 64) + (lo >> 64);
            t[2 * i + 1] = hi as u64;
            carry = hi >> 64;
        }
        debug_assert_eq!(carry, 0, "a² overflowed 2k limbs");
        // --- reduction phase: SOS Montgomery reduction of t ---------------
        for i in 0..k {
            let m = (t[i].wrapping_mul(self.n0_inv)) as u128;
            let mut carry = 0u128;
            for j in 0..k {
                let cur = t[i + j] as u128 + m * self.n[j] as u128 + carry;
                t[i + j] = cur as u64;
                carry = cur >> 64;
            }
            let mut idx = i + k;
            while carry != 0 {
                let cur = t[idx] as u128 + carry;
                t[idx] = cur as u64;
                carry = cur >> 64;
                idx += 1;
            }
        }
        // Result = t >> 64k; t < a² + n·R < 2nR, so one conditional subtract.
        let mut r = t[k..=2 * k].to_vec();
        if r[k] != 0 || !limbs64_less(&r[..k], &self.n) {
            let borrow = limbs64_sub_assign(&mut r[..k], &self.n);
            debug_assert_eq!(r[k], borrow, "SOS result was not < 2n");
            r[k] = 0;
        }
        r.truncate(k);
        r
    }

    /// Converts into Montgomery form: `x·R mod n`.
    fn to_mont(&self, x: &BigUint) -> Vec<u64> {
        let reduced = x.rem(&self.n_big);
        self.montmul(&Self::pack(&reduced, self.k), &self.r2)
    }

    /// Converts out of Montgomery form.
    #[allow(clippy::wrong_self_convention)]
    fn from_mont(&self, x: &[u64]) -> BigUint {
        let mut one = vec![0u64; self.k];
        one[0] = 1;
        Self::unpack(&self.montmul(x, &one))
    }

    /// Modular multiplication through the context: `a·b mod n`.
    pub fn mulmod(&self, a: &BigUint, b: &BigUint) -> BigUint {
        let am = self.to_mont(a);
        let bm = self.to_mont(b);
        self.from_mont(&self.montmul(&am, &bm))
    }

    /// Modular squaring through the context's specialised squaring path:
    /// `a·a mod n`, bit-identical to `mulmod(a, a)`.
    pub fn sqrmod(&self, a: &BigUint) -> BigUint {
        let am = self.to_mont(a);
        self.from_mont(&self.montsqr(&am))
    }

    /// Fixed-window modular exponentiation: `base^exponent mod n`.
    ///
    /// Uses a 2^w-entry table of small powers; the window width scales with
    /// the exponent size so the table build cost (2^w − 1 multiplies) is
    /// amortised by the saved per-window multiplies (binary scan for short
    /// exponents like `e = 65537`, where a table would cost more than it
    /// saves).  The table lookup is a constant-time masked scan
    /// ([`ct_select64`]) and every window multiplies (zero windows multiply
    /// by the Montgomery identity, which leaves the accumulator
    /// bit-identical), so the access pattern carries no information about
    /// the exponent.
    pub fn modpow(&self, base: &BigUint, exponent: &BigUint) -> BigUint {
        let bits = exponent.bit_len();
        let one_mont = self.montmul(
            &{
                let mut one = vec![0u64; self.k];
                one[0] = 1;
                one
            },
            &self.r2,
        );
        if bits == 0 {
            return self.from_mont(&one_mont);
        }
        let base_mont = self.to_mont(base);
        let w: usize = if bits >= 1024 {
            5
        } else if bits >= 64 {
            4
        } else {
            1
        };
        if w == 1 {
            // Left-to-right binary scan (short public exponents only).
            let mut acc = one_mont;
            for i in (0..bits).rev() {
                acc = self.montsqr(&acc);
                if exponent.bit(i) {
                    acc = self.montmul(&acc, &base_mont);
                }
            }
            return self.from_mont(&acc);
        }
        // Table of base^0 .. base^(2^w - 1) in Montgomery form.
        let mut table = Vec::with_capacity(1 << w);
        table.push(one_mont.clone());
        for i in 1..(1usize << w) {
            table.push(self.montmul(&table[i - 1], &base_mont));
        }
        let windows = bits.div_ceil(w);
        let mut acc = one_mont;
        for widx in (0..windows).rev() {
            for _ in 0..w {
                acc = self.montsqr(&acc);
            }
            let mut val = 0usize;
            for b in (0..w).rev() {
                val = (val << 1) | exponent.bit(widx * w + b) as usize;
            }
            let entry = ct_select64(&table, val);
            acc = self.montmul(&acc, &entry);
        }
        self.from_mont(&acc)
    }
}

/// Constant-time table selection: returns `table[index]` by scanning every
/// entry and accumulating under a mask, so the touched addresses and the
/// instruction stream are independent of `index`.
///
/// Bit-identical to naive indexing (pinned by the differential battery);
/// used by [`MontgomeryCtx64::modpow`] so the fixed-window exponentiation
/// never indexes its table with secret exponent bits.
pub fn ct_select64(table: &[Vec<u64>], index: usize) -> Vec<u64> {
    let width = table.first().map_or(0, |e| e.len());
    let mut out = vec![0u64; width];
    for (i, entry) in table.iter().enumerate() {
        // All-ones when i == index, all-zeros otherwise, without a branch:
        // x | -x has its top bit set exactly when x != 0.
        let x = (i ^ index) as u64;
        let mask = ((x | x.wrapping_neg()) >> 63).wrapping_sub(1);
        for (slot, &limb) in out.iter_mut().zip(entry) {
            *slot |= limb & mask;
        }
    }
    out
}

/// `a < b` over equal-length little-endian 64-bit limb slices.
fn limbs64_less(a: &[u64], b: &[u64]) -> bool {
    debug_assert_eq!(a.len(), b.len());
    for i in (0..a.len()).rev() {
        match a[i].cmp(&b[i]) {
            Ordering::Less => return true,
            Ordering::Greater => return false,
            Ordering::Equal => {}
        }
    }
    false
}

/// `a -= b` over equal-length little-endian 64-bit limb slices; returns the
/// final borrow (1 when `b > a`).
fn limbs64_sub_assign(a: &mut [u64], b: &[u64]) -> u64 {
    debug_assert_eq!(a.len(), b.len());
    let mut borrow = 0u64;
    for i in 0..a.len() {
        let (d1, b1) = a[i].overflowing_sub(b[i]);
        let (d2, b2) = d1.overflowing_sub(borrow);
        a[i] = d2;
        borrow = (b1 | b2) as u64;
    }
    borrow
}

/// Minimal signed big integer used only by the extended Euclidean algorithm.
#[derive(Debug, Clone)]
struct SignedBig {
    negative: bool,
    magnitude: BigUint,
}

impl SignedBig {
    fn zero() -> Self {
        SignedBig {
            negative: false,
            magnitude: BigUint::zero(),
        }
    }

    fn positive(magnitude: BigUint) -> Self {
        SignedBig {
            negative: false,
            magnitude,
        }
    }

    fn sub(&self, other: &SignedBig) -> SignedBig {
        match (self.negative, other.negative) {
            (false, true) => SignedBig {
                negative: false,
                magnitude: self.magnitude.add(&other.magnitude),
            },
            (true, false) => SignedBig {
                negative: true,
                magnitude: self.magnitude.add(&other.magnitude),
            },
            (sn, _) => {
                // Same sign: subtract magnitudes.
                if self.magnitude.cmp_big(&other.magnitude) == Ordering::Less {
                    SignedBig {
                        negative: !sn,
                        magnitude: other.magnitude.sub(&self.magnitude),
                    }
                } else {
                    SignedBig {
                        negative: sn,
                        magnitude: self.magnitude.sub(&other.magnitude),
                    }
                }
            }
        }
    }

    fn mul_uint(&self, v: &BigUint) -> SignedBig {
        SignedBig {
            negative: self.negative && !v.is_zero(),
            magnitude: self.magnitude.mul(v),
        }
    }

    /// Reduces the signed value into `[0, modulus)`.
    fn to_mod(&self, modulus: &BigUint) -> BigUint {
        let m = self.magnitude.rem(modulus);
        if self.negative && !m.is_zero() {
            modulus.sub(&m)
        } else {
            m
        }
    }
}

/// Small primes used for trial division before Miller–Rabin.
const SMALL_PRIMES: &[u64] = &[
    3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97,
    101, 103, 107, 109, 113, 127, 131, 137, 139, 149, 151, 157, 163, 167, 173, 179, 181, 191, 193,
    197, 199, 211, 223, 227, 229, 233, 239, 241, 251,
];

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn big(v: u64) -> BigUint {
        BigUint::from_u64(v)
    }

    #[test]
    fn construction_and_bytes() {
        assert!(BigUint::zero().is_zero());
        assert!(BigUint::one().is_one());
        assert_eq!(
            big(0x1234_5678_9abc_def0).to_be_bytes(),
            0x1234_5678_9abc_def0u64.to_be_bytes()
        );
        let n = BigUint::from_be_bytes(&[0x01, 0x02, 0x03, 0x04, 0x05]);
        assert_eq!(n, big(0x0102030405));
        assert_eq!(n.to_be_bytes(), vec![0x01, 0x02, 0x03, 0x04, 0x05]);
        assert_eq!(
            n.to_be_bytes_padded(8).unwrap(),
            vec![0, 0, 0, 0x01, 0x02, 0x03, 0x04, 0x05]
        );
        assert!(n.to_be_bytes_padded(2).is_none());
        assert_eq!(BigUint::zero().to_be_bytes(), vec![0]);
    }

    #[test]
    fn leading_zero_bytes_ignored() {
        let a = BigUint::from_be_bytes(&[0, 0, 0, 42]);
        assert_eq!(a, big(42));
    }

    #[test]
    fn add_sub_roundtrip() {
        let a = big(u64::MAX).mul(&big(12345));
        let b = big(987654321);
        assert_eq!(a.add(&b).sub(&b), a);
        assert_eq!(a.add(&b).sub(&a), b);
        assert!(b.checked_sub(&a).is_none());
    }

    #[test]
    fn mul_known_values() {
        assert_eq!(big(0).mul(&big(55)), big(0));
        assert_eq!(big(7).mul(&big(6)), big(42));
        let a = big(u32::MAX as u64);
        assert_eq!(a.mul(&a), big((u32::MAX as u64) * (u32::MAX as u64)));
    }

    #[test]
    fn shifts() {
        let a = big(0b1011);
        assert_eq!(a.shl(3), big(0b1011000));
        assert_eq!(a.shl(3).shr(3), a);
        assert_eq!(a.shr(10), BigUint::zero());
        assert_eq!(a.shl(100).shr(100), a);
        assert_eq!(big(1).shl(64).bit_len(), 65);
    }

    #[test]
    fn div_rem_small_and_large() {
        let (q, r) = big(100).div_rem(&big(7));
        assert_eq!((q, r), (big(14), big(2)));

        let a = big(u64::MAX).mul(&big(u64::MAX)).add(&big(12345));
        let d = big(u64::MAX);
        let (q, r) = a.div_rem(&d);
        assert_eq!(q.mul(&d).add(&r), a);
        assert!(r.cmp_big(&d) == Ordering::Less);

        // Divisor larger than dividend.
        let (q, r) = big(5).div_rem(&big(100));
        assert_eq!((q, r), (BigUint::zero(), big(5)));
    }

    #[test]
    #[should_panic(expected = "division by zero")]
    fn division_by_zero_panics() {
        let _ = big(1).div_rem(&BigUint::zero());
    }

    #[test]
    fn modpow_known_values() {
        // 4^13 mod 497 = 445 (classic textbook example).
        assert_eq!(big(4).modpow(&big(13), &big(497)), big(445));
        // Fermat: a^(p-1) mod p == 1 for prime p not dividing a.
        assert_eq!(big(17).modpow(&big(1008), &big(1009)), big(1));
        // Modulus one.
        assert_eq!(big(5).modpow(&big(5), &big(1)), BigUint::zero());
    }

    #[test]
    fn montgomery_matches_slow_modpow() {
        let mut rng = StdRng::seed_from_u64(0x4d30_4d30);
        for bits in [33usize, 64, 96, 160, 256, 384] {
            let modulus = BigUint::random_odd_with_bits(&mut rng, bits);
            for _ in 0..4 {
                let base = BigUint::random_bits(&mut rng, bits + 17);
                let exp = BigUint::random_bits(&mut rng, bits);
                assert_eq!(
                    base.modpow(&exp, &modulus),
                    base.modpow_slow(&exp, &modulus),
                    "bits={bits}"
                );
            }
        }
    }

    #[test]
    fn montgomery_edge_cases() {
        let modulus = big(1009); // odd prime
                                 // exponent zero -> 1; base zero -> 0; base == modulus -> 0.
        assert_eq!(big(7).modpow(&BigUint::zero(), &modulus), big(1));
        assert_eq!(BigUint::zero().modpow(&big(5), &modulus), BigUint::zero());
        assert_eq!(big(1009).modpow(&big(3), &modulus), BigUint::zero());
        // 0^0 == 1 by convention (both paths agree).
        assert_eq!(
            BigUint::zero().modpow(&BigUint::zero(), &modulus),
            BigUint::zero().modpow_slow(&BigUint::zero(), &modulus)
        );
        // Even modulus falls back to the slow path transparently.
        assert_eq!(
            big(7).modpow(&big(30), &big(1024)),
            big(7).modpow_slow(&big(30), &big(1024))
        );
    }

    /// The squaring-specialised inner loop must be bit-identical to the
    /// general CIOS multiply with both operands equal — across widths, random
    /// values, and the boundary values 0, 1 and n-1.
    #[test]
    fn montgomery_squaring_matches_multiply() {
        let mut rng = StdRng::seed_from_u64(0x5175_a4e5);
        for bits in [33usize, 64, 96, 160, 256, 384, 768] {
            let modulus = BigUint::random_odd_with_bits(&mut rng, bits);
            let ctx = MontgomeryCtx64::new(&modulus).unwrap();
            let mut cases: Vec<BigUint> = (0..6)
                .map(|_| BigUint::random_below(&mut rng, &modulus))
                .collect();
            cases.push(BigUint::zero());
            cases.push(BigUint::one());
            cases.push(modulus.sub(&BigUint::one()));
            for a in &cases {
                let am = MontgomeryCtx64::pack(&a.rem(&modulus), ctx.k);
                assert_eq!(ctx.montsqr(&am), ctx.montmul(&am, &am), "bits={bits} a={a}");
            }
        }
    }

    #[test]
    fn montgomery64_matches_schoolbook_reference() {
        let mut rng = StdRng::seed_from_u64(0x6464_6464);
        for bits in [33usize, 64, 65, 96, 128, 160, 256, 384, 768] {
            let modulus = BigUint::random_odd_with_bits(&mut rng, bits);
            let ctx = MontgomeryCtx64::new(&modulus).unwrap();
            assert_eq!(ctx.modulus(), &modulus);
            for _ in 0..4 {
                let a = BigUint::random_bits(&mut rng, bits + 9);
                let b = BigUint::random_bits(&mut rng, bits);
                let exp = BigUint::random_bits(&mut rng, bits);
                assert_eq!(ctx.mulmod(&a, &b), a.mulmod(&b, &modulus), "bits={bits}");
                assert_eq!(ctx.sqrmod(&a), a.mulmod(&a, &modulus), "bits={bits}");
                assert_eq!(
                    ctx.modpow(&a, &exp),
                    a.modpow_slow(&exp, &modulus),
                    "bits={bits}"
                );
            }
        }
    }

    #[test]
    fn montgomery64_edge_cases() {
        let modulus = big(1009);
        assert_eq!(big(7).modpow(&BigUint::zero(), &modulus), big(1));
        assert_eq!(BigUint::zero().modpow(&big(5), &modulus), BigUint::zero());
        assert!(MontgomeryCtx64::new(&big(1024)).is_none());
        assert!(MontgomeryCtx64::new(&BigUint::one()).is_none());
        assert!(MontgomeryCtx64::new(&BigUint::zero()).is_none());
        // An odd number of 32-bit storage limbs exercises the half-filled
        // top 64-bit limb.
        let mut rng = StdRng::seed_from_u64(9);
        let odd_limbs = BigUint::random_odd_with_bits(&mut rng, 96);
        assert_eq!(odd_limbs.limbs.len(), 3);
        let ctx = MontgomeryCtx64::new(&odd_limbs).unwrap();
        let a = BigUint::random_bits(&mut rng, 96);
        assert_eq!(ctx.mulmod(&a, &a), a.mulmod(&a, &odd_limbs));
    }

    #[test]
    fn ct_select_matches_naive_indexing() {
        let mut rng = StdRng::seed_from_u64(0xc7);
        let table: Vec<Vec<u64>> = (0..32)
            .map(|_| (0..6).map(|_| rng.gen::<u64>()).collect())
            .collect();
        for idx in 0..table.len() {
            assert_eq!(ct_select64(&table, idx), table[idx], "idx={idx}");
        }
        // Out-of-range index selects nothing (all-zero result).
        assert_eq!(ct_select64(&table, 99), vec![0u64; 6]);
        assert_eq!(ct_select64(&[], 0), Vec::<u64>::new());
    }

    #[test]
    fn montgomery_ctx_mulmod_matches_naive() {
        let mut rng = StdRng::seed_from_u64(0x5eed);
        let modulus = BigUint::random_odd_with_bits(&mut rng, 192);
        let ctx = MontgomeryCtx64::new(&modulus).unwrap();
        assert_eq!(ctx.modulus(), &modulus);
        for _ in 0..8 {
            let a = BigUint::random_bits(&mut rng, 200);
            let b = BigUint::random_bits(&mut rng, 150);
            assert_eq!(ctx.mulmod(&a, &b), a.mulmod(&b, &modulus));
        }
    }

    #[test]
    fn gcd_and_modinv() {
        assert_eq!(big(54).gcd(&big(24)), big(6));
        assert_eq!(big(17).gcd(&big(31)), big(1));
        let inv = big(3).modinv(&big(11)).unwrap();
        assert_eq!(inv, big(4)); // 3*4 = 12 ≡ 1 mod 11
        assert!(big(6).modinv(&big(9)).is_none()); // gcd != 1
        let e = big(65537);
        let phi = big(3120); // not coprime-free example: gcd(65537,3120)=1
        let d = e.modinv(&phi).unwrap();
        assert_eq!(e.mulmod(&d, &phi), BigUint::one());
    }

    #[test]
    fn primality_known_values() {
        let mut rng = StdRng::seed_from_u64(42);
        for p in [2u64, 3, 5, 7, 97, 101, 257, 65537, 1009, 104729] {
            assert!(
                big(p).is_probable_prime(&mut rng, 16),
                "{p} should be prime"
            );
        }
        for c in [1u64, 4, 100, 561, 6601, 65536, 104730] {
            assert!(
                !big(c).is_probable_prime(&mut rng, 16),
                "{c} should be composite"
            );
        }
    }

    #[test]
    fn generate_small_prime() {
        let mut rng = StdRng::seed_from_u64(7);
        let p = BigUint::generate_prime(&mut rng, 64, 12);
        assert_eq!(p.bit_len(), 64);
        assert!(p.is_probable_prime(&mut rng, 16));
    }

    #[test]
    fn random_below_respects_bound() {
        let mut rng = StdRng::seed_from_u64(1);
        let bound = big(1000);
        for _ in 0..200 {
            let v = BigUint::random_below(&mut rng, &bound);
            assert!(v.cmp_big(&bound) == Ordering::Less);
        }
    }

    #[test]
    fn display_hex() {
        assert_eq!(BigUint::zero().to_string(), "0x0");
        assert_eq!(big(255).to_string(), "0xff");
        assert_eq!(big(0x1_0000_0001).to_string(), "0x100000001");
    }

    #[test]
    fn ordering_traits() {
        let mut v = vec![big(5), big(1), big(300), BigUint::zero()];
        v.sort();
        assert_eq!(v, vec![BigUint::zero(), big(1), big(5), big(300)]);
    }
}
