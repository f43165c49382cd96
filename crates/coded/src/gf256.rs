//! GF(2⁸) arithmetic over the AES-adjacent polynomial `x⁸+x⁴+x³+x²+1`
//! (0x11d), the field every byte-oriented Reed–Solomon code uses.
//!
//! The exp/log tables are built at *compile time* by a `const fn` — no
//! lazy statics, no external crates, and the cost of a multiply is two
//! table loads and one add, ~1 ns (see the `gf256/*` micro-benches).
//! Addition in a characteristic-2 field is XOR.

/// The field's generator polynomial (degree-8 term implied).
const POLY: u16 = 0x11d;

/// Builds the exponent table (512 entries so `exp[log a + log b]` never
/// needs a modular reduction) and the log table. `log[0]` is unused —
/// zero has no logarithm — and left as 0.
const fn build_tables() -> ([u8; 512], [u8; 256]) {
    let mut exp = [0u8; 512];
    let mut log = [0u8; 256];
    let mut x: u16 = 1;
    let mut i = 0;
    while i < 255 {
        exp[i] = x as u8;
        log[x as usize] = i as u8;
        x <<= 1;
        if x & 0x100 != 0 {
            x ^= POLY;
        }
        i += 1;
    }
    let mut j = 255;
    while j < 512 {
        exp[j] = exp[j - 255];
        j += 1;
    }
    (exp, log)
}

const TABLES: ([u8; 512], [u8; 256]) = build_tables();
const EXP: [u8; 512] = TABLES.0;
const LOG: [u8; 256] = TABLES.1;

/// Field addition (= subtraction): XOR.
#[inline]
pub fn add(a: u8, b: u8) -> u8 {
    a ^ b
}

/// Field multiplication via the log/exp tables.
#[inline]
pub fn mul(a: u8, b: u8) -> u8 {
    if a == 0 || b == 0 {
        0
    } else {
        EXP[LOG[a as usize] as usize + LOG[b as usize] as usize]
    }
}

/// Field division `a / b`. Panics on division by zero.
#[inline]
pub fn div(a: u8, b: u8) -> u8 {
    assert!(b != 0, "GF(256) division by zero");
    if a == 0 {
        0
    } else {
        EXP[255 + LOG[a as usize] as usize - LOG[b as usize] as usize]
    }
}

/// Multiplicative inverse. Panics on zero.
#[inline]
pub fn inv(a: u8) -> u8 {
    assert!(a != 0, "GF(256) inverse of zero");
    EXP[255 - LOG[a as usize] as usize]
}

/// `base^e` by exp/log (with `e` reduced mod 255, the group order).
#[inline]
pub fn pow(base: u8, e: u32) -> u8 {
    if base == 0 {
        return if e == 0 { 1 } else { 0 };
    }
    let l = u32::from(LOG[base as usize]) * e % 255;
    EXP[l as usize]
}

/// `dst[i] ^= c * src[i]` — the row-operation kernel encode and decode
/// are built from.
#[inline]
pub fn mul_acc(dst: &mut [u8], src: &[u8], c: u8) {
    if c == 0 {
        return;
    }
    let lc = LOG[c as usize] as usize;
    for (d, &s) in dst.iter_mut().zip(src) {
        if s != 0 {
            *d ^= EXP[lc + LOG[s as usize] as usize];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tiger_sim::SimRng;

    fn nonzero(rng: &mut SimRng) -> u8 {
        loop {
            let v = rng.gen_range(0..256u64) as u8;
            if v != 0 {
                return v;
            }
        }
    }

    #[test]
    fn tables_are_consistent() {
        // exp is a permutation of 1..=255 over one period, and log is its
        // inverse on nonzero elements.
        let mut seen = [false; 256];
        for (i, &v) in EXP.iter().enumerate().take(255) {
            assert!(v != 0);
            assert!(!seen[v as usize], "exp repeats at {i}");
            seen[v as usize] = true;
            assert_eq!(LOG[v as usize] as usize, i);
        }
    }

    #[test]
    fn mul_matches_schoolbook() {
        // Carry-less schoolbook multiply reduced by POLY, checked over
        // every pair — 65k cases, trivially fast.
        for a in 0..=255u8 {
            for b in 0..=255u8 {
                let mut prod: u16 = 0;
                let mut aa = u16::from(a);
                let mut bb = b;
                while bb != 0 {
                    if bb & 1 != 0 {
                        prod ^= aa;
                    }
                    aa <<= 1;
                    if aa & 0x100 != 0 {
                        aa ^= POLY;
                    }
                    bb >>= 1;
                }
                assert_eq!(mul(a, b), prod as u8, "{a} * {b}");
            }
        }
    }

    #[test]
    fn field_axioms_hold() {
        tiger_sim::check::check("gf256_field_axioms", |rng: &mut SimRng| {
            let a = rng.gen_range(0..256u64) as u8;
            let b = rng.gen_range(0..256u64) as u8;
            let c = rng.gen_range(0..256u64) as u8;
            assert_eq!(mul(a, b), mul(b, a));
            assert_eq!(mul(a, mul(b, c)), mul(mul(a, b), c));
            assert_eq!(mul(a, add(b, c)), add(mul(a, b), mul(a, c)));
            assert_eq!(mul(a, 1), a);
            let nz = nonzero(rng);
            assert_eq!(mul(nz, inv(nz)), 1);
            assert_eq!(div(mul(a, nz), nz), a);
        });
    }

    #[test]
    fn pow_is_repeated_mul() {
        for base in [0u8, 1, 2, 3, 0x53, 0xff] {
            let mut acc = 1u8;
            for e in 0..20u32 {
                assert_eq!(pow(base, e), acc, "base {base} e {e}");
                acc = mul(acc, base);
            }
        }
    }

    #[test]
    fn mul_acc_is_fused_multiply_xor() {
        let src = [1u8, 2, 0, 0x80, 0xff];
        let mut dst = [9u8, 9, 9, 9, 9];
        let mut expect = dst;
        for (e, &s) in expect.iter_mut().zip(&src) {
            *e ^= mul(0x1d, s);
        }
        mul_acc(&mut dst, &src, 0x1d);
        assert_eq!(dst, expect);
        mul_acc(&mut dst, &src, 0);
        assert_eq!(dst, expect, "c=0 must be a no-op");
    }
}
