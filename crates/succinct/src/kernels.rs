//! Hot-path bit and byte kernels (§3.6–3.7).
//!
//! The FST query path spends almost all of its time in three tiny loops:
//! in-word select (the tail of every sampled select), in-word rank (the
//! tail of every rank), and byte-label search over LOUDS-Sparse nodes.
//! This module provides branch-free/word-parallel implementations of each,
//! with a portable SWAR form and, on `x86_64`, a hardware form selected by
//! cached runtime CPU-feature detection:
//!
//! * [`select_in_word`] — BMI2 `PDEP` when available, otherwise Vigna's
//!   broadword select ([`select_in_word_swar`]). The byte-stepping loop the
//!   repo started with survives as [`select_in_word_scalar`] for the
//!   ablation harness.
//! * [`find_byte`] — SSE2 16-lane compare+movemask when available,
//!   otherwise the 8-byte SWAR zero-in-word trick ([`find_byte_swar`]);
//!   short slices fall through to the plain loop ([`find_byte_scalar`]).
//! * [`popcount_words`] — the block-scan inner loop of `rank1`/`rank1_excl`
//!   for basic blocks wider than 64 bits: `popcnt` instruction when
//!   available, SSE2 `psadbw` next, batched SWAR otherwise.
//!
//! All variants are exported so `bench_hotpath` can ablate scalar vs SWAR
//! vs SIMD and the differential test suite can cross-check them. Dispatch
//! honors the process-wide `MEMTREE_KERNELS` policy
//! ([`memtree_common::dispatch`]): `scalar` pins every kernel portable.

/// `SELECT_IN_BYTE[(k << 8) | b]` = position of the `(k+1)`-th set bit of
/// byte `b`, or 8 when `b` has at most `k` set bits.
static SELECT_IN_BYTE: [u8; 2048] = select_in_byte_table();

const fn select_in_byte_table() -> [u8; 2048] {
    let mut t = [8u8; 2048];
    let mut k = 0usize;
    while k < 8 {
        let mut b = 0usize;
        while b < 256 {
            let mut seen = 0usize;
            let mut i = 0usize;
            while i < 8 {
                if (b >> i) & 1 == 1 {
                    if seen == k {
                        t[(k << 8) | b] = i as u8;
                        break;
                    }
                    seen += 1;
                }
                i += 1;
            }
            b += 1;
        }
        k += 1;
    }
    t
}

/// Runtime CPU-feature dispatch through the workspace's cached probe
/// ([`memtree_common::cached!`]), which honours `MEMTREE_KERNELS=scalar`.
#[cfg(target_arch = "x86_64")]
mod cpu {
    #[inline]
    pub(super) fn has_bmi2() -> bool {
        memtree_common::cached!("bmi2")
    }

    #[inline]
    pub(super) fn has_sse2() -> bool {
        memtree_common::cached!("sse2")
    }

    #[inline]
    pub(super) fn has_popcnt() -> bool {
        memtree_common::cached!("popcnt")
    }
}

// ---------------------------------------------------------------------------
// In-word select
// ---------------------------------------------------------------------------

/// Position of the `k`-th (1-based) set bit within a 64-bit word, or 64 if
/// the word has fewer than `k` set bits.
///
/// Dispatches to BMI2 `PDEP` when the CPU has it, otherwise to the
/// broadword SWAR form — both are branch-free past the one dispatch test.
#[inline]
pub fn select_in_word(word: u64, k: u32) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if cpu::has_bmi2() {
        // SAFETY: BMI2 presence was verified at runtime just above.
        return unsafe { select_in_word_pdep(word, k) };
    }
    select_in_word_swar(word, k)
}

/// BMI2 form of [`select_in_word`]: deposit a single bit at rank `k` into
/// the word's set positions, then count trailing zeros. `PDEP` of an
/// out-of-range rank deposits nothing, so `trailing_zeros` of the zero
/// result yields the contractual 64.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "bmi2")]
fn select_in_word_pdep(word: u64, k: u32) -> u32 {
    debug_assert!(k >= 1);
    if k > 64 {
        return 64;
    }
    core::arch::x86_64::_pdep_u64(1u64 << (k - 1), word).trailing_zeros()
}

/// Portable broadword form of [`select_in_word`] (Vigna's algorithm 2):
/// SWAR per-byte popcounts, a multiply to prefix-sum them, a lane-parallel
/// comparison against `k` to locate the byte, and one 2 KiB table probe to
/// finish inside it. No data-dependent branches.
#[inline]
pub fn select_in_word_swar(word: u64, k: u32) -> u32 {
    debug_assert!(k >= 1);
    if k > word.count_ones() {
        return 64;
    }
    const ONES: u64 = 0x0101_0101_0101_0101;
    const MSBS: u64 = 0x8080_8080_8080_8080;
    let k = (k - 1) as u64; // 0-based rank
    // Per-byte popcounts via the classic SWAR reduction.
    let mut s = word - ((word >> 1) & 0x5555_5555_5555_5555);
    s = (s & 0x3333_3333_3333_3333) + ((s >> 2) & 0x3333_3333_3333_3333);
    s = (s + (s >> 4)) & 0x0F0F_0F0F_0F0F_0F0F;
    // Byte `j` of `sums` = popcount of bytes 0..=j (prefix sums).
    let sums = s.wrapping_mul(ONES);
    // Lane-parallel `prefix_sum <= k`: the MSB of each lane survives the
    // subtraction iff that byte's prefix popcount is <= k. The number of
    // such lanes is the index of the byte holding the target bit.
    let geq = (((k * ONES) | MSBS) - sums) & MSBS;
    let place = geq.count_ones() * 8; // <= 56: the guard above ensures the target byte exists
    let byte_rank = k - (((sums << 8) >> place) & 0xFF);
    place + SELECT_IN_BYTE[(byte_rank as usize) << 8 | ((word >> place) & 0xFF) as usize] as u32
}

/// The original byte-stepping select: at most 8 popcounts plus an in-byte
/// bit scan. Kept as the scalar baseline for the Figure 3.6-style kernel
/// ablation in `bench_hotpath`.
#[inline]
pub fn select_in_word_scalar(word: u64, mut k: u32) -> u32 {
    debug_assert!(k >= 1);
    let mut base = 0u32;
    let mut w = word;
    loop {
        let byte = (w & 0xFF) as u8;
        let cnt = byte.count_ones();
        if cnt >= k {
            let mut b = byte;
            for i in 0..8 {
                if b & 1 == 1 {
                    k -= 1;
                    if k == 0 {
                        return base + i;
                    }
                }
                b >>= 1;
            }
        }
        k -= cnt;
        base += 8;
        if base >= 64 {
            return 64;
        }
        w >>= 8;
    }
}

// ---------------------------------------------------------------------------
// Multi-word popcount (rank over blocks wider than 64 bits)
// ---------------------------------------------------------------------------

/// Popcount of a word slice — the inner loop of every `rank1`/`rank1_excl`
/// over basic blocks wider than 64 bits, and of rank-LUT construction.
///
/// Dispatches (cached, policy-gated): `popcnt`-instruction tier when the
/// CPU has it, SSE2 `psadbw` tier next, batched SWAR otherwise.
#[inline]
pub fn popcount_words(words: &[u64]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    {
        if cpu::has_popcnt() {
            // SAFETY: POPCNT presence was verified at runtime just above.
            return unsafe { popcount_words_popcnt_impl(words) };
        }
        if cpu::has_sse2() {
            // SAFETY: SSE2 presence was verified at runtime just above.
            return unsafe { popcount_words_sse2_impl(words) };
        }
    }
    popcount_words_swar(words)
}

/// One `count_ones` per word — the scalar baseline for the ablation.
#[inline]
pub fn popcount_words_scalar(words: &[u64]) -> u32 {
    words.iter().map(|w| w.count_ones()).sum()
}

/// Batched SWAR tier: each word is reduced to per-byte counts, up to 31
/// words of byte counts are accumulated lane-wise (8 · 31 = 248 < 256, so
/// no lane overflows), and one widening pairwise fold sums the lanes —
/// amortizing the horizontal sum that the per-word form pays every word.
#[inline]
pub fn popcount_words_swar(words: &[u64]) -> u32 {
    let mut total = 0u32;
    for group in words.chunks(31) {
        let mut acc = 0u64;
        for &w in group {
            let mut s = w - ((w >> 1) & 0x5555_5555_5555_5555);
            s = (s & 0x3333_3333_3333_3333) + ((s >> 2) & 0x3333_3333_3333_3333);
            s = (s + (s >> 4)) & 0x0F0F_0F0F_0F0F_0F0F;
            acc += s;
        }
        // Widening fold: byte lanes → u16 → u32 → u64 (group totals can
        // exceed one byte, so the multiply-fold trick doesn't apply).
        let s = (acc & 0x00FF_00FF_00FF_00FF) + ((acc >> 8) & 0x00FF_00FF_00FF_00FF);
        let s = (s & 0x0000_FFFF_0000_FFFF) + ((s >> 16) & 0x0000_FFFF_0000_FFFF);
        total += ((s + (s >> 32)) & 0xFFFF_FFFF) as u32;
    }
    total
}

/// SSE2 tier, when this CPU has it — `None` otherwise. Ignores the
/// `MEMTREE_KERNELS` policy so differential tests and the ablation bench
/// can cross-check tiers in any mode.
#[cfg(target_arch = "x86_64")]
pub fn popcount_words_sse2(words: &[u64]) -> Option<u32> {
    if std::arch::is_x86_feature_detected!("sse2") {
        // SAFETY: SSE2 presence was verified at runtime just above.
        Some(unsafe { popcount_words_sse2_impl(words) })
    } else {
        None
    }
}

/// `popcnt`-instruction tier, when this CPU has it — `None` otherwise.
#[cfg(target_arch = "x86_64")]
pub fn popcount_words_popcnt(words: &[u64]) -> Option<u32> {
    if std::arch::is_x86_feature_detected!("popcnt") {
        // SAFETY: POPCNT presence was verified at runtime just above.
        Some(unsafe { popcount_words_popcnt_impl(words) })
    } else {
        None
    }
}

/// SWAR byte-count reduction in 128-bit lanes, folded two words at a time
/// by `psadbw` (sum of absolute differences against zero = horizontal byte
/// sum per 64-bit half).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse2")]
fn popcount_words_sse2_impl(words: &[u64]) -> u32 {
    use core::arch::x86_64::*;
    // SAFETY: every load reads 16 in-bounds bytes (`i + 2 <= len` words).
    unsafe {
        let m1 = _mm_set1_epi8(0x55);
        let m2 = _mm_set1_epi8(0x33);
        let m4 = _mm_set1_epi8(0x0F);
        let zero = _mm_setzero_si128();
        let mut total = zero;
        let mut i = 0usize;
        while i + 2 <= words.len() {
            let v = _mm_loadu_si128(words.as_ptr().add(i) as *const __m128i);
            let v = _mm_sub_epi8(v, _mm_and_si128(_mm_srli_epi64::<1>(v), m1));
            let v = _mm_add_epi8(_mm_and_si128(v, m2), _mm_and_si128(_mm_srli_epi64::<2>(v), m2));
            let v = _mm_and_si128(_mm_add_epi8(v, _mm_srli_epi64::<4>(v)), m4);
            total = _mm_add_epi64(total, _mm_sad_epu8(v, zero));
            i += 2;
        }
        let lanes = (_mm_cvtsi128_si64(total) as u64)
            .wrapping_add(_mm_cvtsi128_si64(_mm_srli_si128::<8>(total)) as u64);
        let mut out = lanes as u32;
        if i < words.len() {
            out += words[i].count_ones();
        }
        out
    }
}

/// With `popcnt` enabled, `count_ones` compiles to the instruction; four
/// independent accumulators overlap its latency.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "popcnt")]
fn popcount_words_popcnt_impl(words: &[u64]) -> u32 {
    let mut chunks = words.chunks_exact(4);
    let (mut a, mut b, mut c, mut d) = (0u32, 0u32, 0u32, 0u32);
    for q in &mut chunks {
        a += q[0].count_ones();
        b += q[1].count_ones();
        c += q[2].count_ones();
        d += q[3].count_ones();
    }
    a + b + c + d + chunks.remainder().iter().map(|w| w.count_ones()).sum::<u32>()
}

// ---------------------------------------------------------------------------
// Byte-label search
// ---------------------------------------------------------------------------

/// Position of the first occurrence of `needle` in `haystack`.
///
/// Word-parallel: SSE2 (16 labels per compare) when the CPU has it and the
/// slice spans at least one vector, 8-byte SWAR for medium slices, plain
/// loop for short ones — LOUDS-Sparse nodes are mostly small (§3.6), so
/// the dispatch thresholds matter as much as the kernels.
#[inline]
pub fn find_byte(haystack: &[u8], needle: u8) -> Option<usize> {
    #[cfg(target_arch = "x86_64")]
    if haystack.len() >= 16 && cpu::has_sse2() {
        // SAFETY: SSE2 presence was verified at runtime just above.
        return unsafe { find_byte_sse2(haystack, needle) };
    }
    if haystack.len() >= 8 {
        return find_byte_swar(haystack, needle);
    }
    find_byte_scalar(haystack, needle)
}

/// Plain byte loop — the scalar baseline.
#[inline]
pub fn find_byte_scalar(haystack: &[u8], needle: u8) -> Option<usize> {
    haystack.iter().position(|&b| b == needle)
}

/// 8-byte SWAR form: XOR against a broadcast pattern turns matches into
/// zero bytes; the zero-in-word trick lights the MSB of each zero lane.
#[inline]
pub fn find_byte_swar(haystack: &[u8], needle: u8) -> Option<usize> {
    const LOWS: u64 = 0x0101_0101_0101_0101;
    const MSBS: u64 = 0x8080_8080_8080_8080;
    let pat = u64::from_ne_bytes([needle; 8]);
    let mut chunks = haystack.chunks_exact(8);
    let mut off = 0usize;
    for chunk in &mut chunks {
        let x = u64::from_ne_bytes(chunk.try_into().unwrap()) ^ pat;
        let hit = x.wrapping_sub(LOWS) & !x & MSBS;
        if hit != 0 {
            return Some(off + (hit.trailing_zeros() / 8) as usize);
        }
        off += 8;
    }
    chunks
        .remainder()
        .iter()
        .position(|&b| b == needle)
        .map(|i| off + i)
}

/// SSE2 form: one `pcmpeqb` + `pmovmskb` resolves 16 labels per iteration.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse2")]
fn find_byte_sse2(haystack: &[u8], needle: u8) -> Option<usize> {
    use core::arch::x86_64::*;
    // SAFETY: every load below reads 16 in-bounds bytes (`i + 16 <= len`).
    unsafe {
        let pat = _mm_set1_epi8(needle as i8);
        let mut i = 0usize;
        while i + 16 <= haystack.len() {
            let v = _mm_loadu_si128(haystack.as_ptr().add(i) as *const __m128i);
            let mask = _mm_movemask_epi8(_mm_cmpeq_epi8(v, pat)) as u32;
            if mask != 0 {
                return Some(i + mask.trailing_zeros() as usize);
            }
            i += 16;
        }
        find_byte_swar(&haystack[i..], needle).map(|p| i + p)
    }
}

/// Issues a best-effort L1 cache-line prefetch (no-op off `x86_64`).
///
/// Used by the batched query paths to overlap the misses of independent
/// probes; safe to call with any address.
#[inline(always)]
pub fn prefetch_read<T>(p: *const T) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: _mm_prefetch has no memory effects; any address is allowed.
    unsafe {
        core::arch::x86_64::_mm_prefetch::<{ core::arch::x86_64::_MM_HINT_T0 }>(p as *const i8)
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = p;
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_select(w: u64, k: u32) -> u32 {
        let mut seen = 0;
        for i in 0..64 {
            if w >> i & 1 == 1 {
                seen += 1;
                if seen == k {
                    return i;
                }
            }
        }
        64
    }

    #[test]
    fn select_variants_agree_on_fixed_words() {
        let words = [
            0u64,
            1,
            u64::MAX,
            0x8000_0000_0000_0000,
            0xAAAA_AAAA_AAAA_AAAA,
            0x0123_4567_89AB_CDEF,
            0x0000_0001_0000_0000,
        ];
        for &w in &words {
            for k in 1..=64u32 {
                let expect = naive_select(w, k);
                assert_eq!(select_in_word_scalar(w, k), expect, "scalar w={w:#x} k={k}");
                assert_eq!(select_in_word_swar(w, k), expect, "swar w={w:#x} k={k}");
                assert_eq!(select_in_word(w, k), expect, "dispatch w={w:#x} k={k}");
            }
        }
    }

    #[test]
    fn find_byte_variants_agree_on_fixed_patterns() {
        let mut hay = Vec::new();
        for i in 0..300u32 {
            hay.push((i.wrapping_mul(37) % 251) as u8);
        }
        for len in [0usize, 1, 7, 8, 9, 15, 16, 17, 31, 64, 255, 300] {
            let h = &hay[..len];
            for needle in [0u8, 1, 17, 37, 74, 255] {
                let expect = find_byte_scalar(h, needle);
                assert_eq!(find_byte_swar(h, needle), expect, "swar len={len} n={needle}");
                assert_eq!(find_byte(h, needle), expect, "dispatch len={len} n={needle}");
            }
        }
    }

    #[test]
    fn popcount_variants_agree_across_lengths() {
        let mut state = 7u64;
        let words: Vec<u64> = (0..200)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                state
            })
            .collect();
        for len in [0usize, 1, 2, 3, 4, 7, 8, 15, 16, 30, 31, 32, 62, 63, 100, 200] {
            let w = &words[..len];
            let expect = popcount_words_scalar(w);
            assert_eq!(popcount_words_swar(w), expect, "swar len {len}");
            assert_eq!(popcount_words(w), expect, "dispatch len {len}");
            #[cfg(target_arch = "x86_64")]
            {
                if let Some(got) = popcount_words_sse2(w) {
                    assert_eq!(got, expect, "sse2 len {len}");
                }
                if let Some(got) = popcount_words_popcnt(w) {
                    assert_eq!(got, expect, "popcnt len {len}");
                }
            }
        }
        assert_eq!(popcount_words_swar(&vec![u64::MAX; 100]), 6400);
    }

    #[test]
    fn select_in_byte_table_spot_checks() {
        assert_eq!(SELECT_IN_BYTE[0xFF], 0); // 1st bit of 0xFF
        assert_eq!(SELECT_IN_BYTE[(7 << 8) | 0xFF], 7); // 8th bit of 0xFF
        assert_eq!(SELECT_IN_BYTE[0x80], 7); // 1st bit of 0x80
        assert_eq!(SELECT_IN_BYTE[(1 << 8) | 0x80], 8); // no 2nd bit
    }
}
