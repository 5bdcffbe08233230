//! The independent oracle: what memory *must* look like afterwards.
//!
//! Computes the expected end state of a [`crate::plan::Plan`] with plain
//! byte arrays and nothing from the emulator — no `StrideSpec` engine, no
//! queues, no network. Gather/scatter is re-implemented here from the
//! paper's definition (§3.1: `count` items of `item_size` bytes, `skip`
//! bytes apart), so a bug in the production stride engine cannot cancel
//! itself out of the comparison.

use crate::plan::{Op, Plan, DSM_SPAN, FLAG_SLOTS};
use apmsc::StrideSpec;

/// Deterministic pattern word `w` of cell `c`'s read-only area.
pub fn pattern_word(seed: u64, cell: u32, word: u64) -> u64 {
    // splitmix64 finalizer over (seed, cell, word).
    let mut z = seed
        .wrapping_add((cell as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(word.wrapping_mul(0xbf58_476d_1ce4_e5b9));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The read-only pattern area of one cell, as u64 words.
pub fn pattern_words(seed: u64, cell: u32, src_half: u64) -> Vec<u64> {
    (0..src_half / 8)
        .map(|w| pattern_word(seed, cell, w))
        .collect()
}

/// Deterministic payload for seeded byte streams (RStore data, bcast
/// payloads): byte `i` of stream `pattern`.
pub fn stream_bytes(pattern: u64, len: u64) -> Vec<u8> {
    (0..len)
        .map(|i| {
            let w = pattern_word(pattern, 0x5eed, i / 8);
            (w >> (8 * (i % 8))) as u8
        })
        .collect()
}

/// Expected final state of the machine.
pub struct Expectation {
    /// Final region bytes per cell.
    pub region: Vec<Vec<u8>>,
    /// Final flag values per cell.
    pub flags: Vec<[u32; FLAG_SLOTS]>,
    /// Final DSM window contents per owner (first [`DSM_SPAN`] bytes).
    pub dsm: Vec<Vec<u8>>,
    /// Expected `remote_load` results per cell, in plan order.
    pub loads: Vec<Vec<Vec<u8>>>,
}

/// The stride gather of §3.1 over a plain byte array: item `k` is the
/// `item_size` bytes at `base + k * skip`. Public so the data plane
/// (`apmsc::stride`, `apmsc::dma`) can be tested against it directly.
///
/// # Panics
///
/// Panics if an item lies outside `mem`.
pub fn gather(mem: &[u8], base: u64, spec: StrideSpec) -> Vec<u8> {
    let mut out = Vec::with_capacity(spec.total_bytes() as usize);
    for k in 0..spec.count as u64 {
        let at = (base + k * spec.skip as u64) as usize;
        out.extend_from_slice(&mem[at..at + spec.item_size as usize]);
    }
    out
}

/// The matching scatter: item `k` of `payload` lands at `base + k * skip`.
///
/// # Panics
///
/// Panics if `payload` is not `spec.total_bytes()` long or an item lies
/// outside `mem`.
pub fn scatter(mem: &mut [u8], base: u64, spec: StrideSpec, payload: &[u8]) {
    assert_eq!(payload.len() as u64, spec.total_bytes(), "oracle scatter");
    for (k, item) in payload.chunks(spec.item_size as usize).enumerate() {
        let at = (base + k as u64 * spec.skip as u64) as usize;
        mem[at..at + item.len()].copy_from_slice(item);
    }
}

fn fill_pattern(region: &mut [u8], seed: u64, cell: u32, src_half: u64) {
    for (w, word) in pattern_words(seed, cell, src_half).into_iter().enumerate() {
        region[w * 8..w * 8 + 8].copy_from_slice(&word.to_le_bytes());
    }
}

/// Computes the expected end state of `plan` (which must be non-hostile —
/// hostile plans abort and leave no end state to check).
pub fn expectation(plan: &Plan, seed: u64) -> Expectation {
    let n = plan.ncells as usize;
    let mut region: Vec<Vec<u8>> = vec![vec![0u8; plan.region as usize]; n];
    let mut dsm: Vec<Vec<u8>> = vec![vec![0u8; DSM_SPAN as usize]; n];
    let mut loads: Vec<Vec<Vec<u8>>> = vec![Vec::new(); n];
    for (c, r) in region.iter_mut().enumerate() {
        fill_pattern(r, seed, c as u32, plan.src_half);
    }
    for round in &plan.rounds {
        for op in &round.ops {
            match op {
                Op::Put {
                    src,
                    dst,
                    src_off,
                    dst_off,
                    contig,
                    send,
                    recv,
                    ..
                } => {
                    let payload = match contig {
                        Some(bytes) => {
                            let s = *src_off as usize;
                            region[*src as usize][s..s + *bytes as usize].to_vec()
                        }
                        None => gather(&region[*src as usize], *src_off, *send),
                    };
                    if contig.is_some() {
                        let d = *dst_off as usize;
                        region[*dst as usize][d..d + payload.len()].copy_from_slice(&payload);
                    } else {
                        scatter(&mut region[*dst as usize], *dst_off, *recv, &payload);
                    }
                }
                Op::Get {
                    owner,
                    reader,
                    src_off,
                    dst_off,
                    contig,
                    send,
                    recv,
                    ..
                } => {
                    let payload = match contig {
                        Some(bytes) => {
                            let s = *src_off as usize;
                            region[*owner as usize][s..s + *bytes as usize].to_vec()
                        }
                        None => gather(&region[*owner as usize], *src_off, *send),
                    };
                    if contig.is_some() {
                        let d = *dst_off as usize;
                        region[*reader as usize][d..d + payload.len()].copy_from_slice(&payload);
                    } else {
                        scatter(&mut region[*reader as usize], *dst_off, *recv, &payload);
                    }
                }
                Op::Send {
                    src,
                    dst,
                    src_off,
                    dst_off,
                    bytes,
                } => {
                    let payload = region[*src as usize]
                        [*src_off as usize..(*src_off + *bytes) as usize]
                        .to_vec();
                    region[*dst as usize][*dst_off as usize..(*dst_off + *bytes) as usize]
                        .copy_from_slice(&payload);
                }
                Op::Bcast {
                    off,
                    bytes,
                    pattern,
                    ..
                } => {
                    let payload = stream_bytes(*pattern, *bytes);
                    for r in region.iter_mut() {
                        r[*off as usize..(*off + *bytes) as usize].copy_from_slice(&payload);
                    }
                }
                Op::RStore {
                    owner,
                    off,
                    bytes,
                    pattern,
                    ..
                } => {
                    let payload = stream_bytes(*pattern, *bytes);
                    dsm[*owner as usize][*off as usize..(*off + *bytes) as usize]
                        .copy_from_slice(&payload);
                }
                Op::RLoad {
                    reader,
                    owner,
                    off,
                    bytes,
                } => {
                    let data =
                        dsm[*owner as usize][*off as usize..(*off + *bytes) as usize].to_vec();
                    loads[*reader as usize].push(data);
                }
                Op::Work { .. } | Op::Hostile { .. } => {}
            }
        }
    }
    Expectation {
        region,
        flags: plan.flag_final.clone(),
        dsm,
        loads,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pattern_is_deterministic_and_cell_distinct() {
        assert_eq!(pattern_word(7, 0, 3), pattern_word(7, 0, 3));
        assert_ne!(pattern_word(7, 0, 3), pattern_word(7, 1, 3));
        assert_ne!(pattern_word(7, 0, 3), pattern_word(8, 0, 3));
    }

    #[test]
    fn stream_bytes_are_stable_prefixes() {
        let long = stream_bytes(42, 64);
        let short = stream_bytes(42, 16);
        assert_eq!(&long[..16], &short[..]);
    }

    #[test]
    fn gather_scatter_round_trip() {
        let spec = StrideSpec::new(2, 3, 5);
        let mem: Vec<u8> = (0..32).collect();
        let payload = gather(&mem, 1, spec);
        assert_eq!(payload, vec![1, 2, 6, 7, 11, 12]);
        let mut out = vec![0u8; 32];
        scatter(&mut out, 1, spec, &payload);
        assert_eq!(&out[1..3], &[1, 2]);
        assert_eq!(&out[6..8], &[6, 7]);
        assert_eq!(&out[11..13], &[11, 12]);
    }
}
