//! `perfbench-reference`: a fixed memory-bound kernel that shares no code
//! with `clustream`. The benchmark runs it next to every timed call and
//! reports times relative to it, so a slower or faster phase of the
//! shared host scales both and cancels (see `perfbench/README.md`).
//!
//! ```text
//! perfbench-reference
//! ```
//!
//! Like a `simulate` call it page-faults a hundred-odd MiB,
//! streams over them and then touches them at random. It prints a
//! checksum, so the work cannot be optimized away; the benchmark times
//! the whole process from outside.

/// 128 MiB of u64 words, within the resident sets of the workloads
/// (130–310 MiB).
const WORDS: usize = 16 << 20;
/// Random read-modify-write steps after the fill.
const STEPS: usize = 3_000_000;

/// splitmix64's finalizer.
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn main() {
    let mut words: Vec<u64> = vec![0; WORDS];
    for (i, w) in words.iter_mut().enumerate() {
        *w = mix(i as u64);
    }
    let mut sum = 0u64;
    for step in 0..STEPS {
        let h = mix(step as u64 ^ 0x9E37_79B9);
        let at = h as usize % WORDS;
        words[at] ^= h;
        sum = sum.wrapping_add(words[(at * 7 + 1) % WORDS]);
    }
    sum = words.iter().fold(sum, |s, &w| s.wrapping_add(w >> 3));
    println!("{sum}");
}
