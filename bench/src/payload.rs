//! Seed-derived task inputs. Task `i` of a run gets a string that depends
//! on the seed and on `i`, so no two tasks of a run share an input and a
//! memoizing layer cannot answer one from another.

/// splitmix64: a full-period mix of a 64-bit counter.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn task_key(seed: u64, index: u64) -> u64 {
    mix(mix(seed) ^ index)
}

/// The `echo` input of task `index`: `hello-world-<index>-<tag>`.
pub fn echo_string(seed: u64, index: u64) -> String {
    format!("hello-world-{index}-{:016x}", task_key(seed, index))
}

/// Length of the large `echo` input, in bytes.
pub const BLOB_LEN: usize = 8 << 10;

/// The 8 KiB `echo` input of task `index`: lowercase letters and digits
/// drawn from a stream keyed by the seed and the index.
pub fn blob_string(seed: u64, index: u64) -> String {
    const ALPHABET: &[u8; 32] = b"abcdefghijklmnopqrstuvwxyz012345";
    let mut out = String::with_capacity(BLOB_LEN);
    let mut state = task_key(seed, index);
    while out.len() < BLOB_LEN {
        state = mix(state);
        // Twelve 5-bit symbols per 64-bit word.
        let mut word = state;
        for _ in 0..12 {
            if out.len() == BLOB_LEN {
                break;
            }
            out.push(ALPHABET[(word & 31) as usize] as char);
            word >>= 5;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_identical_payloads_in_identical_order() {
        let a: Vec<String> = (0..64).map(|i| echo_string(42, i)).collect();
        let b: Vec<String> = (0..64).map(|i| echo_string(42, i)).collect();
        assert_eq!(a, b);
        assert_eq!(blob_string(42, 7).as_bytes(), blob_string(42, 7).as_bytes());
    }

    #[test]
    fn different_seed_or_index_gives_different_payloads() {
        assert_ne!(echo_string(1, 0), echo_string(2, 0));
        assert_ne!(echo_string(1, 0), echo_string(1, 1));
        assert_ne!(blob_string(1, 0), blob_string(2, 0));
        assert_ne!(blob_string(1, 0), blob_string(1, 1));
        let all: std::collections::HashSet<String> =
            (0..10_000).map(|i| echo_string(9, i)).collect();
        assert_eq!(all.len(), 10_000, "no two tasks of a run share an input");
    }

    #[test]
    fn payload_shapes_match_the_workload_definitions() {
        assert!(echo_string(3, 17).starts_with("hello-world-17-"));
        let blob = blob_string(3, 17);
        assert_eq!(blob.len(), BLOB_LEN);
        assert!(blob.bytes().all(|b| b.is_ascii_lowercase() || b.is_ascii_digit()));
    }
}
