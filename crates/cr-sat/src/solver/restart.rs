//! Luby restart sequence.

/// The Luby sequence value `u(i)` scaled by `y`: 1,1,2,1,1,2,4,… times `y`.
///
/// Restart `i` (zero based) gets a conflict budget of `luby(2, i) * base`,
/// the schedule MiniSat made standard.
pub(crate) fn luby(y: f64, mut x: u64) -> f64 {
    // Find the finite subsequence containing x and its position within it.
    let mut size: u64 = 1;
    let mut seq: u32 = 0;
    while size < x + 1 {
        seq += 1;
        size = 2 * size + 1;
    }
    while size - 1 != x {
        size = (size - 1) / 2;
        seq -= 1;
        x %= size;
    }
    y.powi(seq as i32)
}

#[cfg(test)]
mod tests {
    use super::luby;

    #[test]
    fn luby_prefix_matches_reference() {
        let expected = [
            1.0, 1.0, 2.0, 1.0, 1.0, 2.0, 4.0, 1.0, 1.0, 2.0, 1.0, 1.0, 2.0, 4.0, 8.0,
        ];
        for (i, &e) in expected.iter().enumerate() {
            assert_eq!(luby(2.0, i as u64), e, "position {i}");
        }
    }
}
