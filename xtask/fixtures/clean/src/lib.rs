//! Fixture: a compliant crate (see §1).

/// Doubles a number, with a documented invariant expect.
pub fn double(x: Option<u32>) -> u32 {
    2 * x.expect("invariant: callers always pass Some")
}

#[cfg(test)]
mod tests {
    #[test]
    fn unwraps_are_fine_in_tests() {
        let v: Result<u32, ()> = Ok(1);
        assert_eq!(v.unwrap(), 1);
    }
}
