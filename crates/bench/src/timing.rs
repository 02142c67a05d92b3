//! The optimizer barrier shared by the `microbench` rig.

/// Opaque consumer that stops the optimizer from deleting a computed
/// value.
pub fn consume<T>(value: T) -> T {
    std::hint::black_box(value)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn consume_returns_value() {
        assert_eq!(consume(41) + 1, 42);
    }
}
