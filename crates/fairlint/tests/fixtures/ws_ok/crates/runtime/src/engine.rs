pub fn deliver(msgs: &[u8]) -> u8 {
    // fairlint::allow(S2, reason = "fixture: empty slice is unreachable by construction")
    let first = msgs.first().unwrap();
    debug_assert!(*first < 250);
    *first
}

pub fn settle(xs: &[u8]) -> u8 {
    // `total::pick` has an indexing fact but is allowlisted as proven
    // total in this fixture's fairlint.toml, so C3 stays quiet.
    crate::total::pick(xs)
}

#[cfg(test)]
mod tests {
    #[test]
    fn tests_may_panic_freely() {
        assert_eq!(super::deliver(&[1]), 1);
        [1u8].first().unwrap();
    }
}
