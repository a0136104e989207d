pub fn deliver(msgs: &[u8]) -> u8 {
    assert!(!msgs.is_empty());
    let first = msgs.first().unwrap();
    debug_assert!(*first < 250); // debug_assert is allowed
    *first
}

pub fn settle(xs: &[u8]) -> u8 {
    crate::helpers::pick(xs) + crate::helpers::deep(xs) // C3: depth 1 and 2
}
