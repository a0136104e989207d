#![forbid(unsafe_code)]
// e2 is registered but has no EXPERIMENTS.md row; the md lists e9 which
// nobody registered.
pub const ALL_EXPERIMENTS: [&str; 2] = ["e1", "e2"];
