#![forbid(unsafe_code)]
// One violation of each file-scoped rule D1, D2 — plus two broken
// suppressions for L1. Comment mentions like Instant::now here
// must NOT trip rules (the lexer scrubs comments).

// fairlint::allow(D1)
pub fn wallclock() -> std::time::Instant {
    std::time::Instant::now()
}

pub fn float_eq(x: f64) -> bool {
    x == 0.5
}

// fairlint::allow(ZZ9, reason = "no such rule")
pub fn suppresses_nothing() {}

#[cfg(test)]
mod tests {
    // Test code may do all of this freely.
    pub fn in_tests() -> bool {
        let _ = std::time::Instant::now();
        0.5 == 0.5
    }
}
