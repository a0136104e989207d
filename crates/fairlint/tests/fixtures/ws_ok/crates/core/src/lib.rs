#![forbid(unsafe_code)]

pub fn wallclock() -> std::time::Instant {
    // fairlint::allow(D1, reason = "fixture: demonstrating a justified wall-clock read")
    std::time::Instant::now()
}

pub fn float_eq(x: f64) -> bool {
    x == 0.5 // fairlint::allow(D2, reason = "fixture: exact sentinel compare")
}
