//! Seeded violations of every policy lint, one site per rule. This crate
//! is not a workspace member: `check.sh` next to it runs clippy on it under
//! the real lint tables and `clippy.toml` files and fails unless clippy
//! rejects every site.

use std::collections::HashMap as Map;

/// A hash map reached only through aliases.
pub type Table = Map<u64, u64>;

pub fn wall_clock() -> std::time::Instant {
    std::time::Instant::now()
}

pub fn env_read() -> bool {
    std::env::var("SMT_FIXTURE").is_ok()
}

pub fn raw_thread() {
    std::thread::spawn(|| {});
}

pub fn unwraps(x: Option<u32>) -> u32 {
    x.unwrap()
}

pub fn expects(x: Option<u32>) -> u32 {
    x.expect("seeded")
}

pub fn panics() {
    panic!("seeded")
}

pub fn narrows(x: u64) -> u32 {
    x as u32
}

pub fn reads_raw(x: &u8) -> u8 {
    let p: *const u8 = x;
    unsafe { *p }
}
