//! A separate workspace's binary. Were it walked as root-package code,
//! the wall-clock read, the unwrap and the missing `forbid(unsafe_code)`
//! would all be findings.

fn main() {
    let start = std::time::Instant::now();
    let n: u64 = "7".parse().unwrap();
    println!("{n} in {:?}", start.elapsed());
}
