//! A separate workspace's binary: the walk must not collect it as code
//! of the enclosing workspace.

fn main() {}
