//! The repository benchmark: fixed sweep workloads driven through the
//! program's public sweep path, timed end to end untraced, and split
//! into per-layer host time by a separate traced pass. See README.md.

pub mod spans;
pub mod sweep;
pub mod sys;
