//! End-to-end benchmark of the path-cover daemon; see `README.md`.

pub mod bench;
pub mod daemon;
pub mod gen;
pub mod json;
pub mod load;
pub mod oracle;
pub mod stamp;
pub mod stats;
#[cfg(feature = "trace")]
pub mod traced;
pub mod wire;
