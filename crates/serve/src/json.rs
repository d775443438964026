//! The service reads and renders bodies with the workspace's one JSON
//! codec, [`nvp_trace::json`], re-exported here.

pub use nvp_trace::json::*;
