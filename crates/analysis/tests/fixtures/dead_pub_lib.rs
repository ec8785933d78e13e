// Fixture: the crate root of the dead-pub declarations, scanned as
// crates/demo/src/lib.rs. A re-export is not a use.

mod api;

pub use api::{
    orphan_helper,
    TEST_ONLY_LIMIT,
};
