// Fixture: dead-pub declarations, scanned under crates/demo/src/.
// The crate root fixture re-exports two of them; the use-site fixture
// names `exported_helper` from another file.

// POSITIVE: a pub fn nothing names.
pub fn orphan_helper() -> u32 {
    7
}

// POSITIVE: a pub struct named only by its own impl header.
pub struct Hollow;

impl Hollow {
    fn size(&self) -> usize {
        0
    }
}

// POSITIVE: named only by its own #[cfg(test)] module and a `pub use`.
pub const TEST_ONLY_LIMIT: usize = 4;

// NEGATIVE: named by a test in another file.
pub fn exported_helper() -> u32 {
    1
}

// NEGATIVE: called by this file's own non-test code.
pub fn local_helper() -> u32 {
    3
}

fn caller() -> u32 {
    local_helper() + 1
}

// NEGATIVE: restricted visibility is not public API.
pub(crate) fn internal_helper() -> u32 {
    5
}

// ALLOWLISTED: an extension-seam accessor nothing in-tree reads.
// simlint: allow(dead-pub) -- fixture seam: a user's router reads it
pub fn seam_accessor() -> u32 {
    9
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn limit_is_four() {
        assert_eq!(TEST_ONLY_LIMIT, 4);
    }
}
