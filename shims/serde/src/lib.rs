//! Empty on purpose: nothing in the workspace serializes, so this
//! package defines no item. It stays only because the frozen
//! `perfbench/Cargo.lock` names it (see `shims/README.md`).
