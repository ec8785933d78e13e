//! Empty on purpose: the `serde` placeholder it once backed defines no
//! item, so this package defines no macro. It stays only because the
//! frozen `perfbench/Cargo.lock` names it (see `shims/README.md`).
