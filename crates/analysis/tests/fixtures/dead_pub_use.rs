// Fixture: an integration test naming one dead-pub declaration from
// another file, scanned as crates/demo/tests/use.rs.

#[test]
fn exported_helper_is_named_here() {
    assert_eq!(exported_helper(), 1);
}
