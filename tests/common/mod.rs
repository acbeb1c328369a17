//! What the host-C tests share.

/// The host C compiler, or `None` to skip a test's host-C leg. With
/// `MATIC_FUZZ_REQUIRE_C=1` a missing compiler fails instead.
pub fn cc_or_skip() -> Option<&'static str> {
    let found = matic_codegen::host_cc();
    if found.is_none() {
        assert!(
            std::env::var("MATIC_FUZZ_REQUIRE_C").map_or(true, |v| v != "1"),
            "no C compiler found, and MATIC_FUZZ_REQUIRE_C=1 requires one"
        );
        eprintln!("skipping the host-C leg: no C compiler found");
    }
    found
}
