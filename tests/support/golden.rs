//! The golden-file check shared by the integration tests: compare `text`
//! with `tests/golden/<name>`, rewriting the file first when
//! `UPDATE_GOLDEN` is set.

pub fn check_golden(name: &str, text: &str) {
    let path = format!("{}/tests/golden/{name}", env!("CARGO_MANIFEST_DIR"));
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, text).expect("write golden");
    }
    let golden =
        std::fs::read_to_string(&path).expect("golden file missing — run with UPDATE_GOLDEN=1");
    assert_eq!(text, golden, "output drifted from tests/golden/{name}");
}
