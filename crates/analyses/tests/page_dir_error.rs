//! A page file that cannot be created is a typed error from the fallible
//! paged constructors, not a panic. This binary sets `JEDD_PAGE_DIR` for
//! its whole process, so it holds nothing else.

use jedd_analyses::facts::Facts;
use jedd_analyses::synth::Benchmark;
use jedd_core::{Backend, BddError, JeddError, Universe};

fn is_page_io(e: &JeddError) -> bool {
    matches!(
        e,
        JeddError::ResourceExhausted {
            cause: BddError::Page { kind: "io", .. },
            ..
        }
    )
}

#[test]
fn unwritable_page_dir_is_a_typed_error() {
    // A directory path beneath a regular file can never be created.
    let file = std::env::temp_dir().join(format!("jedd-page-dir-error-{}", std::process::id()));
    std::fs::write(&file, b"not a directory").unwrap();
    std::env::set_var("JEDD_PAGE_DIR", file.join("pages"));

    let p = Benchmark::Tiny.generate();
    match Facts::load_paged(&p, 4) {
        Ok(_) => panic!("load_paged succeeded without a page file"),
        Err(e) => assert!(is_page_io(&e), "unexpected error: {e}"),
    }
    for backend in [Backend::Bdd, Backend::Cbdd] {
        match Universe::new_paged_with_backend(backend, 0) {
            Ok(_) => panic!("{backend}: paged universe without a page file"),
            Err(e) => assert!(is_page_io(&e), "{backend}: unexpected error: {e}"),
        }
    }
    std::fs::remove_file(&file).unwrap();
}
